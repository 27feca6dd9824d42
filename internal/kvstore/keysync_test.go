package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"versionstamp/internal/core"
)

// TestReconcileDecisionTable pins every per-key sync decision: the counters,
// both copies' values and tombstone flags, and their exact stamps, so fork
// orientation is pinned too. Each case runs twice from the same setup: as two
// held copies (SyncKey(a, b)) and as a held copy absorbing a detached one
// (b's copy, detached through a ConvergeKey hint slot, merged into a by
// MergeVersioned).
func TestReconcileDecisionTable(t *testing.T) {
	keepBoth := KeepBoth([]byte("|"))
	put := func(r *Replica, v string) { r.Put("k", []byte(v)) }
	// shared leaves a and b holding forked copies of one "base" write.
	shared := func(a, b *Replica) {
		put(a, "base")
		if _, err := SyncKey(a, b, "k", nil); err != nil {
			t.Fatal(err)
		}
	}
	show := func(r *Replica) string {
		v, ok := r.Version("k")
		switch {
		case !ok:
			return "absent"
		case v.Deleted:
			return fmt.Sprintf("deleted %s", v.Stamp)
		}
		return fmt.Sprintf("%q %s", v.Value, v.Stamp)
	}
	render := func(res SyncResult, a, b *Replica) string {
		return fmt.Sprintf("T%d R%d M%d P%d C%v | a=%s | b=%s",
			res.Transferred, res.Reconciled, res.Merged, res.Pruned,
			res.Conflicts, show(a), show(b))
	}
	cases := []struct {
		name           string
		setup          func(a, b *Replica)
		resolve        Resolver
		held, detached string
	}{
		{"both absent", func(a, b *Replica) {}, nil,
			`T0 R0 M0 P0 C[] | a=absent | b=absent`,
			`T0 R0 M0 P0 C[] | a=absent | b=absent`},
		{"transfer a to b", func(a, b *Replica) { put(a, "v") }, nil,
			`T1 R0 M0 P0 C[] | a="v" [ε|0] | b="v" [ε|1]`,
			`T0 R0 M0 P0 C[] | a="v" [ε|ε] | b=absent`},
		{"transfer b to a", func(a, b *Replica) { put(b, "v") }, nil,
			`T1 R0 M0 P0 C[] | a="v" [ε|1] | b="v" [ε|0]`,
			`T1 R0 M0 P0 C[] | a="v" [ε|1] | b="v" [ε|0]`},
		{"equal", shared, nil,
			`T0 R0 M0 P0 C[] | a="base" [ε|0] | b="base" [ε|1]`,
			`T0 R0 M0 P1 C[] | a="base" [ε|0+11] | b="base" [ε|10]`},
		{"before", func(a, b *Replica) { shared(a, b); put(b, "new") }, nil,
			`T0 R1 M0 P0 C[] | a="new" [ε|0] | b="new" [ε|1]`,
			`T0 R1 M0 P0 C[] | a="new" [1|0+11] | b="new" [1|10]`},
		{"after", func(a, b *Replica) { shared(a, b); put(a, "new") }, nil,
			`T0 R1 M0 P0 C[] | a="new" [ε|0] | b="new" [ε|1]`,
			`T0 R0 M0 P1 C[] | a="new" [0|0+11] | b="base" [ε|10]`},
		{"after, tombstone", func(a, b *Replica) { shared(a, b); a.Delete("k") }, nil,
			`T0 R1 M0 P0 C[] | a=deleted [ε|0] | b=deleted [ε|1]`,
			`T0 R0 M0 P1 C[] | a=deleted [0|0+11] | b="base" [ε|10]`},
		{"concurrent, identical", func(a, b *Replica) { shared(a, b); put(a, "same"); put(b, "same") }, nil,
			`T0 R1 M0 P0 C[] | a="same" [ε|0] | b="same" [ε|1]`,
			`T0 R0 M0 P1 C[] | a="same" [0+1|0+11] | b="same" [1|10]`},
		{"concurrent, nil resolver", func(a, b *Replica) { shared(a, b); put(a, "left"); put(b, "right") }, nil,
			`T0 R0 M0 P0 C[k] | a="left" [0|0] | b="right" [1|1]`,
			`T0 R0 M0 P0 C[k] | a="left" [0|0] | b="right" [1|10]`},
		{"concurrent, KeepBoth", func(a, b *Replica) { shared(a, b); put(a, "left"); put(b, "right") }, keepBoth,
			`T0 R0 M1 P0 C[] | a="left|right" [ε|0] | b="left|right" [ε|1]`,
			`T0 R0 M1 P0 C[] | a="left|right" [0+11|0+11] | b="right" [1|10]`},
		{"concurrent tombstone, KeepBoth", func(a, b *Replica) { shared(a, b); a.Delete("k"); put(b, "right") }, keepBoth,
			`T0 R0 M1 P0 C[] | a="right" [ε|0] | b="right" [ε|1]`,
			`T0 R0 M1 P0 C[] | a="right" [0+11|0+11] | b="right" [1|10]`},
		{"independent, identical", func(a, b *Replica) { put(a, "same"); put(b, "same") }, nil,
			`T0 R1 M0 P0 C[] | a="same" [ε|0] | b="same" [ε|1]`,
			`T0 R1 M0 P0 C[] | a="same" [ε|ε] | b="same" [ε|0]`},
		{"independent, nil resolver", func(a, b *Replica) { put(a, "left"); put(b, "right") }, nil,
			`T0 R0 M0 P0 C[k] | a="left" [ε|ε] | b="right" [ε|ε]`,
			`T0 R0 M0 P0 C[k] | a="left" [ε|ε] | b="right" [ε|0]`},
		{"independent, KeepBoth", func(a, b *Replica) { put(a, "left"); put(b, "right") }, keepBoth,
			`T0 R0 M1 P0 C[] | a="left|right" [ε|0] | b="left|right" [ε|1]`,
			`T0 R0 M1 P0 C[] | a="left|right" [ε|ε] | b="right" [ε|0]`},
	}
	for _, c := range cases {
		a, b := NewReplica("a"), NewReplica("b")
		c.setup(a, b)
		res, err := SyncKey(a, b, "k", c.resolve)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(res, a, b); got != c.held {
			t.Errorf("%s, held:\n got %s\nwant %s", c.name, got, c.held)
		}

		a, b = NewReplica("a"), NewReplica("b")
		c.setup(a, b)
		res = SyncResult{}
		if cp, ok := forkCopy(t, b, "k"); ok {
			if res, err = a.MergeVersioned("k", cp, c.resolve); err != nil {
				t.Fatal(err)
			}
		}
		if got := render(res, a, b); got != c.detached {
			t.Errorf("%s, detached:\n got %s\nwant %s", c.name, got, c.detached)
		}
	}
}

func TestSyncKeyTransferAndReconcile(t *testing.T) {
	a := NewReplica("a")
	b := NewReplica("b")
	a.Put("k", []byte("v1"))

	res, err := SyncKey(a, b, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred != 1 {
		t.Fatalf("Transferred = %d, want 1", res.Transferred)
	}
	if v, ok := b.Get("k"); !ok || string(v) != "v1" {
		t.Fatalf("b has %q, %v", v, ok)
	}

	// Dominating update at a propagates.
	a.Put("k", []byte("v2"))
	res, err = SyncKey(a, b, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconciled != 1 {
		t.Fatalf("Reconciled = %d, want 1", res.Reconciled)
	}
	if v, _ := b.Get("k"); string(v) != "v2" {
		t.Fatalf("b has %q", v)
	}

	// Untouched keys are untouched: SyncKey of an absent key is a no-op.
	res, err = SyncKey(a, b, "nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred+res.Reconciled+res.Merged+res.Pruned+len(res.Conflicts) != 0 {
		t.Fatalf("absent key produced %+v", res)
	}
}

func TestSyncKeyConflict(t *testing.T) {
	a := NewReplica("a")
	b := NewReplica("b")
	a.Put("k", []byte("base"))
	if _, err := SyncKey(a, b, "k", nil); err != nil {
		t.Fatal(err)
	}
	a.Put("k", []byte("at-a"))
	b.Put("k", []byte("at-b"))

	res, err := SyncKey(a, b, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 1 || res.Conflicts[0] != "k" {
		t.Fatalf("Conflicts = %v", res.Conflicts)
	}

	res, err = SyncKey(a, b, "k", KeepBoth([]byte("|")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Fatalf("Merged = %d, want 1", res.Merged)
	}
	va, _ := a.Get("k")
	vb, _ := b.Get("k")
	if !bytes.Equal(va, vb) {
		t.Fatalf("copies differ after merge: %q vs %q", va, vb)
	}
}

func TestSyncKeySelf(t *testing.T) {
	a := NewReplica("a")
	if _, err := SyncKey(a, a, "k", nil); err == nil {
		t.Fatal("self-sync should error")
	}
}

// forkCopy detaches a copy of key from r the way a quorum write fills the
// hint slot of an unreachable owner: ConvergeKey over r alone, with one
// detached slot. ok is false when the slot received nothing.
func forkCopy(t *testing.T, r *Replica, key string) (Versioned, bool) {
	t.Helper()
	var slot [1]Versioned
	if _, err := ConvergeKey([]*Replica{r}, key, nil, slot[:], nil); err != nil {
		t.Fatal(err)
	}
	return slot[0], !slot[0].Stamp.IsZero()
}

// TestForkPartMatchesForkN: forkPart hands out exactly core.ForkN's parts,
// in ForkN's order.
func TestForkPartMatchesForkN(t *testing.T) {
	s := core.MustParse("[0|0+11]")
	for n := 1; n <= 17; n++ {
		for j, want := range s.ForkN(n) {
			if got := forkPart(s, n, j); !got.Equal(want) {
				t.Fatalf("forkPart(%v, %d, %d) = %v, ForkN gives %v", s, n, j, got, want)
			}
		}
	}
}

// TestConvergeKeyReclaimsIDs: a write at an owner ahead of the other two
// joins all three ids back into the seed's and forks it again; each hint
// slot takes the outer half of what is left, and the owners split the rest
// breadth-first, the shallowest part to the coordinator.
func TestConvergeKeyReclaimsIDs(t *testing.T) {
	for _, c := range []struct {
		hints int
		want  []string
	}{
		{0, []string{"[ε|1]", "[ε|00]", "[ε|01]"}},
		{1, []string{"[ε|01]", "[ε|000]", "[ε|001]", "[ε|1]"}},
		{2, []string{"[ε|001]", "[ε|0000]", "[ε|0001]", "[ε|1]", "[ε|01]"}},
	} {
		a := NewReplica("a")
		a.Put("k", []byte("v0"))
		b, d := a.Clone("b"), a.Clone("d")
		a.Put("k", []byte("v1"))
		slots := make([]Versioned, c.hints)
		w := KeyWrite{Value: []byte("v2")}
		if _, err := ConvergeKey([]*Replica{a, b, d}, "k", &w, slots, nil); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range []*Replica{a, b, d} {
			v, _ := r.Version("k")
			got = append(got, v.Stamp.String())
		}
		for _, h := range slots {
			got = append(got, h.Stamp.String())
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%d hints: stamps %v, want %v", c.hints, got, c.want)
		}
	}
}

// TestForkCopyKeepsFrontier: a hint slot of ConvergeKey receives a fork of
// the held copy, and the replica keeps the other half.
func TestForkCopyKeepsFrontier(t *testing.T) {
	r := NewReplica("r")
	if _, ok := forkCopy(t, r, "missing"); ok {
		t.Fatal("a hint slot for a missing key should receive nothing")
	}
	r.Put("k", []byte("v"))
	before, _ := r.Version("k")
	cp, ok := forkCopy(t, r, "k")
	if !ok {
		t.Fatal("the hint slot received nothing")
	}
	after, _ := r.Version("k")
	if string(cp.Value) != "v" || cp.Deleted {
		t.Fatalf("copy = %+v", cp)
	}
	// The detached copy and the retained copy are forked siblings: equal
	// update knowledge, disjoint ids (joinable).
	if core.Compare(cp.Stamp, after.Stamp) != core.Equal {
		t.Fatalf("fork siblings compare %v, want Equal", core.Compare(cp.Stamp, after.Stamp))
	}
	if _, err := core.Join(cp.Stamp, after.Stamp); err != nil {
		t.Fatalf("fork siblings must be joinable: %v", err)
	}
	// The retained copy still carries the same update knowledge.
	if core.Compare(before.Stamp, after.Stamp) != core.Equal {
		t.Fatal("fork must not change update knowledge")
	}
	// Mutating the copy's value must not alias the stored one.
	cp.Value[0] = 'X'
	if v, _ := r.Get("k"); string(v) != "v" {
		t.Fatalf("stored value aliased: %q", v)
	}
}

// TestReplicasShareStoredValue pins which buffers replicas share: a
// reconcile's replica slots share one buffer, which is never one a caller
// still holds (a write's value, a resolver's output, a detached copy, a
// hint slot's copy), and a Clone shares its source's buffers until either
// side writes.
func TestReplicasShareStoredValue(t *testing.T) {
	data := func(r *Replica) *byte {
		t.Helper()
		v, ok := r.Stored("k")
		if !ok || len(v.Value) == 0 {
			t.Fatalf("%s holds no value for k", r.Label())
		}
		return unsafe.SliceData(v.Value)
	}
	value := func(r *Replica) string {
		v, _ := r.Get("k")
		return string(v)
	}

	t.Run("ConvergeKey", func(t *testing.T) {
		rs := []*Replica{NewReplica("a"), NewReplica("b"), NewReplica("c")}
		w := KeyWrite{Value: []byte("written")}
		hint := make([]Versioned, 1)
		if _, err := ConvergeKey(rs, "k", &w, hint, nil); err != nil {
			t.Fatal(err)
		}
		shared := data(rs[0])
		for _, r := range rs[1:] {
			if data(r) != shared {
				t.Errorf("%s holds its own buffer, not the one its co-owners share", r.Label())
			}
		}
		if shared == unsafe.SliceData(w.Value) {
			t.Error("the replicas store the caller's write buffer")
		}
		if unsafe.SliceData(hint[0].Value) == shared {
			t.Error("the hint slot shares the replicas' buffer")
		}
		hint[0].Value[0] = 'X'
		w.Value[0] = 'X'
		for _, r := range rs {
			if got := value(r); got != "written" {
				t.Errorf("%s reads %q after the caller wrote into its buffers", r.Label(), got)
			}
		}
	})

	t.Run("KeepBoth", func(t *testing.T) {
		a, b := NewReplica("a"), NewReplica("b")
		a.Put("k", []byte("base"))
		if _, err := SyncKey(a, b, "k", nil); err != nil {
			t.Fatal(err)
		}
		a.Put("k", []byte("from-a"))
		b.Put("k", []byte("from-b"))
		ina, inb := data(a), data(b)
		res, err := SyncKey(a, b, "k", KeepBoth([]byte("|")))
		if err != nil || res.Merged != 1 {
			t.Fatalf("SyncKey = %+v, %v", res, err)
		}
		if data(a) != data(b) {
			t.Error("the merged value is installed as two copies")
		}
		if data(a) == ina || data(a) == inb {
			t.Error("the merged value is one of the resolver's inputs")
		}
		if value(a) != "from-a|from-b" {
			t.Errorf("merged value = %q", value(a))
		}
	})

	t.Run("MergeVersioned", func(t *testing.T) {
		src, dst := NewReplica("src"), NewReplica("dst")
		src.Put("k", []byte("hinted"))
		in, _ := forkCopy(t, src, "k")
		if _, err := dst.MergeVersioned("k", in, nil); err != nil {
			t.Fatal(err)
		}
		in.Value[0] = 'X'
		if got := value(dst); got != "hinted" {
			t.Errorf("dst reads %q after the caller wrote into the merged copy", got)
		}
	})

	t.Run("Clone", func(t *testing.T) {
		src := NewReplica("src")
		src.Put("k", []byte("v0"))
		clone := src.Clone("clone")
		if data(src) != data(clone) {
			t.Error("the clone copied a stored buffer")
		}
		src.Put("k", []byte("src"))
		if got := value(clone); got != "v0" {
			t.Errorf("clone reads %q after its source wrote", got)
		}
		clone.Put("k", []byte("clone"))
		if got := value(src); got != "src" {
			t.Errorf("source reads %q after its clone wrote", got)
		}
	})
}

func TestMergeVersionedInstallsWhenAbsent(t *testing.T) {
	src := NewReplica("src")
	dst := NewReplica("dst")
	src.Put("k", []byte("v"))
	cp, _ := forkCopy(t, src, "k")

	res, err := dst.MergeVersioned("k", cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred != 1 {
		t.Fatalf("Transferred = %d", res.Transferred)
	}
	if v, ok := dst.Get("k"); !ok || string(v) != "v" {
		t.Fatalf("dst has %q, %v", v, ok)
	}
	// The installed copy and the source are now ordinary fork siblings: a
	// later Sync treats them as equivalent, not conflicting.
	sv, _ := src.Version("k")
	dv, _ := dst.Version("k")
	if core.Compare(sv.Stamp, dv.Stamp) != core.Equal {
		t.Fatalf("compare = %v, want Equal", core.Compare(sv.Stamp, dv.Stamp))
	}
}

func TestMergeVersionedDominatesAndAbsorbs(t *testing.T) {
	src := NewReplica("src")
	dst := NewReplica("dst")
	src.Put("k", []byte("old"))
	if _, err := SyncKey(src, dst, "k", nil); err != nil {
		t.Fatal(err)
	}

	// Incoming dominates: hint carries a newer write.
	src.Put("k", []byte("new"))
	cp, _ := forkCopy(t, src, "k")
	res, err := dst.MergeVersioned("k", cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconciled != 1 {
		t.Fatalf("Reconciled = %d (%+v)", res.Reconciled, res)
	}
	if v, _ := dst.Get("k"); string(v) != "new" {
		t.Fatalf("dst = %q", v)
	}

	// Incoming obsolete: local wrote past it meanwhile. Local value stays;
	// the stale copy's id is still absorbed (Pruned).
	cp2, _ := forkCopy(t, src, "k")
	dst.Put("k", []byte("newer"))
	res, err = dst.MergeVersioned("k", cp2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pruned != 1 {
		t.Fatalf("Pruned = %d (%+v)", res.Pruned, res)
	}
	if v, _ := dst.Get("k"); string(v) != "newer" {
		t.Fatalf("dst = %q", v)
	}
}

func TestMergeVersionedConflict(t *testing.T) {
	src := NewReplica("src")
	dst := NewReplica("dst")
	src.Put("k", []byte("base"))
	if _, err := SyncKey(src, dst, "k", nil); err != nil {
		t.Fatal(err)
	}
	src.Put("k", []byte("from-src"))
	dst.Put("k", []byte("at-dst"))
	cp, _ := forkCopy(t, src, "k")

	// Nil resolver: conflict reported, nothing consumed or changed.
	res, err := dst.MergeVersioned("k", cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 1 {
		t.Fatalf("Conflicts = %v", res.Conflicts)
	}
	if v, _ := dst.Get("k"); string(v) != "at-dst" {
		t.Fatalf("dst mutated on reported conflict: %q", v)
	}

	// With a resolver the same copy merges and dominates both inputs.
	res, err = dst.MergeVersioned("k", cp, KeepBoth([]byte("|")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Fatalf("Merged = %d", res.Merged)
	}
	dv, _ := dst.Version("k")
	if core.Compare(dv.Stamp, cp.Stamp) != core.After {
		t.Fatalf("merged stamp should dominate the input, got %v", core.Compare(dv.Stamp, cp.Stamp))
	}
}

func TestMergeVersionedIndependentCopies(t *testing.T) {
	dst := NewReplica("dst")
	dst.Put("k", []byte("same"))
	in := Versioned{Value: []byte("same"), Stamp: core.Seed().Update()}

	res, err := dst.MergeVersioned("k", in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconciled != 1 {
		t.Fatalf("equal independent copies: %+v", res)
	}

	dst2 := NewReplica("dst2")
	dst2.Put("k", []byte("left"))
	in2 := Versioned{Value: []byte("right"), Stamp: core.Seed().Update()}
	res, err = dst2.MergeVersioned("k", in2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 1 {
		t.Fatalf("independent differing copies without resolver: %+v", res)
	}
	res, err = dst2.MergeVersioned("k", in2, KeepBoth([]byte("|")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Fatalf("independent differing copies with resolver: %+v", res)
	}
	if v, _ := dst2.Get("k"); string(v) != "left|right" {
		t.Fatalf("merged value = %q", v)
	}
}

// Drain symmetry: a hint slot's copy merged by MergeVersioned at another
// replica leaves
// the pair in the same relation a direct SyncKey would have produced —
// stamps Equal, values equal, and a follow-up sync moves nothing.
func TestForkCopyMergeEquivalentToSync(t *testing.T) {
	a := NewReplica("a")
	b := NewReplica("b")
	a.Put("k", []byte("v"))
	cp, _ := forkCopy(t, a, "k")
	if _, err := b.MergeVersioned("k", cp, nil); err != nil {
		t.Fatal(err)
	}
	res, err := SyncKey(a, b, "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred+res.Reconciled+res.Merged != 0 {
		t.Fatalf("follow-up sync moved data: %+v", res)
	}
	va, _ := a.Version("k")
	vb, _ := b.Version("k")
	if core.Compare(va.Stamp, vb.Stamp) != core.Equal {
		t.Fatalf("stamps compare %v", core.Compare(va.Stamp, vb.Stamp))
	}
}

// TestConflictResolvedTwiceMergesOnce is the regression test for the
// resolver contract: two pairs of replicas resolve the same conflict
// independently — as concurrent gossip exchanges do — and then meet. The
// byte-identical merge results must join without the resolver and without a
// fresh update, so the conflict ends as one bounded value under stamps that
// compare Equal after one more sync, instead of a merge of merges that is
// concurrent with every other pair's.
func TestConflictResolvedTwiceMergesOnce(t *testing.T) {
	r := [4]*Replica{NewReplica("r0")}
	r[0].Put("k", []byte("base"))
	for i := 1; i < 4; i++ {
		r[i] = r[0].Clone("r")
	}
	mustSync := func(a, b *Replica, resolve Resolver) SyncResult {
		t.Helper()
		res, err := SyncKey(a, b, "k", resolve)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Two sides write concurrently; each side converges internally.
	r[0].Put("k", []byte("left"))
	r[2].Put("k", []byte("right"))
	mustSync(r[0], r[1], nil)
	mustSync(r[2], r[3], nil)

	// Each left copy meets a right copy: the same conflict, resolved twice.
	calls := 0
	counting := func(key string, a, b Versioned) ([]byte, bool, error) {
		calls++
		return KeepBoth([]byte("|"))(key, a, b)
	}
	if res := mustSync(r[0], r[2], counting); res.Merged != 1 {
		t.Fatalf("first resolution: %+v", res)
	}
	if res := mustSync(r[1], r[3], counting); res.Merged != 1 {
		t.Fatalf("second resolution: %+v", res)
	}
	if calls != 2 {
		t.Fatalf("resolver ran %d times for two independent resolutions", calls)
	}
	v0, _ := r[0].Version("k")
	v1, _ := r[1].Version("k")
	if core.Compare(v0.Stamp, v1.Stamp) != core.Concurrent {
		t.Fatalf("independent resolutions compare %v, want Concurrent", core.Compare(v0.Stamp, v1.Stamp))
	}

	// The merged copies meet, with no resolver to fall back on: identical
	// bytes need none.
	if res := mustSync(r[0], r[1], nil); len(res.Conflicts) != 0 || res.Merged != 0 || res.Reconciled != 1 {
		t.Fatalf("meeting of identical merges: %+v", res)
	}
	// A drained hint carrying the other pair's identical merge is absorbed
	// the same way.
	cp, ok := forkCopy(t, r[3], "k")
	if !ok {
		t.Fatal("the hint slot received nothing")
	}
	if res, err := r[2].MergeVersioned("k", cp, nil); err != nil || len(res.Conflicts) != 0 || res.Merged != 0 {
		t.Fatalf("MergeVersioned of an identical merge: %+v, %v", res, err)
	}
	// One more sync around the ring and everybody holds one bounded value
	// under equivalent stamps.
	for _, p := range [][2]int{{0, 2}, {1, 3}, {0, 1}, {2, 3}, {0, 3}} {
		mustSync(r[p[0]], r[p[1]], nil)
	}
	want, _ := r[0].Version("k")
	if string(want.Value) != "left|right" {
		t.Fatalf("merged value = %q, want one merge of the two writes", want.Value)
	}
	for i := 1; i < 4; i++ {
		got, _ := r[i].Version("k")
		if !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("r%d holds %q, r0 holds %q", i, got.Value, want.Value)
		}
		if rel := core.Compare(got.Stamp, want.Stamp); rel != core.Equal {
			t.Fatalf("r%d's stamp compares %v to r0's, want Equal", i, rel)
		}
	}
}
