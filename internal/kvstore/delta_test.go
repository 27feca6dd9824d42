package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
)

// pairFromClone seeds a replica with n keys and clones it, so every key has
// a common causal origin on both sides.
func pairFromClone(n int) (*Replica, *Replica) {
	a := NewReplica("a")
	for i := 0; i < n; i++ {
		a.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	return a, a.Clone("b")
}

func entriesFor(r *Replica, keys []string) []encoding.Entry {
	var out []encoding.Entry
	for _, k := range keys {
		v, ok := r.Version(k)
		if !ok {
			continue
		}
		out = append(out, encoding.Entry{Key: k, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp})
	}
	return out
}

// deltaRound runs a full in-process two-phase round with b as initiator and
// a as responder, applying the reply on b.
func deltaRound(t *testing.T, a, b *Replica, resolve Resolver) SyncResult {
	t.Helper()
	digest := b.Digest()
	diff, err := a.DiffRanges(digest, 0, 0, nil)
	if err != nil {
		t.Fatalf("DiffRanges: %v", err)
	}
	entries := entriesFor(b, diff.Need)
	reply, res, err := a.ApplyDeltaRanges(nil, digest, entries, resolve, 0, 0, nil)
	if err != nil {
		t.Fatalf("ApplyDeltaRanges: %v", err)
	}
	if _, err := b.ApplyDeltaReply(reply, shippedIn(digest), 0, 0); err != nil {
		t.Fatalf("ApplyDeltaReply: %v", err)
	}
	return res
}

// shippedIn is ApplyDeltaReply's guard for a round that shipped digest.
func shippedIn(digest []encoding.Digest) func(string) (core.Stamp, bool) {
	sent := make(map[string]core.Stamp, len(digest))
	for _, d := range digest {
		sent[d.Key] = d.Stamp
	}
	return func(k string) (core.Stamp, bool) { st, ok := sent[k]; return st, ok }
}

func requireSameContents(t *testing.T, a, b *Replica) {
	t.Helper()
	keys := map[string]bool{}
	for _, k := range a.Keys() {
		keys[k] = true
	}
	for _, k := range b.Keys() {
		keys[k] = true
	}
	for k := range keys {
		va, okA := a.Get(k)
		vb, okB := b.Get(k)
		if okA != okB || !bytes.Equal(va, vb) {
			t.Errorf("key %q: %q/%v vs %q/%v", k, va, okA, vb, okB)
		}
	}
}

func TestDigestSortedAndComplete(t *testing.T) {
	a, _ := pairFromClone(20)
	a.Delete("key-003")
	d := a.Digest()
	if len(d) != 20 {
		t.Fatalf("digest has %d entries, want 20 (tombstones included)", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i-1].Key >= d[i].Key {
			t.Fatalf("digest unsorted at %d: %q >= %q", i, d[i-1].Key, d[i].Key)
		}
	}
	total := 0
	for i := 0; i < a.Shards(); i++ {
		ds := stripeTreeRun(t, a, i)
		for _, x := range ds {
			if ShardIndex(x.Key, a.Shards()) != i {
				t.Errorf("stripe %d tree holds foreign key %q", i, x.Key)
			}
		}
		total += len(ds)
	}
	if total != 20 {
		t.Errorf("per-stripe trees cover %d keys, want 20", total)
	}
	if _, err := a.StripeTree(a.Shards()); err == nil {
		t.Error("out-of-range StripeTree accepted")
	}
}

// stripeTreeRun returns the digests of stripe idx, read off its tree.
func stripeTreeRun(t *testing.T, r *Replica, idx int) []encoding.Digest {
	t.Helper()
	tree, err := r.StripeTree(idx)
	if err != nil {
		t.Fatal(err)
	}
	return tree.RunRange(TreeRange{})
}

func TestDiffAgainstClassification(t *testing.T) {
	a, b := pairFromClone(8)
	b.Put("key-000", []byte("newer-on-b")) // b dominates
	a.Put("key-001", []byte("newer-on-a")) // a dominates
	a.Put("key-002", []byte("conc-a"))     // concurrent
	b.Put("key-002", []byte("conc-b"))
	b.Put("only-b", []byte("x")) // unknown to a
	a.Put("only-a", []byte("y")) // unknown to b

	diff, err := a.DiffRanges(b.Digest(), 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"key-000": true, "key-002": true, "only-b": true}
	if len(diff.Need) != len(want) {
		t.Fatalf("Need = %v, want keys %v", diff.Need, want)
	}
	for _, k := range diff.Need {
		if !want[k] {
			t.Errorf("unexpected needed key %q", k)
		}
	}
	if diff.Equivalent != 5 {
		t.Errorf("Equivalent = %d, want 5", diff.Equivalent)
	}
	if diff.LocalOnly != 1 {
		t.Errorf("LocalOnly = %d, want 1", diff.LocalOnly)
	}
}

func TestDeltaRoundConvergesDivergedPair(t *testing.T) {
	a, b := pairFromClone(16)
	b.Put("key-000", []byte("newer-on-b"))
	a.Put("key-001", []byte("newer-on-a"))
	a.Put("key-002", []byte("conc-a"))
	b.Put("key-002", []byte("conc-b"))
	b.Put("only-b", []byte("x"))
	a.Put("only-a", []byte("y"))
	a.Delete("key-004")

	res := deltaRound(t, a, b, KeepBoth([]byte("|")))
	if res.Transferred != 2 {
		t.Errorf("Transferred = %d, want 2", res.Transferred)
	}
	if res.Reconciled != 3 { // key-000, key-001, key-004 tombstone
		t.Errorf("Reconciled = %d, want 3", res.Reconciled)
	}
	if res.Merged != 1 {
		t.Errorf("Merged = %d, want 1", res.Merged)
	}
	if res.Pruned != 12 {
		t.Errorf("Pruned = %d, want 12", res.Pruned)
	}
	requireSameContents(t, a, b)
	if _, ok := b.Get("key-004"); ok {
		t.Error("tombstone did not propagate through the delta round")
	}

	// A second round over converged state prunes everything.
	res = deltaRound(t, a, b, KeepBoth([]byte("|")))
	if res.Transferred+res.Reconciled+res.Merged != 0 {
		t.Errorf("converged round moved data: %+v", res)
	}
	if res.Pruned != 18 {
		t.Errorf("converged round pruned %d, want 18", res.Pruned)
	}
}

func TestDeltaConflictSkippedWithoutResolver(t *testing.T) {
	a, b := pairFromClone(4)
	a.Put("key-000", []byte("conc-a"))
	b.Put("key-000", []byte("conc-b"))
	res := deltaRound(t, a, b, nil)
	if len(res.Conflicts) != 1 || res.Conflicts[0] != "key-000" {
		t.Fatalf("Conflicts = %v", res.Conflicts)
	}
	if va, _ := a.Get("key-000"); string(va) != "conc-a" {
		t.Errorf("a's conflicting copy changed: %q", va)
	}
	if vb, _ := b.Get("key-000"); string(vb) != "conc-b" {
		t.Errorf("b's conflicting copy changed: %q", vb)
	}
}

func TestDeltaEquivalentToFullSync(t *testing.T) {
	// The property at the heart of the protocol: a delta round and a full
	// Sync produce identical replica contents from identical starting
	// states, across randomized divergence. Divergence is generated
	// deterministically so the two universes start byte-identical.
	for seed := 0; seed < 8; seed++ {
		buildPair := func() (*Replica, *Replica) {
			a, b := pairFromClone(40)
			rng := seed
			next := func(n int) int { rng = (rng*1103515245 + 12345) & 0x7fffffff; return rng % n }
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("key-%03d", i)
				switch next(6) {
				case 0:
					a.Put(k, []byte(fmt.Sprintf("a%d", next(100))))
				case 1:
					b.Put(k, []byte(fmt.Sprintf("b%d", next(100))))
				case 2:
					a.Put(k, []byte(fmt.Sprintf("a%d", next(100))))
					b.Put(k, []byte(fmt.Sprintf("b%d", next(100))))
				case 3:
					a.Delete(k)
				}
			}
			return a, b
		}
		a1, b1 := buildPair()
		a2, b2 := buildPair()
		if _, err := Sync(a1, b1, KeepBoth([]byte("|"))); err != nil {
			t.Fatalf("seed %d: full sync: %v", seed, err)
		}
		deltaRound(t, a2, b2, KeepBoth([]byte("|")))
		requireSameContents(t, a2, b2)
		requireSameContents(t, a1, a2)
		requireSameContents(t, b1, b2)
	}
}

func TestDeltaShardScoped(t *testing.T) {
	a, b := pairFromClone(32)
	b.Put("key-000", []byte("newer"))
	of := a.Shards()
	var total SyncResult
	for idx := 0; idx < of; idx++ {
		digest := stripeTreeRun(t, b, idx)
		diff, err := a.DiffRanges(digest, idx, of, nil)
		if err != nil {
			t.Fatal(err)
		}
		reply, res, err := a.ApplyDeltaRanges(nil, digest, entriesFor(b, diff.Need), nil, idx, of, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.ApplyDeltaReply(reply, shippedIn(digest), idx, of); err != nil {
			t.Fatal(err)
		}
		total.Add(res)
	}
	if total.Reconciled != 1 || total.Pruned != 31 {
		t.Errorf("scoped rounds: %+v", total)
	}
	requireSameContents(t, a, b)

	// Foreign keys are rejected in every scoped input.
	badDigest := []encoding.Digest{{Key: "key-000", Stamp: core.Seed()}}
	wrong := (ShardIndex("key-000", of) + 1) % of
	if _, err := a.DiffRanges(badDigest, wrong, of, nil); err == nil {
		t.Error("DiffRanges accepted a foreign key")
	}
	if _, _, err := a.ApplyDeltaRanges(nil, badDigest, nil, nil, wrong, of, nil); err == nil {
		t.Error("ApplyDeltaRanges accepted a foreign digest key")
	}
	if _, err := b.ApplyDeltaReply([]encoding.Entry{{Key: "key-000", Stamp: core.Seed()}}, nil, wrong, of); err == nil {
		t.Error("ApplyDeltaReply accepted a foreign key")
	}
}

func TestApplyDeltaReplySkipsMovedCopies(t *testing.T) {
	a, b := pairFromClone(2)
	a.Put("key-000", []byte("newer-on-a"))

	digest := b.Digest()
	diff, err := a.DiffRanges(digest, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, _, err := a.ApplyDeltaRanges(nil, digest, entriesFor(b, diff.Need), nil, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// b's copy moves while the round is in flight.
	b.Put("key-000", []byte("raced"))
	applied, err := b.ApplyDeltaReply(reply, shippedIn(digest), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Errorf("applied %d entries over a moved copy", applied)
	}
	if v, _ := b.Get("key-000"); string(v) != "raced" {
		t.Errorf("concurrent write clobbered: %q", v)
	}
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	a, _ := pairFromClone(24)
	a.Delete("key-007")
	bin, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bin[0] != binarySnapshotVersion {
		t.Fatalf("leading byte 0x%02x", bin[0])
	}
	restored, err := Restore(bin)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	requireSameContents(t, a, restored)
	if restored.Label() != a.Label() || restored.Shards() != a.Shards() {
		t.Errorf("label/shards lost: %q/%d", restored.Label(), restored.Shards())
	}
	if _, ok := restored.Get("key-007"); ok {
		t.Error("tombstone lost in round trip")
	}
	// Stamps survive verbatim.
	for _, k := range a.Keys() {
		va, _ := a.Version(k)
		vr, _ := restored.Version(k)
		if !va.Stamp.Equal(vr.Stamp) {
			t.Errorf("stamp of %q changed", k)
		}
	}

	if _, err := Restore(bin[:len(bin)/2]); err == nil {
		t.Error("truncated snapshot accepted")
	}
}
