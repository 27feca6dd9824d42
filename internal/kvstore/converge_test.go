package kvstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"versionstamp/internal/core"
)

// unionResolve merges two copies as sets of bytes: the value is the sorted
// union of both values' bytes, and the key stays deleted only when both
// copies are tombstones. It is commutative, associative and idempotent, so
// every order of pairwise resolutions reaches the same value.
func unionResolve(_ string, a, b Versioned) ([]byte, bool, error) {
	u := append(append([]byte(nil), a.Value...), b.Value...)
	slices.Sort(u)
	return slices.Compact(u), a.Deleted && b.Deleted, nil
}

// chainWrite is the pairwise oracle ConvergeKey replaced: the write at
// rs[0], then one two-replica SyncKey per other owner in turn, then one
// fork-and-detach of the coordinator's copy per hint. One pass of the chain
// can leave an owner it visited before the coordinator lost to a later one
// holding an obsolete copy; passes repeat until every owner's copy is Equal
// (the state one ConvergeKey reaches), at most three times. Copies created
// independently, or concurrent ones under a nil resolver, may never converge
// pairwise; the caller checks.
func chainWrite(t *testing.T, rs []*Replica, hints int, key string, w KeyWrite, resolve Resolver) []Versioned {
	t.Helper()
	if w.Delete {
		rs[0].Delete(key)
	} else {
		rs[0].Put(key, w.Value)
	}
	for pass := 0; pass < 3 && (pass == 0 || !converged(rs, key)); pass++ {
		for _, o := range rs[1:] {
			if _, err := SyncKey(rs[0], o, key, resolve); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := make([]Versioned, hints)
	for i := range out {
		v, ok := rs[0].Version(key)
		if !ok {
			continue
		}
		mine, theirs := v.Stamp.Fork()
		rs[0].PutVersion(key, Versioned{Value: v.Value, Deleted: v.Deleted, Stamp: mine})
		out[i] = Versioned{Value: bytes.Clone(v.Value), Deleted: v.Deleted, Stamp: theirs}
	}
	return out
}

// converged reports whether every replica holds key under Equal stamps, or
// none holds it.
func converged(rs []*Replica, key string) bool {
	v0, ok0 := rs[0].Meta(key)
	for _, r := range rs[1:] {
		v, ok := r.Meta(key)
		if ok != ok0 || ok && core.Compare(v.Stamp, v0.Stamp) != core.Equal {
			return false
		}
	}
	return true
}

// owner states the differential test draws for each non-coordinator owner.
const (
	ownerAbsent = iota
	ownerTombstoned
	ownerDominated
	ownerConcurrent
	ownerIndependent
	ownerStates
)

var ownerStateNames = [ownerStates]string{"absent", "tombstoned", "dominated", "concurrent", "independent"}

// convergeCase is one randomly drawn quorum write: the coordinator's and
// owners' states, the write and the number of hint slots.
type convergeCase struct {
	seed        int64
	coordAbsent bool
	owners      []int
	hints       int
	write       KeyWrite
}

func (c convergeCase) String() string {
	names := make([]string, len(c.owners))
	for i, s := range c.owners {
		names[i] = ownerStateNames[s]
	}
	return fmt.Sprintf("seed %d: coordinator absent %v, owners %v, %d hints, write %+v",
		c.seed, c.coordAbsent, names, c.hints, c.write)
}

// independent reports whether some copy of the case shares no seed with
// the others: an independent owner, or a write at an absent coordinator.
// Such copies' ids overlap, so the id space they cover is not comparable.
func (c convergeCase) independent() bool {
	return slices.Contains(c.owners, ownerIndependent) || c.coordAbsent && !c.write.Delete
}

// randomSet is a sorted set of one to three bytes from a small alphabet, so
// unionResolve's results stay canonical.
func randomSet(rng *rand.Rand) []byte {
	v := make([]byte, 1+rng.Intn(3))
	for i := range v {
		v[i] = byte('a' + rng.Intn(6))
	}
	slices.Sort(v)
	return slices.Compact(v)
}

// drawConvergeCase draws the case for seed.
func drawConvergeCase(seed int64) convergeCase {
	rng := rand.New(rand.NewSource(seed))
	c := convergeCase{seed: seed, coordAbsent: rng.Intn(6) == 0, hints: rng.Intn(3)}
	c.owners = []int{rng.Intn(ownerStates), rng.Intn(ownerStates)}
	if rng.Intn(3) == 0 {
		c.write.Delete = true
	} else {
		c.write.Value = randomSet(rng)
	}
	return c
}

// build materializes the case's replicas from its seed: rs[0] coordinates.
// The owners' copies descend from the coordinator's by Clone, except absent
// and independent ones; calling build twice gives equal states.
func (c convergeCase) build() []*Replica {
	rng := rand.New(rand.NewSource(c.seed))
	anc := NewReplica("coord")
	anc.Put("k", randomSet(rng))
	if rng.Intn(4) == 0 {
		anc.Delete("k")
	}
	rs := []*Replica{anc}
	for i, s := range c.owners {
		var o *Replica
		switch s {
		case ownerAbsent:
			o = NewReplica(fmt.Sprint("o", i))
		case ownerIndependent:
			o = NewReplica(fmt.Sprint("o", i))
			o.Put("k", randomSet(rng))
		default:
			o = anc.Clone(fmt.Sprint("o", i))
			switch s {
			case ownerTombstoned:
				o.Delete("k")
			case ownerConcurrent:
				o.Put("k", randomSet(rng))
			}
		}
		rs = append(rs, o)
	}
	// The coordinator moves past the forks it gave away, so a cloned owner
	// it did not hear from is strictly behind it.
	if rng.Intn(2) == 0 {
		anc.Put("k", randomSet(rng))
	}
	if c.coordAbsent {
		rs[0] = NewReplica("coord")
	}
	return rs
}

// copiesOf returns every present copy of "k" over the owners and hints.
func copiesOf(rs []*Replica, hints []Versioned) []Versioned {
	var out []Versioned
	for _, r := range rs {
		if v, ok := r.Version("k"); ok {
			out = append(out, v)
		}
	}
	for _, h := range hints {
		if !h.Stamp.IsZero() {
			out = append(out, h)
		}
	}
	return out
}

func stampsOf(vs []Versioned) []core.Stamp {
	out := make([]core.Stamp, len(vs))
	for i, v := range vs {
		out[i] = v.Stamp
	}
	return out
}

// checkConserved fails unless after, the owners' and filled hint slots'
// copies once a quorum write returns, has lost exactly the share of the id
// space the owners' copies had lost before it (before): the write joins the
// copies it converges and forks the result to the owners and hint slots, so
// no id is abandoned and none is made up.
func checkConserved(t *testing.T, c convergeCase, before float64, after []Versioned) {
	t.Helper()
	if l := core.Leaked(stampsOf(after)); math.Abs(l-before) > 1e-12 {
		t.Fatalf("%v: the owners and hints have lost %g of the id space, the owners %g before the write", c, l, before)
	}
}

// TestConvergeKeyMatchesPairwiseChain runs random quorum writes (R = 3
// owners plus up to two hint slots) through ConvergeKey and through the
// pairwise chain it replaced, on equal starting states. The one call must
// leave every owner and hint with one value under Equal stamps that satisfy
// the frontier invariants. Where every copy descends from one seed (no
// independent copy), the chain must converge too, and the one call must
// reach the chain's value and lose no more of the id space than the chain
// does to converge the same copies.
func TestConvergeKeyMatchesPairwiseChain(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	seen := map[int]bool{}
	for seed := int64(1); seed <= int64(trials); seed++ {
		c := drawConvergeCase(seed)
		for _, s := range c.owners {
			seen[s] = true
		}
		indep := c.independent()

		chain := c.build()
		chainHints := chainWrite(t, chain, c.hints, "k", c.write, unionResolve)

		rs := c.build()
		before := core.Leaked(stampsOf(copiesOf(rs, nil)))
		slots := make([]Versioned, c.hints)
		w := c.write
		if _, err := ConvergeKey(rs, "k", &w, slots, unionResolve); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if !indep {
			checkConserved(t, c, before, copiesOf(rs, slots))
		}

		got := copiesOf(rs, slots)
		if len(got) == 0 {
			continue
		}
		if len(got) != len(rs)+c.hints {
			t.Fatalf("%v: %d of %d owners and hints hold the key", c, len(got), len(rs)+c.hints)
		}
		for _, v := range got[1:] {
			if v.Deleted != got[0].Deleted || !bytes.Equal(v.Value, got[0].Value) {
				t.Fatalf("%v: copies disagree: %q/%v vs %q/%v", c, v.Value, v.Deleted, got[0].Value, got[0].Deleted)
			}
		}
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				if rel := core.Compare(got[i].Stamp, got[j].Stamp); rel != core.Equal {
					t.Fatalf("%v: copies %d and %d compare %v", c, i, j, rel)
				}
			}
		}
		stamps := stampsOf(got)
		if err := core.CheckFrontier(stamps); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if indep {
			continue
		}
		if !converged(chain, "k") {
			t.Fatalf("%v: the pairwise chain did not converge", c)
		}
		if l, lc := core.Leaked(stamps), core.Leaked(stampsOf(copiesOf(chain, chainHints))); l > lc+1e-12 {
			t.Fatalf("%v: leaked %g of the id space, the chain %g", c, l, lc)
		}
		cv, _ := chain[0].Version("k")
		if cv.Deleted != got[0].Deleted || !bytes.Equal(cv.Value, got[0].Value) {
			t.Fatalf("%v: converged to %q/%v, the chain to %q/%v",
				c, got[0].Value, got[0].Deleted, cv.Value, cv.Deleted)
		}
	}
	if len(seen) != ownerStates {
		t.Fatalf("drew owner states %v, want all %d", seen, ownerStates)
	}
}

// TestConvergeKeyMatchesPairwiseChainNilResolver runs the random quorum
// writes of TestConvergeKeyMatchesPairwiseChain with no resolver, so
// concurrent owners stand as conflicts. Where every copy descends from one
// seed, the one call must reach what the pairwise chain reaches: every
// owner and hint holds the chain's value, deleted flag and presence, and a
// copy's stamp is Equal to the coordinator's exactly where the chain's is.
// Its copies must satisfy the frontier invariants and lose no more of the
// id space than the chain's. Independent copies are left out: their ids
// overlap, and the chain can order two of them by the stamps' events alone
// once a fork has made their ids disjoint.
func TestConvergeKeyMatchesPairwiseChainNilResolver(t *testing.T) {
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	conflicts := 0
	for seed := int64(1); seed <= int64(trials); seed++ {
		c := drawConvergeCase(seed)
		chain := c.build()
		chainHints := chainWrite(t, chain, c.hints, "k", c.write, nil)

		rs := c.build()
		before := core.Leaked(stampsOf(copiesOf(rs, nil)))
		slots := make([]Versioned, c.hints)
		w := c.write
		res, err := ConvergeKey(rs, "k", &w, slots, nil)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		conflicts += len(res.Conflicts)
		if c.independent() {
			continue
		}
		checkConserved(t, c, before, copiesOf(rs, slots))

		v0, _ := rs[0].Version("k")
		cv0, _ := chain[0].Version("k")
		check := func(what string, v, cv Versioned, ok, cok bool) {
			t.Helper()
			if ok != cok {
				t.Fatalf("%v: %s present %v, in the chain %v", c, what, ok, cok)
			}
			if !ok {
				return
			}
			if v.Deleted != cv.Deleted || !bytes.Equal(v.Value, cv.Value) {
				t.Fatalf("%v: %s holds %q/%v, in the chain %q/%v", c, what, v.Value, v.Deleted, cv.Value, cv.Deleted)
			}
			eq := core.Compare(v.Stamp, v0.Stamp) == core.Equal
			ceq := core.Compare(cv.Stamp, cv0.Stamp) == core.Equal
			if eq != ceq {
				t.Fatalf("%v: %s Equal to the coordinator %v, in the chain %v", c, what, eq, ceq)
			}
		}
		for i := range rs {
			v, ok := rs[i].Version("k")
			cv, cok := chain[i].Version("k")
			check(fmt.Sprint("owner ", i), v, cv, ok, cok)
		}
		for i := range slots {
			check(fmt.Sprint("hint ", i), slots[i], chainHints[i], !slots[i].Stamp.IsZero(), !chainHints[i].Stamp.IsZero())
		}
		got := copiesOf(rs, slots)
		if len(got) == 0 {
			continue
		}
		if c.independent() {
			continue
		}
		stamps := stampsOf(got)
		if err := core.CheckFrontier(stamps); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if l, lc := core.Leaked(stamps), core.Leaked(stampsOf(copiesOf(chain, chainHints))); l > lc+1e-12 {
			t.Fatalf("%v: leaked %g of the id space, the chain %g", c, l, lc)
		}
	}
	if conflicts == 0 {
		t.Fatal("no case left a conflict standing")
	}
}

// TestConvergeKeyConflictConvergesOrdered: a write under a nil resolver
// where one owner's copy is dominated and another's is concurrent. The
// dominated owner and the hint slot receive the write, the concurrent owner
// keeps its copy, and the key is reported as a conflict.
func TestConvergeKeyConflictConvergesOrdered(t *testing.T) {
	a := NewReplica("a")
	a.Put("k", []byte("base"))
	stale := a.Clone("stale")
	conc := a.Clone("conc")
	conc.Put("k", []byte("at-conc"))
	w := KeyWrite{Value: []byte("at-a")}
	slots := make([]Versioned, 1)
	res, err := ConvergeKey([]*Replica{a, stale, conc}, "k", &w, slots, nil)
	if err != nil || len(res.Conflicts) != 1 {
		t.Fatalf("ConvergeKey = %+v, %v; want one conflict", res, err)
	}
	av, _ := a.Version("k")
	sv, _ := stale.Version("k")
	cv, _ := conc.Version("k")
	if string(av.Value) != "at-a" || string(cv.Value) != "at-conc" {
		t.Fatalf("a = %q, conc = %q; want the write and conc's own copy", av.Value, cv.Value)
	}
	for what, v := range map[string]Versioned{"stale owner": sv, "hint slot": slots[0]} {
		if string(v.Value) != "at-a" || core.Compare(v.Stamp, av.Stamp) != core.Equal {
			t.Errorf("%s holds %q %v, want the write under a stamp Equal to %v", what, v.Value, v.Stamp, av.Stamp)
		}
	}
	if rel := core.Compare(cv.Stamp, av.Stamp); rel != core.Concurrent {
		t.Errorf("conc compares %v to a, want Concurrent", rel)
	}
	if err := core.CheckFrontier([]core.Stamp{av.Stamp, sv.Stamp, cv.Stamp, slots[0].Stamp}); err != nil {
		t.Error(err)
	}
}

// TestConvergeKeySettledCopiesSitOut: copies Equal to the greatest copy
// keep their stamps untouched while the greatest one forks for a hint slot
// and a replica lacking the key; joining the Equal copies first would
// fragment their ids.
func TestConvergeKeySettledCopiesSitOut(t *testing.T) {
	a := NewReplica("a")
	a.Put("k", []byte("v"))
	b := a.Clone("b")
	c := NewReplica("c")
	before, _ := b.Version("k")
	slots := make([]Versioned, 1)
	res, err := ConvergeKey([]*Replica{a, b, c}, "k", nil, slots, nil)
	if err != nil || res.Transferred != 1 {
		t.Fatalf("ConvergeKey = %+v, %v", res, err)
	}
	if after, _ := b.Version("k"); after.Stamp.String() != before.Stamp.String() {
		t.Errorf("b's settled copy changed: %v -> %v", before.Stamp, after.Stamp)
	}
	av, _ := a.Version("k")
	cv, _ := c.Version("k")
	stamps := []core.Stamp{av.Stamp, before.Stamp, cv.Stamp, slots[0].Stamp}
	for i, s := range stamps {
		if rel := core.Compare(s, before.Stamp); rel != core.Equal {
			t.Errorf("copy %d compares %v to b's", i, rel)
		}
	}
	if err := core.CheckFrontier(stamps); err != nil {
		t.Error(err)
	}
	if err := core.CheckCover(stamps); err != nil {
		t.Error(err)
	}
}

func TestConvergeKeyRejects(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	if _, err := ConvergeKey(nil, "k", nil, nil, nil); err == nil {
		t.Error("a converge over no replica should fail")
	}
	if _, err := ConvergeKey([]*Replica{a, b, a}, "k", nil, nil, nil); err == nil {
		t.Error("a converge naming a replica twice should fail")
	}
}

// TestConvergeKeyConflictKeepsWrite: a write whose converge reports a
// conflict (nil resolver) with nothing ordered against it to converge
// changes no other copy, and stands at the coordinator, logged, exactly as
// a Put would.
func TestConvergeKeyConflictKeepsWrite(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, Options{Label: "a"})
	if err != nil {
		t.Fatal(err)
	}
	a.Put("k", []byte("base"))
	b := a.Clone("b")
	b.Put("k", []byte("at-b"))
	w := KeyWrite{Value: []byte("at-a")}
	res, err := ConvergeKey([]*Replica{a, b}, "k", &w, nil, nil)
	if err != nil || len(res.Conflicts) != 1 {
		t.Fatalf("ConvergeKey = %+v, %v; want one conflict", res, err)
	}
	if v, _ := b.Get("k"); string(v) != "at-b" {
		t.Errorf("b = %q, want its own copy", v)
	}
	want, _ := a.Version("k")
	if string(want.Value) != "at-a" {
		t.Fatalf("a = %q, want the write", want.Value)
	}
	if err := a.Abandon(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, ok := reopened.Version("k")
	if !ok || string(got.Value) != "at-a" || core.Compare(got.Stamp, want.Stamp) != core.Equal {
		t.Fatalf("after a crash a holds %q %v (ok %v), want the logged write %v", got.Value, got.Stamp, ok, want.Stamp)
	}
}

// TestConvergeKeyConcurrentOrders: writers converge one key set over the
// same three replicas, each naming them in a different order; the stripe
// locks are taken in one global order, so none deadlocks, and a last
// converge leaves every copy Equal.
func TestConvergeKeyConcurrentOrders(t *testing.T) {
	r := [3]*Replica{NewReplica("a"), NewReplica("b"), NewReplica("c")}
	orders := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var wg sync.WaitGroup
	for g, o := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := []*Replica{r[o[0]], r[o[1]], r[o[2]]}
			for n := 0; n < 100; n++ {
				w := KeyWrite{Value: []byte{byte(g), byte(n)}, Delete: n%7 == 6}
				if _, err := ConvergeKey(rs, fmt.Sprint("k", n%4), &w, nil, unionResolve); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for n := 0; n < 4; n++ {
		key := fmt.Sprint("k", n)
		if _, err := ConvergeKey(r[:], key, nil, nil, unionResolve); err != nil {
			t.Fatal(err)
		}
		if !converged(r[:], key) {
			t.Errorf("%s did not converge", key)
		}
	}
}
