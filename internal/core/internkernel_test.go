package core

import (
	"math/rand"
	"sync"
	"testing"
)

// Tests for the interned stamp kernel: the handle fast paths and the
// comparison caches must be invisible — every outcome identical to the
// specification-level comparison over the underlying names — and the hot
// operations must not allocate.

// naiveCompare relates two stamps purely at the name level, bypassing every
// handle fast path and cache: the ground truth the interned kernel must
// reproduce.
func naiveCompare(a, b Stamp) Ordering {
	nu, mu := a.UpdateName(), b.UpdateName()
	ab, ba := nu.Leq(mu), mu.Leq(nu)
	switch {
	case ab && ba:
		return Equal
	case ab:
		return Before
	case ba:
		return After
	default:
		return Concurrent
	}
}

// randomTrace replays a random fork/update/join trace, returning every
// intermediate stamp (not just the final frontier) so comparisons cover
// ancestors and stale copies too.
func randomTrace(rng *rand.Rand, ops int) []Stamp {
	frontier := []Stamp{Seed()}
	all := []Stamp{Seed()}
	for k := 0; k < ops; k++ {
		switch op := rng.Intn(3); {
		case op == 0:
			i := rng.Intn(len(frontier))
			frontier[i] = frontier[i].Update()
			all = append(all, frontier[i])
		case op == 1 || len(frontier) == 1:
			i := rng.Intn(len(frontier))
			a, b := frontier[i].Fork()
			frontier[i] = a
			frontier = append(frontier, b)
			all = append(all, a, b)
		default:
			i, j := rng.Intn(len(frontier)), rng.Intn(len(frontier))
			if i == j {
				continue
			}
			joined, err := Join(frontier[i], frontier[j])
			if err != nil {
				continue
			}
			frontier[i] = joined
			frontier = append(frontier[:j], frontier[j+1:]...)
			all = append(all, joined)
		}
	}
	return all
}

// TestInternedKernelMatchesNaive is the semantics-preservation property:
// across random Compare/Join/Fork traces, the interned kernel (handle fast
// paths, pairwise cache, batch Comparer) agrees with the name-level
// specification on every pair — including repeated queries that exercise
// cache hits.
func TestInternedKernelMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stamps := randomTrace(rng, 60)
		var cmp Comparer
		for pass := 0; pass < 2; pass++ { // second pass hits the caches
			for i := range stamps {
				for j := range stamps {
					want := naiveCompare(stamps[i], stamps[j])
					if got := Compare(stamps[i], stamps[j]); got != want {
						t.Fatalf("seed %d: Compare(%v, %v) = %v, naive %v",
							seed, stamps[i], stamps[j], got, want)
					}
					if got := cmp.Compare(stamps[i], stamps[j]); got != want {
						t.Fatalf("seed %d: Comparer(%v, %v) = %v, naive %v",
							seed, stamps[i], stamps[j], got, want)
					}
				}
			}
		}
	}
}

// TestForkJoinHandleIdentity: fork-then-join must restore the exact original
// stamp, and with interning that means the very same handles.
func TestForkJoinHandleIdentity(t *testing.T) {
	s := Seed().Update()
	a, b := s.Fork()
	back, err := Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if back.UpdateHandle() != s.UpdateHandle() || back.IDHandle() != s.IDHandle() {
		t.Errorf("fork/join did not restore the interned handles: %v vs %v", back, s)
	}
	// Update shares the id handle into the update slot.
	u := s.Update()
	if u.UpdateHandle() != s.IDHandle() {
		t.Error("Update did not share the id handle")
	}
}

// TestCompareAllocationFree pins Compare on interned stamps to zero
// allocations; this test is the kernel's allocation gate. Covered shapes:
// identical handles (converged), cached divergent pairs, and uncached deep
// walks.
func TestCompareAllocationFree(t *testing.T) {
	s := Seed().Update()
	a, b := s.Fork()
	a = a.Update()
	c, d := a.Fork()
	c, d = c.Update(), d.Update() // concurrent pair

	pairs := [][2]Stamp{
		{b, b}, // identical handles
		{a, b}, // divergent, cache-resident after warm-up
		{c, d}, // concurrent
	}
	for _, p := range pairs {
		Compare(p[0], p[1]) // warm the pairwise cache
		if allocs := testing.AllocsPerRun(500, func() { _ = Compare(p[0], p[1]) }); allocs != 0 {
			t.Errorf("Compare(%v, %v) allocates %.1f/op, want 0", p[0], p[1], allocs)
		}
	}
	if allocs := testing.AllocsPerRun(500, func() { _ = b.Equal(b) }); allocs != 0 {
		t.Errorf("Equal allocates %.1f/op, want 0", allocs)
	}
}

// TestCompareCacheConcurrent hammers Compare over a shared working set from
// many goroutines; under -race this proves the direct-mapped atomic cache is
// sound, and the final sweep proves no stale entry ever surfaces a wrong
// outcome.
func TestCompareCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	stamps := randomTrace(rng, 80)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for n := 0; n < 5000; n++ {
				i, j := r.Intn(len(stamps)), r.Intn(len(stamps))
				if got, want := Compare(stamps[i], stamps[j]), naiveCompare(stamps[i], stamps[j]); got != want {
					t.Errorf("concurrent Compare(%v, %v) = %v, want %v",
						stamps[i], stamps[j], got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
