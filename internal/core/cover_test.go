package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestCheckCoverAndLeaked(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	frontier := randomNoReduceFrontier(rng, 60)
	if err := CheckCover(frontier); err != nil {
		t.Fatalf("reachable frontier: %v", err)
	}
	if leaked := Leaked(frontier); leaked != 0 {
		t.Fatalf("reachable frontier leaked %g", leaked)
	}
	if err := CheckCover(Seed().ForkN(5)); err != nil {
		t.Fatalf("ForkN frontier: %v", err)
	}
}

// TestLeakedDroppedElement: losing one element loses exactly its id's share
// of the id space, 2^−|s| for a single-string id s, and breaks cover.
func TestLeakedDroppedElement(t *testing.T) {
	frontier := Seed().ForkN(6) // ids 10, 11, 000, 001, 010, 011
	for drop := range frontier {
		rest := append(append([]Stamp(nil), frontier[:drop]...), frontier[drop+1:]...)
		ids := frontier[drop].IDName()
		if ids.Len() != 1 {
			t.Fatalf("element %d has %d id strings", drop, ids.Len())
		}
		s, _ := ids.At(0)
		if got, want := Leaked(rest), math.Ldexp(1, -s.Len()); got != want {
			t.Errorf("dropping %v leaked %g, want %g", frontier[drop], got, want)
		}
		if err := CheckCover(rest); err == nil {
			t.Errorf("dropping %v: cover still holds", frontier[drop])
		}
	}
}

// TestJoinReduceAllocs is the kernel's join/reduce allocation gate: once the
// memo holds a pair, Join and Reduce allocate nothing, on the 5-byte stamps
// of the store workloads and on a ring-sized stamp alike.
func TestJoinReduceAllocs(t *testing.T) {
	ring := Seed()
	for _, s := range randomTrace(rand.New(rand.NewSource(7)), 120) {
		if s.EncodedSize() > ring.EncodedSize() {
			ring = s
		}
	}
	store := Seed().Update()
	if store.EncodedSize() != 5 || ring.EncodedSize() < 20 {
		t.Fatalf("stamp sizes %d and %d, want 5 and ≥ 20", store.EncodedSize(), ring.EncodedSize())
	}
	t.Logf("ring-sized stamp: %v, %d B", ring, ring.EncodedSize())
	for _, s := range []Stamp{store, ring} {
		left, right := s.Fork()
		unreduced, err := JoinNoReduce(left, right)
		if err != nil {
			t.Fatal(err)
		}
		if back, _ := Join(left, right); !back.Equal(s) {
			t.Fatalf("fork/join of %v gave %v", s, back)
		}
		if allocs := testing.AllocsPerRun(200, func() { _, _ = Join(left, right) }); allocs != 0 {
			t.Errorf("Join on a %d B stamp allocates %.1f/op, want 0", s.EncodedSize(), allocs)
		}
		if allocs := testing.AllocsPerRun(200, func() { _ = unreduced.Reduce() }); allocs != 0 {
			t.Errorf("Reduce on a %d B stamp allocates %.1f/op, want 0", s.EncodedSize(), allocs)
		}
	}
}
