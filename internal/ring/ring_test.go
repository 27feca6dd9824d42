package ring

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func ids(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%d", i)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name                 string
		nodes                []string
		stripes, replication int
	}{
		{"no nodes", nil, 8, 2},
		{"zero stripes", ids(3), 0, 2},
		{"zero replication", ids(3), 8, 0},
		{"duplicate id", []string{"a", "b", "a"}, 8, 2},
		{"empty id", []string{"a", ""}, 8, 2},
	}
	for _, tc := range cases {
		if _, err := New(tc.nodes, tc.stripes, tc.replication); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestOwnersDistinctAndComplete(t *testing.T) {
	r, err := New(ids(9), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replication() != 3 {
		t.Fatalf("replication = %d", r.Replication())
	}
	for s := 0; s < 64; s++ {
		owners, err := r.Owners(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(owners) != 3 {
			t.Fatalf("stripe %d has %d owners", s, len(owners))
		}
		seen := map[string]bool{}
		for _, id := range owners {
			if seen[id] {
				t.Fatalf("stripe %d repeats owner %s", s, id)
			}
			seen[id] = true
			if !r.Owns(id, s) {
				t.Fatalf("Owns(%s,%d) = false for listed owner", id, s)
			}
		}
	}
	// StripesOwnedBy inverts Owners exactly.
	total := 0
	for _, id := range ids(9) {
		owned := r.StripesOwnedBy(id)
		if !sort.IntsAreSorted(owned) {
			t.Fatalf("StripesOwnedBy(%s) not sorted", id)
		}
		for _, s := range owned {
			if !r.Owns(id, s) {
				t.Fatalf("inverse mapping wrong for %s stripe %d", id, s)
			}
		}
		total += len(owned)
	}
	if total != 64*3 {
		t.Fatalf("ownership entries = %d, want %d", total, 64*3)
	}
}

func TestReplicationClampedToNodes(t *testing.T) {
	r, err := New(ids(2), 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Replication() != 2 {
		t.Fatalf("effective replication = %d, want 2", r.Replication())
	}
	for s := 0; s < 16; s++ {
		owners, _ := r.Owners(s)
		if len(owners) != 2 {
			t.Fatalf("stripe %d has %d owners", s, len(owners))
		}
	}
}

func TestDeterministicAcrossInputOrder(t *testing.T) {
	nodes := ids(12)
	shuffled := append([]string(nil), nodes...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, err := New(nodes, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(shuffled, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 32; s++ {
		oa, _ := a.Owners(s)
		ob, _ := b.Owners(s)
		if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("stripe %d: owners differ by input order: %v vs %v", s, oa, ob)
		}
	}
}

// Removing one node must leave the owner list of every stripe that node did
// not own exactly unchanged: the departed node's virtual points are the only
// points removed, so walks that never passed them are untouched.
func TestRemovalOnlyRemapsOwnedStripes(t *testing.T) {
	nodes := ids(10)
	before, err := New(nodes, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	gone := "node-4"
	var rest []string
	for _, id := range nodes {
		if id != gone {
			rest = append(rest, id)
		}
	}
	after, err := New(rest, 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for s := 0; s < 128; s++ {
		oa, _ := before.Owners(s)
		ob, _ := after.Owners(s)
		if before.Owns(gone, s) {
			changed++
			// The surviving owners keep their positions; one new owner joins.
			var kept []string
			for _, id := range oa {
				if id != gone {
					kept = append(kept, id)
				}
			}
			for _, id := range kept {
				if !after.Owns(id, s) {
					t.Fatalf("stripe %d: surviving owner %s lost ownership", s, id)
				}
			}
			if len(ob) != 3 {
				t.Fatalf("stripe %d: %d owners after removal", s, len(ob))
			}
		} else if !reflect.DeepEqual(oa, ob) {
			t.Fatalf("stripe %d not owned by %s changed owners: %v vs %v", s, gone, oa, ob)
		}
	}
	if changed == 0 {
		t.Fatal("expected the departed node to have owned some stripes")
	}
}

// Adding one node changes at most one owner per stripe (the walk either
// skips the new node's points or inserts it, pushing the last owner out).
func TestAdditionShiftsAtMostOneOwnerPerStripe(t *testing.T) {
	before, err := New(ids(9), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	after, err := New(append(ids(9), "node-9"), 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	gained := 0
	for s := 0; s < 64; s++ {
		oa, _ := before.Owners(s)
		ob, _ := after.Owners(s)
		lost := 0
		for _, id := range oa {
			if !after.Owns(id, s) {
				lost++
			}
		}
		if lost > 1 {
			t.Fatalf("stripe %d lost %d owners on a single addition", s, lost)
		}
		if after.Owns("node-9", s) {
			gained++
		}
		if len(ob) != 3 {
			t.Fatalf("stripe %d: %d owners", s, len(ob))
		}
	}
	if gained == 0 {
		t.Fatal("new node owns nothing; expected it to take over some stripes")
	}
}

func TestLoadSpread(t *testing.T) {
	r, err := New(ids(16), 256, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect balance would be 256*3/16 = 48 stripes per node; virtual
	// points should keep every node within a factor of 2 of that.
	for _, id := range ids(16) {
		owned := len(r.StripesOwnedBy(id))
		if owned < 48/2 || owned > 48*2 {
			t.Fatalf("%s owns %d stripes; want within [24, 96]", id, owned)
		}
	}
}

func TestOwnersRangeErrors(t *testing.T) {
	r, err := New(ids(3), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Owners(-1); err == nil {
		t.Fatal("Owners(-1) should error")
	}
	if _, err := r.Owners(8); err == nil {
		t.Fatal("Owners(8) should error")
	}
	if r.Owns("node-0", -1) || r.Owns("node-0", 8) {
		t.Fatal("Owns out of range should be false")
	}
}

// TestOwnersIsAReadOnlyView: Owners allocates nothing, and appending to the
// slice it returns — then writing the appended copy — leaves the ring's
// table unchanged.
func TestOwnersIsAReadOnlyView(t *testing.T) {
	r, err := New(ids(5), 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]string, r.Stripes())
	for s := range want {
		o, _ := r.Owners(s)
		want[s] = append([]string(nil), o...)
	}
	for s := range want {
		o, _ := r.Owners(s)
		grown := append(o, "intruder")
		grown[0] = "overwritten"
	}
	for s := range want {
		if got, _ := r.Owners(s); !reflect.DeepEqual(got, want[s]) {
			t.Fatalf("stripe %d owners %v after an append to the view, want %v", s, got, want[s])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = r.Owners(7) }); allocs != 0 {
		t.Errorf("Owners allocates %.1f/op, want 0", allocs)
	}
}
