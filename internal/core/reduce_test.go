package core

import (
	"fmt"
	"math/rand"
	"testing"

	"versionstamp/internal/bitstr"
	"versionstamp/internal/name"
	"versionstamp/internal/trie"
)

func TestReduceExamples(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"[ε|ε]", "[ε|ε]"},
		{"[1|01+1]", "[1|01+1]"},             // no sibling pair: unchanged
		{"[1|00+01+1]", "[ε|ε]"},             // 00,01 -> 0; then 0,1 -> ε (1 ∈ u)
		{"[1|0+1]", "[ε|ε]"},                 // 0,1 -> ε with 1 ∈ u
		{"[ε|00+01]", "[ε|0]"},               // children absent from u
		{"[00+01|00+01]", "[0|0]"},           // children present in u
		{"[00|00+01]", "[0|0]"},              // only one child present in u
		{"[00+010+011|00+010+011]", "[0|0]"}, // cascading collapses
		// 000,001 -> 00; 00,01 -> 0; 10,11 -> 1; 0,1 -> ε.
		{"[ε|000+001+01+10+11]", "[ε|ε]"},
	}
	for _, tt := range tests {
		s := MustParse(tt.in)
		got := s.Reduce()
		if want := MustParse(tt.want); !got.Equal(want) {
			t.Errorf("Reduce(%v) = %v, want %v", s, got, want)
		}
	}
}

func TestReduceIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for i := 0; i < 200; i++ {
		s := randomUnreducedStamp(rng)
		r := s.Reduce()
		if !r.Reduce().Equal(r) {
			t.Fatalf("Reduce not idempotent on %v: %v -> %v", s, r, r.Reduce())
		}
		if !r.IsReduced() {
			t.Fatalf("Reduce(%v) = %v is not in normal form", s, r)
		}
	}
}

func TestReduceShrinks(t *testing.T) {
	// Each rewriting yields u' ⊑ u and i' ⊑ i (Section 6).
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 200; i++ {
		s := randomUnreducedStamp(rng)
		r := s.Reduce()
		if !r.UpdateName().Leq(s.UpdateName()) {
			t.Fatalf("u' ⋢ u for %v -> %v", s, r)
		}
		if !r.IDName().Leq(s.IDName()) {
			t.Fatalf("i' ⋢ i for %v -> %v", s, r)
		}
		if err := CheckI1(r); err != nil {
			t.Fatalf("reduced stamp violates I1: %v", err)
		}
	}
}

func TestReduceConfluent(t *testing.T) {
	// Applying rewritings in any order reaches the same normal form. We
	// exercise this by collapsing pairs in random order and comparing with
	// Reduce's deterministic order.
	rng := rand.New(rand.NewSource(32))
	for iter := 0; iter < 300; iter++ {
		s := randomUnreducedStamp(rng)
		want := s.Reduce()
		u, i := s.UpdateName(), s.IDName()
		for {
			pairs := allSiblingPairs(i)
			if len(pairs) == 0 {
				break
			}
			pick := pairs[rng.Intn(len(pairs))]
			u, i = rewriteOnce(u, i, pick)
		}
		got := Stamp{u: trie.Intern(u), i: trie.Intern(i)}
		if !got.Equal(want) {
			t.Fatalf("confluence violated on %v: random order %v, Reduce %v", s, got, want)
		}
	}
}

// IsReduced reports whether no rewriting applies to s (s is in normal form),
// by the name-level sibling search.
func (s Stamp) IsReduced() bool {
	_, ok := s.IDName().SiblingPair()
	return !ok
}

// rewriteOnce applies a single rewriting step at the given parent string s,
// whose children s·0 and s·1 must both be present in id: the one-step
// oracle Reduce's bottom-up pass is checked against.
func rewriteOnce(u, id name.Name, s bitstr.Bits) (name.Name, name.Name) {
	newID, ok := id.CollapseSiblings(s)
	if !ok {
		// Caller guarantees the pair exists; treat a miss as a no-op so the
		// function stays total.
		return u, id
	}
	c0, c1 := s.Append0(), s.Append1()
	if !u.Contains(c0) && !u.Contains(c1) {
		return u, newID
	}
	newU := u
	if removed, ok := newU.Remove(c0); ok {
		newU = removed
	}
	if removed, ok := newU.Remove(c1); ok {
		newU = removed
	}
	added, ok := newU.Add(s)
	if !ok {
		// Unreachable for stamps satisfying I1 (the paper proves u' is an
		// antichain); fall back to the down-set-preserving construction so
		// corrupted inputs still yield a well-formed name.
		added = name.MaxOf(append(newU.Bits(), s)...)
	}
	return added, newID
}

// rewriteFixpoint applies rewriteOnce at the least sibling pair until none
// is left.
func rewriteFixpoint(u, i name.Name) (name.Name, name.Name) {
	for {
		parent, ok := i.SiblingPair()
		if !ok {
			return u, i
		}
		u, i = rewriteOnce(u, i, parent)
	}
}

// allSiblingPairs lists every parent whose two children are members of n.
func allSiblingPairs(n name.Name) []bitstr.Bits {
	var out []bitstr.Bits
	for _, b := range n.Bits() {
		parent, last, ok := b.Parent()
		if !ok || last != bitstr.Zero {
			continue
		}
		if n.Contains(parent.Append1()) {
			out = append(out, parent)
		}
	}
	return out
}

// TestReducePreservesR mechanically re-checks the Section 6 theorem: a
// rewriting applied to one stamp of a configuration preserves the relation
//
//	R(V) = {(x, S) | fst(V(x)) ⊑ ⊔ fst[V[S]]}
//
// for every element x and subset S. We generate random non-reducing
// configurations, reduce one element, and compare R before and after.
func TestReducePreservesR(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		frontier := randomNoReduceFrontier(rng, 50)
		if len(frontier) < 2 {
			continue
		}
		idx := rng.Intn(len(frontier))
		if frontier[idx].IsReduced() {
			continue
		}
		before := relationR(frontier)
		reduced := make([]Stamp, len(frontier))
		copy(reduced, frontier)
		reduced[idx] = reduced[idx].Reduce()
		after := relationR(reduced)
		if len(before) != len(after) {
			t.Fatalf("seed %d: R changed size after reduction: %d -> %d",
				seed, len(before), len(after))
		}
		for k := range before {
			if !after[k] {
				t.Fatalf("seed %d: R lost pair %s after reduction", seed, k)
			}
		}
	}
}

// relationR enumerates R(V) over all x and all non-empty S (subsets encoded
// as bitmasks; frontier sizes stay small enough for exhaustive enumeration).
func relationR(frontier []Stamp) map[string]bool {
	out := make(map[string]bool)
	n := len(frontier)
	if n > 12 {
		n = 12 // cap exhaustive subset enumeration
	}
	for x := 0; x < n; x++ {
		for mask := 1; mask < (1 << n); mask++ {
			joined := name.Empty()
			for y := 0; y < n; y++ {
				if mask&(1<<y) != 0 {
					joined = name.Join(joined, frontier[y].UpdateName())
				}
			}
			if frontier[x].UpdateName().Leq(joined) {
				out[keyXS(x, mask)] = true
			}
		}
	}
	return out
}

func keyXS(x, mask int) string {
	return fmt.Sprintf("%d:%d", x, mask)
}

// randomUnreducedStamp builds a stamp by running a short random trace with
// non-reducing joins, biasing toward join-heavy endings so sibling pairs are
// common.
func randomUnreducedStamp(rng *rand.Rand) Stamp {
	frontier := randomNoReduceFrontier(rng, 30)
	return frontier[rng.Intn(len(frontier))]
}

func randomNoReduceFrontier(rng *rand.Rand, ops int) []Stamp {
	frontier := []Stamp{Seed()}
	for k := 0; k < ops; k++ {
		switch op := rng.Intn(4); {
		case op == 0:
			i := rng.Intn(len(frontier))
			frontier[i] = frontier[i].Update()
		case op == 1 || len(frontier) == 1:
			i := rng.Intn(len(frontier))
			a, b := frontier[i].Fork()
			frontier[i] = a
			frontier = append(frontier, b)
		default:
			i, j := rng.Intn(len(frontier)), rng.Intn(len(frontier))
			if i == j {
				continue
			}
			joined, err := JoinNoReduce(frontier[i], frontier[j])
			if err != nil {
				continue
			}
			frontier[i] = joined
			frontier = append(frontier[:j], frontier[j+1:]...)
		}
	}
	return frontier
}
