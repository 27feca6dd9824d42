package core

import (
	"fmt"
	"math"

	"versionstamp/internal/trie"
)

// This file implements checkers for the three invariants that characterize
// reachable configurations of version stamps (paper Section 4), plus the
// conservation of the id space. They are exported because the simulator
// (internal/sim) re-verifies them after every operation of every randomized
// trace, turning the paper's inductive proofs into executable checks. The
// checks recurse over the component tries and allocate nothing unless they
// fail.

// CheckI1 verifies Invariant I1 on a single stamp: u ⊑ i. The update
// component is always dominated by the id; this guarantees that no obsolete
// information lingers in u when id simplifications become possible.
func CheckI1(s Stamp) error {
	if !s.u.Leq(s.i) {
		return fmt.Errorf("core: I1 violated: u = %v ⋢ i = %v", s.u, s.i)
	}
	return nil
}

// CheckI2 verifies Invariant I2 on a frontier: for any two distinct elements
// x and y, every string in ix is incomparable to every string in iy. Ids
// therefore denote non-intersecting parts of "the whole".
func CheckI2(frontier []Stamp) error {
	for x := 0; x < len(frontier); x++ {
		for y := x + 1; y < len(frontier); y++ {
			if !frontier[x].i.IncomparableTo(frontier[y].i) {
				return fmt.Errorf("core: I2 violated between elements %d (i=%v) and %d (i=%v)",
					x, frontier[x].i, y, frontier[y].i)
			}
		}
	}
	return nil
}

// CheckI3 verifies Invariant I3 on a frontier: for any two elements x and y
// and any string r ∈ ux, {r} ⊑ iy implies {r} ⊑ uy. Intuitively: if x's
// update knowledge overlaps y's identity, then y itself already knows those
// updates — which is what keeps a fresh update on one element from being
// spuriously dominated by another.
func CheckI3(frontier []Stamp) error {
	for x := 0; x < len(frontier); x++ {
		for y := 0; y < len(frontier); y++ {
			if x == y {
				continue
			}
			ux, iy, uy := frontier[x].u, frontier[y].i, frontier[y].u
			if i3Holds(ux, iy, uy) {
				continue
			}
			for _, r := range ux.Name().Bits() {
				if iy.Covers(r) && !uy.Covers(r) {
					return fmt.Errorf(
						"core: I3 violated: r = %v ∈ u%d, {r} ⊑ i%d = %v but {r} ⋢ u%d = %v",
						r, x, y, iy, y, uy)
				}
			}
		}
	}
	return nil
}

// i3Holds reports that every member r of ux with {r} ⊑ iy has {r} ⊑ uy, by
// one recursion over the three tries: below a leaf of iy or uy the leaf's
// member is a strict prefix of ux's deeper members, so it covers none.
func i3Holds(ux, iy, uy *trie.Interned) bool {
	switch {
	case ux == nil || iy == nil:
		return true
	case ux.IsLeaf():
		return uy != nil
	}
	x0, x1 := ux.Children()
	i0, i1 := iy.Children()
	u0, u1 := uy.Children()
	return i3Holds(x0, i0, u0) && i3Holds(x1, i1, u1)
}

// CheckFrontier runs all invariant checks applicable to a frontier of
// coexisting stamps: I1 on every stamp, then I2 and I3 across the frontier.
// It does not check cover (CheckCover), so it also applies to part of a
// frontier.
func CheckFrontier(frontier []Stamp) error {
	for idx, s := range frontier {
		if err := CheckI1(s); err != nil {
			return fmt.Errorf("element %d: %w", idx, err)
		}
	}
	if err := CheckI2(frontier); err != nil {
		return err
	}
	return CheckI3(frontier)
}

// CheckCover verifies that a whole frontier conserves the id space: its ids
// join, after Section 6 reduction, to exactly {ε}. Fork splits an id and
// join reunites the parts, so no reachable frontier loses any of the id
// space the seed owned. The check is exact: it joins and reduces tries.
func CheckCover(frontier []Stamp) error {
	var ids *trie.Interned
	for _, s := range frontier {
		ids = trie.JoinInterned(ids, s.i)
	}
	if _, ids = trie.Reduce(nil, ids); !ids.IsLeaf() {
		return fmt.Errorf("core: cover violated: the frontier's ids reduce to %v, not ε (leaked %g)",
			ids, Leaked(frontier))
	}
	return nil
}

// Leaked reports the share of the id space a frontier has lost:
// 1 − Σ 2^−|s| over the strings s of its ids. It is 0 for a frontier that
// covers (CheckCover) and pairwise incomparable ids (I2).
func Leaked(frontier []Stamp) float64 {
	held := 0.0
	for _, s := range frontier {
		held += share(s.i, 0)
	}
	return 1 - held
}

// share sums 2^−|s| over the strings s of t, whose root sits at depth.
func share(t *trie.Interned, depth int) float64 {
	switch {
	case t == nil:
		return 0
	case t.IsLeaf():
		return math.Ldexp(1, -depth)
	}
	z, o := t.Children()
	return share(z, depth+1) + share(o, depth+1)
}
