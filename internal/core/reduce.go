package core

import "versionstamp/internal/trie"

// Reduce applies the rewriting rule of Section 6 until it no longer applies,
// returning the unique normal form of the stamp:
//
//	(u, {i…, s·0, s·1}) -> (u', {i…, s})
//
//	u' = u \ {s·0, s·1} ∪ {s}   if s·0 ∈ u or s·1 ∈ u
//	u' = u                     otherwise
//
// Each rewriting strictly shrinks both components in the name order (u' ⊑ u,
// i' ⊑ i), the order is well-founded, and the rule is confluent, so the
// normal form exists and is unique. Reduction preserves Invariants I1–I3 and
// the order relation R between all frontier elements (proved in the paper);
// TestReducePreservesR re-checks this mechanically.
//
// The rewriting runs as one bottom-up pass over both component tries
// (trie.Reduce), memoized by handle pair. Reduce is idempotent and is
// applied automatically by Join. An already-reduced stamp (the common case:
// most joins collapse nothing) is returned unchanged, handles intact,
// without allocating.
func (s Stamp) Reduce() Stamp {
	u, i := trie.Reduce(s.u, s.i)
	return Stamp{u: u, i: i}
}
