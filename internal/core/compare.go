package core

import "versionstamp/internal/trie"

// Ordering is the outcome of comparing two coexisting elements by their
// version stamps. The paper distinguishes three situations relevant to
// optimistic replication (Section 2): equivalence, obsolescence (one element
// dominates the other), and mutual inconsistency (a conflict).
type Ordering int

const (
	// Equal: both elements have seen exactly the same updates; they are
	// interchangeable after, e.g., a synchronization.
	Equal Ordering = iota + 1
	// Before: the receiver is obsolete relative to the argument — the
	// argument has seen every update the receiver has, and at least one
	// more.
	Before
	// After: the receiver dominates the argument (the converse of Before).
	After
	// Concurrent: each element has seen at least one update the other has
	// not; the replicas are mutually inconsistent and must be reconciled.
	Concurrent
)

// String returns a human-readable rendering of the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return "invalid"
	}
}

// Compare relates two elements of the same frontier by their stamps. It
// implements the pre-order a ≤ b ⇔ fst(V(a)) ⊑ fst(V(b)) of Section 4,
// refined into the four-way outcome used by replication systems. By
// Corollary 5.2 the result coincides with inclusion of the elements' causal
// histories.
//
// Compare is only meaningful for stamps of coexisting elements (the same
// frontier); relating an element to one of its own ancestors is outside the
// frontier-ordering contract (Section 1.2).
//
// Compare is allocation-free: identical interned update handles short-circuit
// to Equal (the converged steady state), repeated pairs are answered from a
// bounded process-wide cache keyed by handle ids, and the fallback recurses
// over both component tries without building anything.
func Compare(a, b Stamp) Ordering { return order(a.u, b.u) }

// order relates two names under ⊑, answering repeated pairs from the
// comparison cache.
func order(x, y *trie.Interned) Ordering {
	if x == y {
		return Equal
	}
	key, cacheable := cmpCacheKey(x.ID(), y.ID())
	if cacheable {
		if rel, ok := cmpCacheGet(key); ok {
			return rel
		}
	}
	rel := orderSlow(x, y)
	if cacheable {
		cmpCachePut(key, rel)
	}
	return rel
}

// orderSlow relates two names by recursing over both tries.
func orderSlow(x, y *trie.Interned) Ordering {
	xy := x.Leq(y)
	yx := y.Leq(x)
	switch {
	case xy && yx:
		return Equal
	case xy:
		return Before
	case yx:
		return After
	default:
		return Concurrent
	}
}

// Leq reports fst(a) ⊑ fst(b): b knows every update a knows. This is the
// non-strict pre-order underlying Compare.
func (s Stamp) Leq(b Stamp) bool { return s.u.Leq(b.u) }

// Equivalent reports that both stamps record exactly the same updates.
func (s Stamp) Equivalent(b Stamp) bool { return Compare(s, b) == Equal }

// ObsoleteRelativeTo reports that b strictly dominates s: b has seen every
// update s has, plus at least one more (the paper's "obsolescence").
func (s Stamp) ObsoleteRelativeTo(b Stamp) bool { return Compare(s, b) == Before }

// Dominates reports that s strictly dominates b.
func (s Stamp) Dominates(b Stamp) bool { return Compare(s, b) == After }

// ConcurrentWith reports mutual inconsistency: each side has seen an update
// the other has not.
func (s Stamp) ConcurrentWith(b Stamp) bool { return Compare(s, b) == Concurrent }

// Equal reports structural equality of the two stamps (both components).
// This is stronger than Equivalent, which only compares update components:
// two equivalent frontier elements usually carry different ids. For interned
// stamps this is two pointer comparisons.
func (s Stamp) Equal(b Stamp) bool {
	return s.u.Equal(b.u) && s.i.Equal(b.i)
}
