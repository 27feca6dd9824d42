package core

import "sync/atomic"

// Pairwise comparison caching. Stamps are drawn from a small set of distinct
// interned update names (they grow with frontier width, not history), so the
// same (a, b) update pairs recur across millions of keys during anti-entropy.
// Two layers exploit that:
//
//   - a process-wide bounded cache of name-order outcomes — Compare's
//     update pairs, and the I1 check (u, i) of every decoded stamp —
//     direct-mapped over atomic slots so concurrent sync rounds share it
//     without locks or allocations (a collision just overwrites — it is a
//     cache, not a table);
//   - Comparer, a per-batch memo for single-threaded loops (DiffAgainst,
//     ApplyDelta) that skips even the atomic traffic.
//
// Cache keys pack the two handle ids (issued monotonically and capped at
// 2^30 by trie's id-issuance bound, so 31 bits each; never reused even when
// the intern table rotates a node out) into 62 bits, leaving 2 bits for the
// outcome. Id 0 marks ∅ or an uninterned overflow handle; those pairs are
// computed directly.

// cmpCacheBits sizes the direct-mapped cache: 4096 slots × 8 bytes = 32 KiB,
// comfortably cache-resident while covering far more distinct update pairs
// than any real frontier produces.
const cmpCacheBits = 12

var cmpCache [1 << cmpCacheBits]atomic.Uint64

// cmpCacheKey packs an id pair into a cache key. The zero key never occurs
// for valid pairs (both ids >= 1), so zero slots read as empty.
func cmpCacheKey(ka, kb uint32) (uint64, bool) {
	if ka == 0 || kb == 0 {
		return 0, false
	}
	return uint64(ka)<<31 | uint64(kb), true
}

// cmpCacheSlot picks the slot for a key (Fibonacci hashing).
func cmpCacheSlot(key uint64) *atomic.Uint64 {
	return &cmpCache[(key*0x9E3779B97F4A7C15)>>(64-cmpCacheBits)]
}

func cmpCacheGet(key uint64) (Ordering, bool) {
	v := cmpCacheSlot(key).Load()
	if v>>2 != key {
		return 0, false
	}
	return Ordering(v&3) + 1, true
}

func cmpCachePut(key uint64, rel Ordering) {
	cmpCacheSlot(key).Store(key<<2 | uint64(rel-1))
}

// Comparer memoizes Compare outcomes for one batch of comparisons — the
// kvstore threads one through each DiffAgainst/ApplyDelta call, where a
// converged stripe compares the same handful of update pairs once per key.
// The memo is keyed by handle ids, costs one map probe per hit, and falls
// back to Compare (which itself fast-paths identical handles) for pairs it
// cannot key. The zero Comparer is ready to use and allocates its memo only
// on the first cacheable miss, so a batch of identical-handle comparisons
// allocates nothing. Comparer is not safe for concurrent use; it is scratch
// for a single loop.
type Comparer struct {
	memo map[uint64]Ordering
}

// Compare relates a and b exactly as the package-level Compare does,
// remembering outcomes for the lifetime of the Comparer.
func (c *Comparer) Compare(a, b Stamp) Ordering {
	if a.u == b.u {
		return Equal
	}
	key, cacheable := cmpCacheKey(a.u.ID(), b.u.ID())
	if !cacheable {
		return orderSlow(a.u, b.u)
	}
	if rel, ok := c.memo[key]; ok {
		return rel
	}
	rel := Compare(a, b)
	if c.memo == nil {
		c.memo = make(map[uint64]Ordering, 8)
	}
	c.memo[key] = rel
	return rel
}
