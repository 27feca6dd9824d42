package core

import "sync/atomic"

// Pairwise comparison caching. Stamps are drawn from a small set of distinct
// interned update names (they grow with frontier width, not history), so the
// same (a, b) update pairs recur across millions of keys during anti-entropy.
// One process-wide bounded cache of name-order outcomes exploits that:
// Compare's update pairs, and the I1 check (u, i) of every decoded stamp.
// It is direct-mapped over atomic slots, so concurrent sync rounds share it
// without locks or allocations (a collision just overwrites — it is a cache,
// not a table).
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
