package trie

import "sync/atomic"

// The operation memo: a process-wide, direct-mapped cache from (operation,
// node id, node id) to a result pair, the computed table of BDD-style
// apply. Join, Reduce and Append0/1 consult it at every node they visit, so
// repeating an operation — or one that shares subproblems with an earlier
// one — is a few probes and allocates nothing. A collision just overwrites
// (it is a cache, not a table), and entries hold their results by pointer,
// so a result outlives its eviction from the intern table for as long as its
// slot does. Ids are never reused, so an entry can never answer for a
// different node.

const (
	opJoin   = iota // (a, b) → a ⊔ b, ids ordered
	opReduce        // (u, i) → Reduce(u, i); u's id is 0 for ∅
	opAppend        // (t, bit) → t·bit
)

// memoBits sizes the table: 8192 slots × 32 bytes = 256 KiB.
const memoBits = 13

// memoSlot is a seqlock: a writer makes seq odd while it stores, and a
// reader accepts what it loaded only if seq was even and unchanged around
// its loads. Writers that find the slot busy skip the store.
type memoSlot struct {
	seq  atomic.Uint64
	key  atomic.Uint64
	a, b atomic.Pointer[Interned]
}

var memo [1 << memoBits]memoSlot

// memoKey packs an operation and two ids (each at most maxInternedID, so
// 31 bits) into a key. Every key a caller stores has a nonzero id, so the
// zero key of an empty slot never matches.
func memoKey(op, ka, kb uint32) uint64 {
	return uint64(op)<<62 | uint64(ka)<<31 | uint64(kb)
}

func memoSlotFor(key uint64) *memoSlot {
	return &memo[(key*0x9E3779B97F4A7C15)>>(64-memoBits)]
}

func memoGet(key uint64) (a, b *Interned, ok bool) {
	s := memoSlotFor(key)
	seq := s.seq.Load()
	if seq&1 != 0 || s.key.Load() != key {
		return nil, nil, false
	}
	a, b = s.a.Load(), s.b.Load()
	return a, b, s.seq.Load() == seq
}

func memoPut(key uint64, a, b *Interned) {
	s := memoSlotFor(key)
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.key.Store(key)
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq + 2)
}
