package trie

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// The intern table. Every table-resident node is keyed by its children's
// ids — the unique table of a hash-consed DAG — so the constructor's probe is
// one map lookup on an integer. Wire ingestion has its own front door, a
// direct-mapped cache from raw encoded bytes to the node they decode to
// (encCache), which dedups a known name without decoding anything. The
// paper's stamps grow with the width of the current frontier, not with
// history, so a store of millions of keys draws its stamp components from a
// small set of distinct nodes — the table stays small while hit rates stay
// near perfect.
//
// Nodes are immutable once published. The table holds at most maxInterned
// resident nodes (of at most maxInternedEncoding encoded bytes each) using a
// two-generation rotation per shard: when a shard's current generation
// fills its budget, it becomes the old generation and a fresh one starts;
// nodes still in use get promoted back on their next lookup (same pointer,
// so handle identity survives promotion), and nodes nobody asks for again
// age out with the generation after next. A fork/join storm of transient
// names therefore cannot grow the table without bound, while the
// steady-state working set — the paper's frontier names, a small recurring
// set — stays hot. Eviction costs sharing, not correctness: a node holds its
// children by pointer, equality falls back to structural recursion, and ids
// are issued monotonically and never reused, so memo and comparison-cache
// entries for evicted nodes can never alias.

// internShards is the stripe count of the intern table; interning from many
// goroutines (32 kvstore shards, gossip workers) contends on a shard each,
// not on one lock.
const internShards = 64

// maxInterned bounds the total number of table-resident nodes across both
// generations of every shard. Each shard rotates generations when its
// current one reaches maxInterned/(2*internShards) nodes, so residency can
// never exceed the bound — new nodes keep interning forever, old unused
// ones age out instead of the table refusing service.
const maxInterned = 1 << 18

// internShardBudget is one generation's node budget in one shard.
const internShardBudget = maxInterned / (2 * internShards)

// maxInternedID caps id issuance. Ids are monotonic and never reused (so
// cache entries for evicted nodes cannot alias); a process that somehow
// interns a billion distinct nodes falls back to id-0 nodes, which stay
// correct but are unshared (and so are their parents) and skip the memo and
// comparison caches. Ids therefore fit in 31 bits, and two of them pack
// into one cache key.
const maxInternedID = 1 << 30

// maxInternedEncoding bounds the encoded size of a table-resident node, so
// that the table's worst-case memory is maxInterned × maxInternedEncoding
// bytes however large the names a peer sends. Honest stamps encode in tens
// of bytes (they grow with frontier width, not history), so 256 bytes is
// far above any real name. Larger nodes still work — as unshared id-0 nodes
// that cache no encoding and that the GC reclaims with the data referencing
// them; their children are interned as usual.
const maxInternedEncoding = 256

type internShard struct {
	mu  sync.RWMutex
	m   map[uint64]*Interned // current generation
	old map[uint64]*Interned // previous generation; hits promote back to m
}

var (
	internTable [internShards]internShard
	// internCount counts ids ever issued; a new node's id is the count after
	// its own insertion, which is unique for the process lifetime —
	// rotation evicts nodes but never frees their ids for reuse.
	internCount atomic.Int64
)

func init() {
	for i := range internTable {
		internTable[i].m = make(map[uint64]*Interned)
	}
}

// internShardFor picks the table stripe for a key (Fibonacci hashing).
func internShardFor(key uint64) *internShard {
	return &internTable[(key*0x9E3779B97F4A7C15)>>58]
}

// lookup probes both generations for key, promoting an old-generation hit
// back into the current one (same pointer, so handle identity is stable).
func (sh *internShard) lookup(key uint64) *Interned {
	sh.mu.RLock()
	rec := sh.m[key]
	inOld := false
	if rec == nil && sh.old != nil {
		rec = sh.old[key]
		inOld = rec != nil
	}
	sh.mu.RUnlock()
	if inOld {
		sh.mu.Lock()
		rec = sh.promoteLocked(key, rec)
		sh.mu.Unlock()
	}
	return rec
}

// publish inserts a new candidate node, built outside the lock. Losing a
// publish race returns the winner, so one key never has two resident nodes.
func (sh *internShard) publish(key uint64, cand *Interned) *Interned {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if rec := sh.m[key]; rec != nil {
		return rec
	}
	if rec := sh.old[key]; rec != nil {
		return sh.promoteLocked(key, rec)
	}
	if internCount.Load() < maxInternedID {
		cand.id = uint32(internCount.Add(1))
	}
	sh.insertLocked(key, cand)
	return cand
}

// promoteLocked moves an old-generation node into the current one, unless a
// concurrent lookup already did. sh.mu must be held.
func (sh *internShard) promoteLocked(key uint64, rec *Interned) *Interned {
	if cur := sh.m[key]; cur != nil {
		return cur
	}
	delete(sh.old, key)
	sh.insertLocked(key, rec)
	return rec
}

// insertLocked publishes rec in the current generation, rotating first when
// the generation is at budget. sh.mu must be held.
func (sh *internShard) insertLocked(key uint64, rec *Interned) {
	if len(sh.m) >= internShardBudget {
		sh.old = sh.m
		sh.m = make(map[uint64]*Interned, internShardBudget)
	}
	sh.m[key] = rec
}

// encCacheBits sizes the raw-bytes cache: 4096 slots.
const encCacheBits = 12

// encCache maps the canonical encoding of a recently decoded node, by hash,
// to that node. A collision overwrites; a slot is only trusted after
// comparing the node's cached encoding with the probe bytes, and its node
// is only returned while the table still holds it.
var encCache [1 << encCacheBits]atomic.Pointer[Interned]

// encSeed seeds the raw-bytes cache's hash.
var encSeed = maphash.MakeSeed()

// encSlot picks the cache slot for an encoding's hash.
func encSlot(h uint64) *atomic.Pointer[Interned] {
	return &encCache[h>>(64-encCacheBits)]
}

// InternEncoded reads one encoded name from the front of src and returns its
// canonical handle plus the bytes consumed. A cache hit costs a hash and a
// comparison of the raw bytes — nothing is decoded or built — which is what
// makes wire ingestion dedup on arrival. Misses decode through the
// normalizing constructor, which allocates only for nodes the table does
// not hold, and non-canonical padding bits still land on the canonical node.
// Input that ends inside the encoding is an error that is
// io.ErrUnexpectedEOF: more bytes may complete it.
func InternEncoded(src []byte) (*Interned, int, error) {
	n, nbits, err := frameLen(src)
	if err != nil {
		return nil, 0, err
	}
	raw := src[:n]
	if t := encSlot(maphash.Bytes(encSeed, raw)).Load(); t != nil && *t.enc.Load() == string(raw) {
		if t == leaf {
			return t, n, nil
		}
		// The table's node for t's children: t itself, promoted if it is in
		// the old generation, unless rotation has dropped it since.
		if r := t.resident(); r != nil {
			return r, n, nil
		}
	}
	t, err := decode(raw[n-(nbits+7)/8:], nbits)
	if err != nil {
		return nil, 0, err
	}
	if t != nil && t.id != 0 {
		encSlot(maphash.String(encSeed, t.encoding())).Store(t)
	}
	return t, n, nil
}

// resident returns the table-resident node with t's children, or nil.
func (t *Interned) resident() *Interned {
	key := nodeKey(t.zero, t.one)
	return internShardFor(key).lookup(key)
}

// nodeKey is the table key of the node with children z and o.
func nodeKey(z, o *Interned) uint64 { return uint64(z.ID())<<32 | uint64(o.ID()) }

// InternedCount reports how many table ids have ever been issued — a
// monotone counter over the process lifetime (rotation evicts nodes but
// never reuses ids). For the current table footprint see InternedResident.
func InternedCount() int64 { return internCount.Load() }

// InternedResident reports how many nodes the table currently holds across
// both generations of every shard — bounded by maxInterned no matter how
// many distinct names the process has interned.
func InternedResident() int {
	total := 0
	for i := range internTable {
		sh := &internTable[i]
		sh.mu.RLock()
		total += len(sh.m) + len(sh.old)
		sh.mu.RUnlock()
	}
	return total
}
