// Package pagecache is the admission cache between the replica's read path
// and the WAL's point reads. A paged replica keeps only key → (stamp,
// location) resident; the value bytes live in the shard's checkpoint file
// and are faulted in on demand. This cache bounds how many of those
// faulted values stay in RAM: a sharded LRU with a byte budget, singleflight
// fills so a hot key being faulted by many readers costs one disk read, and
// hit/miss/byte counters the memory benchmark reports.
//
// A fault costs one read and one allocation: the value buffer the fill
// returns. Everything else a miss needs is recycled. The in-flight fill
// record comes from a free list on its cache shard; readers of a key that
// is being filled wait on the shard's condition variable, tied to the
// shard lock; and admitting a value into a full shard reuses the LRU node
// it evicted, so a node is allocated only while its shard has room.
//
// Buffers handed out by Get are immutable by contract: the cache retains
// them and returns the same slice to every hit, so callers must not write
// into them. That is what makes a cache hit a zero-copy read — the replica
// returns the cached buffer directly instead of copying per call.
package pagecache

import (
	"sync"
	"sync/atomic"
)

// Key identifies one cached value by (store shard, checkpoint generation,
// user-visible key); values come from checkpoints only. Keying by name
// rather than file offset lets the read path probe the cache BEFORE
// resolving the key to a location — a hit skips the cold index's binary
// search entirely. Generations advance when a checkpoint replaces the file,
// so entries cached against a superseded layout can never be returned —
// they simply stop being looked up and age out of the LRU.
type Key struct {
	Shard int
	Gen   uint32
	Name  string
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits      int64 // Get calls served from cache
	Misses    int64 // Get calls that ran the fill
	Evictions int64 // entries dropped to stay under the byte budget
	Bytes     int64 // value bytes currently cached
	Entries   int64 // entries currently cached
}

const numShards = 16

// Cache is a sized, sharded LRU over faulted value buffers. The byte budget
// is global; each cache shard enforces an equal slice of it so eviction
// needs no cross-shard coordination. Safe for concurrent use.
type Cache struct {
	shardBudget int64
	shards      [numShards]cacheShard

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheShard struct {
	mu       sync.Mutex
	filled   sync.Cond // L is &mu; broadcast when a fill with waiters ends
	entries  map[Key]*node
	head     *node // most recently used
	tail     *node // least recently used
	bytes    int64
	inflight map[Key]*fillRec
	free     *fillRec // finished fill records, linked through next
}

type node struct {
	key        Key
	buf        []byte
	prev, next *node
}

// fillRec is one in-progress fill other readers of the same key wait on.
// Every field is guarded by the shard's mu. The record goes back on the
// shard's free list once its fill is done and its last waiter has read it.
type fillRec struct {
	buf     []byte
	err     error
	done    bool
	waiters int
	next    *fillRec
}

// New returns a cache holding at most budgetBytes of value bytes. A budget
// of zero or less still works — every fill is admitted and immediately
// evicted on the next, so the cache degrades to singleflight-only.
func New(budgetBytes int64) *Cache {
	c := &Cache{shardBudget: budgetBytes / numShards}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.filled.L = &sh.mu
		sh.entries = make(map[Key]*node)
		sh.inflight = make(map[Key]*fillRec)
	}
	return c
}

// Get returns the buffer cached under key, running fill to produce it on a
// miss. Concurrent misses on the same key share one fill and its error; a
// failed fill is not cached, so the next Get fills again. The returned
// buffer is owned by the cache and MUST NOT be modified.
//
// A miss allocates only what fill does: readers that find the key being
// filled block on the shard's condition variable until the filler, holding
// the shard lock, has published its result and admitted the buffer.
func (c *Cache) Get(key Key, fill func() ([]byte, error)) ([]byte, error) {
	sh := &c.shards[shardOf(key)]

	sh.mu.Lock()
	if n, ok := sh.entries[key]; ok {
		sh.moveToFront(n)
		buf := n.buf
		sh.mu.Unlock()
		c.hits.Add(1)
		return buf, nil
	}
	if f, ok := sh.inflight[key]; ok {
		f.waiters++
		for !f.done {
			sh.filled.Wait()
		}
		buf, err := f.buf, f.err
		if f.waiters--; f.waiters == 0 {
			sh.release(f)
		}
		sh.mu.Unlock()
		if err != nil {
			return nil, err
		}
		c.hits.Add(1)
		return buf, nil
	}
	f := sh.free
	if f != nil {
		sh.free, f.next = f.next, nil
	} else {
		f = new(fillRec)
	}
	sh.inflight[key] = f
	sh.mu.Unlock()

	c.misses.Add(1)
	buf, err := fill()

	sh.mu.Lock()
	delete(sh.inflight, key)
	if err == nil {
		c.admit(sh, key, buf)
	}
	f.buf, f.err, f.done = buf, err, true
	if f.waiters == 0 {
		sh.release(f)
	} else {
		sh.filled.Broadcast()
	}
	sh.mu.Unlock()
	return buf, err
}

// release clears a finished fill record and puts it on the free list.
// Caller holds sh.mu.
func (sh *cacheShard) release(f *fillRec) {
	*f = fillRec{next: sh.free}
	sh.free = f
}

// Lookup returns the buffer cached under key without filling on a miss —
// the read path's fast probe. A hit counts and refreshes recency; a miss
// counts nothing (the caller falls through to Get, which records it).
func (c *Cache) Lookup(key Key) ([]byte, bool) {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	n, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	sh.moveToFront(n)
	buf := n.buf
	sh.mu.Unlock()
	c.hits.Add(1)
	return buf, true
}

// Peek returns the cached buffer without filling on a miss. The hit/miss
// counters are untouched: Peek is for tests and introspection.
func (c *Cache) Peek(key Key) ([]byte, bool) {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	return n.buf, true
}

// InvalidateShard drops every cached entry for the given store shard. Called
// after a checkpoint replaces the shard's files: the
// generation in the key already prevents stale hits, so this only releases
// budget the rewritten locations can no longer earn back.
func (c *Cache) InvalidateShard(shard int) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for k, n := range sh.entries {
			if k.Shard == shard {
				sh.unlink(n)
				delete(sh.entries, k)
				sh.bytes -= int64(len(n.buf))
			}
		}
		sh.mu.Unlock()
	}
}

// Stats returns a snapshot of the cache's counters. Bytes and Entries are
// summed over the shards, each read under its own lock.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Bytes += sh.bytes
		st.Entries += int64(len(sh.entries))
		sh.mu.Unlock()
	}
	return st
}

// admit inserts buf under key, evicting from the cold end until the shard
// fits its budget slice, and reuses the last evicted node for the new
// entry. Buffers larger than the whole slice are not admitted at all —
// caching one would evict everything else for a buffer unlikely to be
// re-read before its own eviction. Caller holds sh.mu.
func (c *Cache) admit(sh *cacheShard, key Key, buf []byte) {
	if n, ok := sh.entries[key]; ok {
		// A racing fill already admitted this key; refresh recency only.
		sh.moveToFront(n)
		return
	}
	if int64(len(buf)) > c.shardBudget {
		return
	}
	var n *node
	for sh.bytes+int64(len(buf)) > c.shardBudget && sh.tail != nil {
		n = sh.tail
		sh.unlink(n)
		delete(sh.entries, n.key)
		sh.bytes -= int64(len(n.buf))
		c.evictions.Add(1)
	}
	if n == nil {
		n = new(node)
	}
	n.key, n.buf = key, buf
	sh.entries[key] = n
	sh.pushFront(n)
	sh.bytes += int64(len(buf))
}

func (sh *cacheShard) pushFront(n *node) {
	n.prev = nil
	n.next = sh.head
	if sh.head != nil {
		sh.head.prev = n
	}
	sh.head = n
	if sh.tail == nil {
		sh.tail = n
	}
}

func (sh *cacheShard) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		sh.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		sh.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (sh *cacheShard) moveToFront(n *node) {
	if sh.head == n {
		return
	}
	sh.unlink(n)
	sh.pushFront(n)
}

// shardOf hashes a key to its cache shard (FNV-1a over the name, mixed
// with the location fields through a splitmix64 finalizer). The top bit is
// the retired checkpoint-region flag, kept so keys spread exactly as before.
func shardOf(k Key) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.Name); i++ {
		h ^= uint64(k.Name[i])
		h *= 1099511628211
	}
	x := h ^ uint64(k.Shard)<<40 ^ uint64(k.Gen)<<32 ^ 1<<63
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % numShards)
}
