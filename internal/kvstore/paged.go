package kvstore

import (
	"fmt"
	"sort"
	"strings"

	"versionstamp/internal/core"
	"versionstamp/internal/pagecache"
	"versionstamp/internal/storage/wal"
)

// Paged residency: a replica opened with OpenBackendPaged keeps only per-key
// metadata resident for the entries of each stripe's checkpoint — key, stamp,
// tombstone flag and the value's location inside the checkpoint file — while
// the value bytes stay on disk and fault in through a sized page cache.
// Entries written since the last checkpoint live in the ordinary hot map,
// values included (they are needed for the WAL append anyway); a checkpoint
// migrates them into the cold index and drops their heap copies. The memory
// bound is therefore a post-checkpoint property: after Checkpoint, a stripe
// costs ~(key + interned stamp + location) per key, independent of value
// sizes.
//
// The cold index never shadows the hot map: a key present in sh.data — even
// as a tombstone — hides any cold entry of the same name. Lookups consult hot
// first, then cold; enumeration is hot ∪ (cold minus dropped minus shadowed).

// DefaultCacheBytes is the paged read cache budget when OpenBackendPaged's
// cacheBytes is not positive.
const DefaultCacheBytes = 32 << 20

// coldStripe is the checkpoint-resident slice of one paged stripe: parallel
// per-entry columns sorted by key (checkpoints are written sorted, see
// encodeBinarySnapshot), valid for exactly one checkpoint generation.
type coldStripe struct {
	gen  uint32 // checkpoint generation the locations address
	base int64  // file offset of the checkpoint payload's first byte

	// Keys are packed into one blob with n+1 boundary offsets instead of a
	// []string: 4 bytes per key instead of a 16-byte header plus a separate
	// allocation — at a million keys the difference is half the key column.
	kblob string
	koffs []uint32

	stamps  []core.Stamp
	deleted []bool
	dropped []bool  // discarded tombstones: skip this entry everywhere
	offs    []int64 // absolute file offset of each value's bytes
	lens    []uint32
	live    int  // entries with dropped[i] == false
	dirty   bool // dropped bits changed since this index was built
}

// count returns the number of entries (dropped included).
func (cs *coldStripe) count() int { return len(cs.stamps) }

// key returns entry x's key — a substring of the shared blob. Callers that
// store it beyond the life of this index (hot maps, tombstone ledgers) must
// strings.Clone it, or the 12-byte key pins the whole stripe's blob.
func (cs *coldStripe) key(x int) string { return cs.kblob[cs.koffs[x]:cs.koffs[x+1]] }

// find returns the index of key in the sorted column set, or -1. Dropped
// entries are still found — callers that must skip them check dropped[i].
func (cs *coldStripe) find(key string) int {
	i := sort.Search(cs.count(), func(x int) bool { return cs.key(x) >= key })
	if i < cs.count() && cs.key(i) == key {
		return i
	}
	return -1
}

// buildColdStripe decodes a binary snapshot into a cold index for stripe i.
// Value offsets inside the snapshot become absolute file offsets against
// base. Keys are packed into the index's own blob, so the snapshot buffer is
// not retained.
func buildColdStripe(i, nshards int, snap []byte, gen uint32, base int64) (*coldStripe, error) {
	cs := &coldStripe{gen: gen, base: base, koffs: []uint32{0}}
	var blob []byte
	err := decodeBinarySnapshotMeta(snap, func(e coldEntryMeta) error {
		if ShardIndex(e.key, nshards) != i {
			return fmt.Errorf("kvstore: shard %d checkpoint: key %q belongs to shard %d",
				i, e.key, ShardIndex(e.key, nshards))
		}
		blob = append(blob, e.key...)
		cs.koffs = append(cs.koffs, uint32(len(blob)))
		cs.stamps = append(cs.stamps, e.stamp)
		cs.deleted = append(cs.deleted, e.deleted)
		cs.dropped = append(cs.dropped, false)
		if e.valOff >= 0 {
			cs.offs = append(cs.offs, base+int64(e.valOff))
			cs.lens = append(cs.lens, uint32(e.valLen))
		} else {
			cs.offs = append(cs.offs, 0)
			cs.lens = append(cs.lens, 0)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cs.kblob = string(blob)
	cs.live = cs.count()
	return cs, nil
}

// coldValue faults the value bytes of cold entry x of stripe si through the
// page cache. The returned buffer is cache-owned and immutable. Stripe lock
// (read suffices) held by the caller, so the index cannot be swapped under
// the read; a checkpoint racing the disk read is excluded by the lock.
//
// Entries are cached under the user key (plus stripe and generation), which
// is what lets Get probe the cache before running the index's binary
// search. A cached entry therefore always describes a live cold value at
// its generation: only live values are ever admitted, and within one
// generation a cold value can only stop being current by gaining a hot
// shadow — which the read path checks before the cache.
func (r *Replica) coldValue(si int, cs *coldStripe, x int, key string) ([]byte, error) {
	if cs.lens[x] == 0 {
		return nil, nil
	}
	ck := pagecache.Key{Shard: si, Gen: cs.gen, Name: key}
	return r.cache.Get(ck, func() ([]byte, error) {
		return r.backend.ReadValueAt(si, wal.ValueLoc{Off: cs.offs[x], Len: cs.lens[x], Gen: cs.gen})
	})
}

// metaLocked returns key's stored copy without its value — hot map first,
// then the cold index. Stripe lock (read suffices) held.
func (sh *shard) metaLocked(key string) (Versioned, bool) {
	if v, ok := sh.data[key]; ok {
		return Versioned{Deleted: v.Deleted, Stamp: v.Stamp}, true
	}
	if cs := sh.cold; cs != nil {
		if x := cs.find(key); x >= 0 && !cs.dropped[x] {
			return Versioned{Deleted: cs.deleted[x], Stamp: cs.stamps[x]}, true
		}
	}
	return Versioned{}, false
}

// eachMetaLocked calls fn for every key with stored state in the stripe
// (hot ∪ cold, tombstones included). Stripe lock (read suffices) held.
func (sh *shard) eachMetaLocked(fn func(key string, deleted bool, stamp core.Stamp)) {
	for k, v := range sh.data {
		fn(k, v.Deleted, v.Stamp)
	}
	cs := sh.cold
	if cs == nil {
		return
	}
	for x := 0; x < cs.count(); x++ {
		if cs.dropped[x] {
			continue
		}
		k := cs.key(x)
		if _, shadowed := sh.data[k]; shadowed {
			continue
		}
		fn(k, cs.deleted[x], cs.stamps[x])
	}
}

// countLocked returns the stripe's stored-state key count (hot ∪ cold).
func (sh *shard) countLocked() int {
	n := len(sh.data)
	cs := sh.cold
	if cs == nil {
		return n
	}
	if len(sh.data) == 0 {
		return cs.live
	}
	for x := 0; x < cs.count(); x++ {
		if cs.dropped[x] {
			continue
		}
		if _, shadowed := sh.data[cs.key(x)]; !shadowed {
			n++
		}
	}
	return n
}

// promoteLocked faults key's cold entry into the hot map so a mutation path
// (reconcile) can work on it in place. No-op for
// non-paged replicas, hot keys, and keys the cold index does not hold.
// Stripe write lock held. The tombstone ledger is untouched — promotion
// changes residency, not state.
func (r *Replica) promoteLocked(si int, key string) error {
	if !r.paged {
		return nil
	}
	sh := &r.shards[si]
	if _, ok := sh.data[key]; ok {
		return nil
	}
	cs := sh.cold
	if cs == nil {
		return nil
	}
	x := cs.find(key)
	if x < 0 || cs.dropped[x] {
		return nil
	}
	v := Versioned{Deleted: cs.deleted[x], Stamp: cs.stamps[x]}
	if !v.Deleted {
		buf, err := r.coldValue(si, cs, x, key)
		if err != nil {
			return fmt.Errorf("kvstore: promote %q (shard %d): %w", key, si, err)
		}
		v.Value = buf
	}
	sh.data[strings.Clone(key)] = v
	return nil
}

// promoteStripeLocked faults every cold entry of stripe i into the hot map —
// the whole-stripe promotion Clone and wholesale snapshot paths need.
// Stripe write lock held.
func (r *Replica) promoteStripeLocked(i int) error {
	if !r.paged {
		return nil
	}
	cs := r.shards[i].cold
	if cs == nil {
		return nil
	}
	for x := 0; x < cs.count(); x++ {
		if err := r.promoteLocked(i, cs.key(x)); err != nil {
			return err
		}
	}
	return nil
}

// noteTombLocked re-stamps key's entry in the stripe's tombstone ledger from
// its current hot state: tombstone → recorded at the current epoch, live →
// removed. Keys not in the hot map are left alone (their ledger entry, if
// any, still describes the cold copy). Stripe write lock held, epoch already
// bumped by lockMut.
func (sh *shard) noteTombLocked(key string) {
	v, ok := sh.data[key]
	switch {
	case ok && v.Deleted:
		sh.tombs[key] = sh.epoch.Load()
	case ok:
		delete(sh.tombs, key)
	}
}

// StripeEpoch returns stripe i's current mutation epoch — the clock the
// tombstone ledger and the anti-entropy layer's propagation evidence are
// expressed in. Monotonic per stripe; advances on every write-locked
// mutation.
func (r *Replica) StripeEpoch(i int) uint64 {
	if i < 0 || i >= len(r.shards) {
		return 0
	}
	return r.shards[i].epoch.Load()
}

// Tombstones returns a copy of stripe i's tombstone ledger: every currently
// tombstoned key mapped to the stripe epoch its tombstone was last
// (re-)established at. A tombstone proven propagated to every co-owner as of
// a later epoch is safe to discard — see DiscardTombstones.
func (r *Replica) Tombstones(i int) map[string]uint64 {
	if i < 0 || i >= len(r.shards) {
		return nil
	}
	sh := &r.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make(map[string]uint64, len(sh.tombs))
	for k, e := range sh.tombs {
		out[k] = e
	}
	return out
}

// TombstonesLive returns the number of tombstones currently held across all
// stripes — the gauge that should fall back to zero once deletes have
// propagated and the GC has discarded them.
func (r *Replica) TombstonesLive() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.tombs)
		sh.mu.RUnlock()
	}
	return n
}

// DiscardTombstones drops the tombstones of stripe i named in expect,
// returning how many were discarded. A key is discarded only if it is still
// a tombstone here AND its ledger epoch still equals expect[key] — so a
// delete→put→delete that raced the caller's evidence gathering re-stamped
// the ledger and is left alone, as is any key that was revived outright.
// The caller (the anti-entropy GC) is responsible for only naming tombstones
// whose propagation to every co-owner it has proven; discarding an
// unpropagated tombstone is how deleted keys resurrect.
func (r *Replica) DiscardTombstones(i int, expect map[string]uint64) int {
	if i < 0 || i >= len(r.shards) || len(expect) == 0 {
		return 0
	}
	sh := &r.shards[i]
	sh.lockMut()
	defer sh.mu.Unlock()
	n := 0
	for k, want := range expect {
		cur, ok := sh.tombs[k]
		if !ok || cur != want {
			continue
		}
		if v, hot := sh.data[k]; hot {
			if !v.Deleted {
				continue // revived without a ledger update; never discard
			}
			delete(sh.data, k)
		} else if cs := sh.cold; cs != nil {
			x := cs.find(k)
			if x < 0 || cs.dropped[x] || !cs.deleted[x] {
				continue
			}
		} else {
			continue
		}
		// Drop the cold entry too (it may sit under a just-removed hot
		// shadow); the next checkpoint persists the discard.
		if cs := sh.cold; cs != nil {
			if x := cs.find(k); x >= 0 && !cs.dropped[x] {
				cs.dropped[x] = true
				cs.live--
				cs.dirty = true
			}
		}
		delete(sh.tombs, k)
		sh.noteDirtyLocked(k)
		sh.removed = true
		n++
	}
	return n
}

// enqueueWait queues one group-commit durability barrier. Appends staged
// under stripe locks park their barriers here; public mutators drain the
// queue after releasing the locks (awaitDurable), so the fsync wait never
// blocks the stripe. The queue's slices are reused (see awaitDurable), so
// queueing allocates nothing in steady state.
func (r *Replica) enqueueWait(w func() error) {
	r.pendMu.Lock()
	r.pending = append(r.pending, w)
	r.pendMu.Unlock()
}

// awaitDurable blocks until every queued append barrier has resolved —
// the group-commit acknowledgement point. Barrier failures surface through
// PersistErr exactly like synchronous append failures. Must be called with
// no stripe locks held.
//
// Drains run one at a time. A concurrent mutator's drain may take this
// caller's barriers with its own; waiting for drainMu then waits them out,
// so no mutator returns before its appends are durable. The queue is
// double-buffered: the drain swaps the spare slice in for pending, calls
// each wait once (a wait function is called at most once per append) and
// clears its slot, then keeps the drained slice as the spare, so neither
// buffer is reallocated.
func (r *Replica) awaitDurable() {
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	r.pendMu.Lock()
	ws := r.pending
	r.pending = r.spare[:0]
	r.pendMu.Unlock()
	for i, w := range ws {
		ws[i] = nil
		if err := w(); err != nil {
			r.notePersistErr(err)
		}
	}
	r.spare = ws[:0]
}

// CacheStats returns the paged read cache's counters (zero for non-paged
// replicas).
func (r *Replica) CacheStats() pagecache.Stats {
	if r.cache == nil {
		return pagecache.Stats{}
	}
	return r.cache.Stats()
}
