// Package kvstore implements an optimistically replicated key-value store
// that uses version stamps for per-key causality tracking — the kind of
// system the paper's introduction motivates: replicas synchronize pairwise
// whenever connectivity allows, updates happen anywhere anytime, and new
// replicas appear under partition with no identifier coordination.
//
// Every stored copy of a key is one element of that key's fork-join
// frontier: the first write seeds a stamp, local writes update it,
// transferring a key to another replica forks it, and synchronization joins
// and re-forks. Comparing two replicas' stamps for a key classifies the
// copies as equivalent, obsolete or conflicting, exactly as Section 2 of
// the paper prescribes; deletions are tombstones so removal also propagates
// causally. Every sync path makes that decision in one place, reconcile,
// whose doc comment states the rules.
//
// # Shard layout
//
// A Replica is striped over N lock-per-shard partitions (DefaultShards
// unless NewReplicaShards says otherwise). Every key is owned by exactly
// one shard, chosen by ShardIndex — an FNV-1a hash of the key modulo the
// shard count — and each shard guards its own map with its own
// sync.RWMutex. Point operations (Put/Get/Delete/Version) therefore
// contend only with operations on the same shard; PutBatch groups keys
// by shard and takes each shard lock once; and Sync reconciles shard pairs
// concurrently, one goroutine per stripe, instead of serializing the whole
// keyspace under a single lock. Because version stamps track causality per
// key, no cross-shard coordination is ever needed for correctness —
// sharding changes only the locking granularity, never the
// fork/update/join semantics.
//
// Syncing replicas must stripe the keyspace the same way: Sync refuses a
// pair with unequal shard counts, and the anti-entropy wire protocol refuses
// such a peer too. Clone keeps the layout, and Open refuses to change a
// durable replica's.
//
// Causal ordering is defined only among copies descending from one seed:
// originate each key at a single replica and let Sync/Clone propagate it.
// Keys created independently at two replicas share no causal ancestor;
// Sync detects this (their stamp ids overlap, which Invariant I2 rules out
// within one system), reconciles by value and restarts the key's stamp
// system — sound for a two-replica deployment, best-effort beyond that
// (rule 4 of reconcile). The anti-entropy wire round detects it too: two
// first writes carry equal update components, Seed().Update(), but each
// key's digest-tree term covers its content as well as its key and update
// component, so two creations that wrote different values hash apart and
// the round descends to the key. Two creations of one value hash alike, so
// the round meets their overlapping ids only once either end writes the key
// again or the round descends to its leaf for another key (see Summaries);
// until then the two copies hold the same bytes.
package kvstore

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/pagecache"
	"versionstamp/internal/storage/wal"
)

// DefaultShards is the stripe count of replicas built with NewReplica.
// 32 stripes keep lock contention negligible up to several dozen cores
// while the per-replica overhead stays a few hundred bytes.
const DefaultShards = 32

// Versioned is one replica's copy of a key: the value, a deletion marker,
// and the version stamp tracking the copy's causal history.
type Versioned struct {
	// Value is the stored bytes (nil for tombstones).
	Value []byte
	// Deleted marks a tombstone: the key was deleted at or after the
	// updates recorded in Stamp.
	Deleted bool
	// Stamp is this copy's version stamp within the key's frontier.
	Stamp core.Stamp
}

// Resolver merges two conflicting copies of a key during Sync, returning
// the merged value (merged deletions are expressed by returning
// deleted=true).
//
// Contract: one conflict is routinely resolved more than once — two pairs
// of replicas meet the same two copies before they meet each other — so a
// Resolver must be deterministic (a function of the copies' values and
// tombstone flags alone), commutative (the same bytes whichever copy arrives
// as a) and idempotent over its own output. It must not write into its
// inputs' buffers, their spare capacity included: they are stored buffers
// that replicas share. Copies that already agree byte for byte never reach
// it: they join without it (rule 5 of reconcile). A resolver short of the
// contract still converges, one more merge at a time.
//
// What counts as a conflict is decided by the stamps, and stamp order only
// holds between copies of one fork-join frontier. A copy restored from an
// older state carries an id that overlaps ids forked from it later, and the
// pair reads as independently created — a conflict — however stale one side
// is. That is why a stripe found corrupt at open comes up empty instead of
// with its readable prefix (see OpenBackend).
type Resolver func(key string, a, b Versioned) (value []byte, deleted bool, err error)

// KeepBoth is a Resolver that concatenates both values with a separator —
// a simple deterministic merge for demonstration and tests. Deletion loses
// against a concurrent write.
func KeepBoth(sep []byte) Resolver {
	return func(_ string, a, b Versioned) ([]byte, bool, error) {
		switch {
		case a.Deleted && b.Deleted:
			return nil, true, nil
		case a.Deleted:
			return b.Value, false, nil
		case b.Deleted:
			return a.Value, false, nil
		default:
			merged := make([]byte, 0, len(a.Value)+len(sep)+len(b.Value))
			merged = append(merged, a.Value...)
			merged = append(merged, sep...)
			merged = append(merged, b.Value...)
			return merged, false, nil
		}
	}
}

// shard is one stripe of a replica: an independently locked partition of
// the keyspace.
type shard struct {
	mu   sync.RWMutex
	data map[string]Versioned

	// cold is the checkpoint-resident index of a paged stripe (nil
	// otherwise): per-key metadata whose value bytes live in the checkpoint
	// file, faulted in on demand. See paged.go. Keys in data shadow cold.
	cold *coldStripe

	// tombs maps every currently tombstoned key to the stripe epoch its
	// tombstone was last (re-)established at — the ledger the stamp-safe
	// tombstone GC reads. Maintained eagerly by every mutation path so
	// paged stripes never need a scan to answer "which tombstones, since
	// when".
	tombs map[string]uint64

	// epoch advances on every write-lock acquisition (conservatively: a
	// locked stripe may have mutated). It is the clock of the tombstone
	// ledger.
	epoch atomic.Uint64

	// dirty holds the keys whose stored copy changed since the stripe's
	// digest tree last folded them in (noteDirtyLocked). dirtyCap bounds it,
	// and is zero while there is no tree to maintain: nobody has asked for
	// one, or a whole-stripe change left it due a full build. Guarded by mu:
	// writers hold the write lock, a tree request cacheMu plus the read lock.
	dirty    map[string]struct{}
	dirtyCap int

	// cacheMu guards what readers derive from the stripe. Mutators never
	// touch these fields, so the lock order cacheMu -> mu.RLock can never
	// deadlock against writers, which take mu alone.
	//
	// tree is the stripe's digest tree (tree.go) at the replica's own depth
	// for its key count: built by the first request and patched from the
	// dirty set by each later one. holds counts the trees StripeTree handed
	// out that are not yet released: while it is zero no earlier tree
	// sharing nodes with this one can be reached, and the patch rewrites
	// the tree in place; otherwise it patches a copy. The fold's buffers
	// are borrowed per call (treeScratch), so a stripe keeps only its tree
	// and its dirty set between folds.
	cacheMu sync.Mutex
	tree    *DigestTree
	holds   int

	// quar mirrors the replica's quarantine set for this stripe as a lock-
	// free flag, so the per-write logSet check costs one atomic load. The
	// authoritative record (with the damage report) is Replica.quar.
	quar atomic.Bool

	// removed is set when a key left the stripe with no log entry saying so
	// (DiscardTombstones) since its last full checkpoint. A fold replays
	// the log over the old snapshot, which still holds the key, so the
	// next checkpoint must rewrite the stripe. Guarded by mu.
	removed bool
}

// lockMut write-locks the stripe for a mutation and advances its epoch.
// Unlock with mu.Unlock.
func (sh *shard) lockMut() {
	sh.mu.Lock()
	sh.epoch.Add(1)
}

// noteDirtyLocked records that key's stored copy changed, for the stripe's
// digest tree to fold in on its next request. Forks are noted too: an
// id-only change moves no hash, but leaf runs ship full stamps. A set past
// its cap is dropped for one full build. Stripe write lock held.
func (sh *shard) noteDirtyLocked(key string) {
	switch {
	case sh.dirtyCap == 0:
	case len(sh.dirty) < sh.dirtyCap:
		sh.dirty[key] = struct{}{}
	default:
		sh.dropTreeLocked()
	}
}

// dropTreeLocked leaves the stripe's digest tree due a full build, as any
// wholesale replacement of the stripe must. Stripe write lock held.
func (sh *shard) dropTreeLocked() { sh.dirty, sh.dirtyCap = nil, 0 }

// Replica is one store replica. The label is purely cosmetic — replicas
// have no identity beyond their stamps, which is the point of the paper.
// Replica is safe for concurrent use; see the package comment for the
// shard layout.
type Replica struct {
	label  string
	shards []shard

	// seq is unique per process and fixes the order two replicas' stripe
	// locks are taken in (replicaBefore).
	seq uint64

	// backend, when non-nil, receives every mutation as an appended record
	// before the stripe lock releases (see Open/OpenBackend in durable.go).
	// Replicas built with NewReplica keep it nil: the historical all-in-
	// memory behaviour, with a single pointer check per write as its cost.
	backend *wal.WAL

	// persistMu guards persistErr (the first backend append failure since
	// the last clean checkpoint) and persistSeq (bumped on every failure,
	// letting Checkpoint tell "healed" from "failed again meanwhile").
	// Writes keep succeeding in memory after a persist error; durable
	// deployments check PersistErr (Checkpoint and Close surface it too).
	persistMu  sync.Mutex
	persistErr error
	persistSeq uint64

	// quarMu guards the quarantine record (stripe index -> damage report)
	// and the incremental scrubber's cursor. A quarantined stripe serves
	// reads from memory (nothing, when it was found corrupt at open),
	// refuses durable appends, and waits for peer repair (see
	// QuarantineStripe/RepairStripe in durable.go).
	quarMu      sync.Mutex
	quar        map[int]error
	scrubCursor int

	// Paged residency (see paged.go): the backend re-reads value bytes the
	// stripes dropped, cache bounds how many faulted values stay resident.
	// Both zero for ordinary replicas.
	paged bool
	cache *pagecache.Cache

	// pending parks the group-commit barriers logSet's appends return,
	// drained by awaitDurable after the stripe locks release. drainMu
	// serializes drains, so a mutator whose barrier another drain took
	// returns only once that drain has waited it out. spare, under drainMu,
	// is the queue's second buffer: a drain swaps it in for pending and
	// keeps the drained slice as the next spare.
	pendMu  sync.Mutex
	pending []func() error
	drainMu sync.Mutex
	spare   []func() error
}

// replicaSeq numbers the replicas of this process in construction order.
var replicaSeq atomic.Uint64

// NewReplica creates an empty replica with a cosmetic label and
// DefaultShards stripes.
func NewReplica(label string) *Replica {
	return NewReplicaShards(label, DefaultShards)
}

// NewReplicaShards creates an empty replica striped over n shards
// (n >= 1). A single shard reproduces the pre-sharding behavior: one lock
// over one map.
func NewReplicaShards(label string, n int) *Replica {
	if n < 1 {
		n = 1
	}
	r := &Replica{label: label, shards: make([]shard, n), seq: replicaSeq.Add(1)}
	for i := range r.shards {
		r.shards[i].data = make(map[string]Versioned)
		r.shards[i].tombs = make(map[string]uint64)
	}
	return r
}

// Label returns the cosmetic label.
func (r *Replica) Label() string { return r.label }

// Shards returns the stripe count.
func (r *Replica) Shards() int { return len(r.shards) }

// ShardIndex returns the shard owning key in a replica striped over n
// shards. It is exported so network layers can scope a sync round to one
// stripe and compute the same partition on both endpoints. The partition is
// a 32-bit FNV-1a of the key modulo n; a key still in a frame body is hashed
// in place, as bytes.
func ShardIndex[K string | []byte](key K, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// shardFor returns the stripe owning key.
func (r *Replica) shardFor(key string) *shard {
	return &r.shards[ShardIndex(key, len(r.shards))]
}

// logSet is the one door every per-key mutation leaves through: it notes the
// key for the stripe's digest tree and appends its new state to stripe si's
// durable log. Called with the stripe's write lock held, so the log order is
// exactly the apply order. A backend failure is recorded (first one wins)
// and the in-memory write stands; see PersistErr.
func (r *Replica) logSet(si int, key string, v Versioned) {
	r.shards[si].noteDirtyLocked(key)
	if r.backend == nil {
		return
	}
	if r.shards[si].quar.Load() {
		// Quarantined: the durable log is damaged and latched; nothing may
		// land after the bad bytes. The in-memory write stands (repair will
		// checkpoint the full stripe state), and PersistErr already reports
		// the quarantine.
		return
	}
	// Stage the append under the stripe lock (preserving log order) and
	// park the group-commit barrier, if any; the public mutator drains it
	// after the lock releases, so many writers' appends share one fsync.
	// Nothing is acknowledged before the barrier resolves.
	e := encoding.Entry{Key: key, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp}
	wait, err := r.backend.AppendAsync(si, e)
	if err != nil {
		r.notePersistErr(err)
		return
	}
	if wait != nil {
		r.enqueueWait(wait)
	}
}

func (r *Replica) notePersistErr(err error) {
	r.persistMu.Lock()
	r.persistSeq++
	if r.persistErr == nil {
		r.persistErr = err
	}
	r.persistMu.Unlock()
}

// PersistErr returns the first backend append failure, or nil. In-memory
// state is still correct after a persist error; only durability of the
// writes since then is in doubt.
func (r *Replica) PersistErr() error {
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	return r.persistErr
}

// Clone forks a full new replica from r: every key's stamp forks, the new
// replica receiving one descendant. This is replica creation under
// partition: no identifiers are requested from anywhere. The clone has the
// same shard count and shares each stored value buffer, which no path
// writes into (Get's contract). Each stripe is cloned atomically;
// concurrent writers touching other stripes are not blocked.
func (r *Replica) Clone(label string) *Replica {
	clone := NewReplicaShards(label, len(r.shards))
	for i := range r.shards {
		sh := &r.shards[i]
		sh.lockMut()
		// Forking mutates every key's stamp, so a paged stripe is promoted
		// wholesale: after a Clone the source stripe is fully hot until its
		// next checkpoint.
		if err := r.promoteStripeLocked(i); err != nil {
			r.notePersistErr(err)
		}
		ce := clone.shards[i].epoch.Load()
		for k, v := range sh.data {
			mine, theirs := v.Stamp.Fork()
			v.Stamp = mine
			sh.data[k] = v
			r.logSet(i, k, v)
			cv := v
			cv.Stamp = theirs
			clone.shards[i].data[k] = cv
			if cv.Deleted {
				clone.shards[i].tombs[k] = ce
			}
		}
		sh.mu.Unlock()
	}
	r.awaitDurable()
	return clone
}

// Get returns the value of key. Tombstoned and missing keys report ok=false.
//
// The returned slice is immutable by contract and must not be modified: hot
// reads hand out the stored buffer itself and paged reads hand out the page
// cache's buffer, so a Get is zero-copy. No path writes into a stored
// buffer, and replicas in one process may share one, so a buffer obtained
// here never changes under the caller.
func (r *Replica) Get(key string) (value []byte, ok bool) {
	si := ShardIndex(key, len(r.shards))
	sh := &r.shards[si]
	sh.mu.RLock()
	if v, found := sh.data[key]; found {
		sh.mu.RUnlock()
		if v.Deleted {
			return nil, false
		}
		return v.Value, true
	}
	cs := sh.cold
	if cs == nil {
		sh.mu.RUnlock()
		return nil, false
	}
	// Cache probe before the index: a hot key that is already faulted in
	// skips the binary search entirely (see coldValue for why a name hit is
	// always a current live value).
	if buf, hit := r.cache.Lookup(pagecache.Key{Shard: si, Gen: cs.gen, Name: key}); hit {
		sh.mu.RUnlock()
		return buf, true
	}
	x := cs.find(key)
	if x < 0 || cs.dropped[x] || cs.deleted[x] {
		sh.mu.RUnlock()
		return nil, false
	}
	buf, err := r.coldValue(si, cs, x, key)
	sh.mu.RUnlock()
	if err != nil {
		r.notePersistErr(fmt.Errorf("kvstore: get %q (shard %d): %w", key, si, err))
		return nil, false
	}
	return buf, true
}

// Put writes a value, recording an update on the key's stamp (seeding the
// stamp on first write at this replica).
func (r *Replica) Put(key string, value []byte) {
	si := ShardIndex(key, len(r.shards))
	sh := &r.shards[si]
	sh.lockMut()
	r.logSet(si, key, r.putLocked(si, key, value))
	sh.mu.Unlock()
	r.awaitDurable()
}

// putLocked applies one write to stripe si. The prior stamp is taken from
// the hot map or, for paged stripes, the cold index — overwriting a paged
// key never faults its old value in. Stripe write lock held.
func (r *Replica) putLocked(si int, key string, value []byte) Versioned {
	sh := &r.shards[si]
	v, found := sh.data[key]
	if !found {
		if cs := sh.cold; cs != nil {
			if x := cs.find(key); x >= 0 && !cs.dropped[x] {
				v, found = Versioned{Deleted: cs.deleted[x], Stamp: cs.stamps[x]}, true
			}
		}
	}
	if !found {
		v = Versioned{Stamp: core.Seed()}
	}
	v.Value = append([]byte(nil), value...)
	v.Deleted = false
	v.Stamp = v.Stamp.Update()
	sh.data[key] = v
	delete(sh.tombs, key)
	return v
}

// PutVersion stores a copy verbatim — value, tombstone flag and stamp —
// without recording an update. It exists for storage adapters that manage
// stamps themselves (e.g. the panasync bridge, which keeps stamps in file
// sidecars); regular writers should use Put.
func (r *Replica) PutVersion(key string, v Versioned) {
	si := ShardIndex(key, len(r.shards))
	sh := &r.shards[si]
	sh.lockMut()
	v.Value = append([]byte(nil), v.Value...)
	sh.data[key] = v
	sh.noteTombLocked(key)
	r.logSet(si, key, v)
	sh.mu.Unlock()
	r.awaitDurable()
}

// Delete tombstones a key. Deleting a key never seen at this replica is a
// no-op returning false.
func (r *Replica) Delete(key string) bool {
	si := ShardIndex(key, len(r.shards))
	sh := &r.shards[si]
	sh.lockMut()
	v, ok := r.deleteLocked(si, key)
	if ok {
		r.logSet(si, key, v)
	}
	sh.mu.Unlock()
	r.awaitDurable()
	return ok
}

// deleteLocked tombstones key in stripe si, recording the delete in the
// tombstone ledger at the current epoch. Like putLocked, the prior stamp may
// come from the cold index without faulting the old value. Stripe write lock
// held (epoch bumped by lockMut).
func (r *Replica) deleteLocked(si int, key string) (Versioned, bool) {
	sh := &r.shards[si]
	v, found := sh.data[key]
	if !found {
		if cs := sh.cold; cs != nil {
			if x := cs.find(key); x >= 0 && !cs.dropped[x] {
				v, found = Versioned{Deleted: cs.deleted[x], Stamp: cs.stamps[x]}, true
			}
		}
	}
	if !found || v.Deleted {
		return Versioned{}, false
	}
	v.Value = nil
	v.Deleted = true
	v.Stamp = v.Stamp.Update()
	sh.data[key] = v
	sh.tombs[key] = sh.epoch.Load()
	return v, true
}

// PutBatch writes every entry, taking each involved shard lock exactly
// once instead of once per key.
func (r *Replica) PutBatch(entries map[string][]byte) {
	if len(entries) == 0 {
		return
	}
	for _, group := range r.groupKeys(keysOf(entries)) {
		sh := &r.shards[group.shard]
		sh.lockMut()
		for _, k := range group.keys {
			r.logSet(group.shard, k, r.putLocked(group.shard, k, entries[k]))
		}
		sh.mu.Unlock()
	}
	r.awaitDurable()
}

// keyGroup is a batch's keys owned by one shard.
type keyGroup struct {
	shard int
	keys  []string
}

// groupKeys partitions keys by owning shard. Group order is irrelevant:
// batch operations hold at most one stripe lock at a time, so they cannot
// deadlock regardless of iteration order.
func (r *Replica) groupKeys(keys []string) []keyGroup {
	n := len(r.shards)
	byShard := make(map[int][]string, n)
	for _, k := range keys {
		i := ShardIndex(k, n)
		byShard[i] = append(byShard[i], k)
	}
	out := make([]keyGroup, 0, len(byShard))
	for i, ks := range byShard {
		out = append(out, keyGroup{shard: i, keys: ks})
	}
	return out
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Version returns the stored copy of a key including its stamp and
// tombstone state. Unlike Get, the returned value is the caller's own copy.
func (r *Replica) Version(key string) (Versioned, bool) {
	v, ok := r.Stored(key)
	if ok {
		v.Value = append([]byte(nil), v.Value...)
	}
	return v, ok
}

// Stored is Version without the copy: the returned value is the stored
// buffer (or a paged copy's page-cache buffer), immutable by Get's contract.
func (r *Replica) Stored(key string) (Versioned, bool) {
	si := ShardIndex(key, len(r.shards))
	sh := &r.shards[si]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, cold, ok := sh.storedLocked(key)
	v, err := r.loadLocked(si, key, v, cold)
	if err != nil {
		r.notePersistErr(fmt.Errorf("kvstore: version %q (shard %d): %w", key, si, err))
		return Versioned{}, false
	}
	return v, ok
}

// Meta returns key's stored stamp and tombstone flag, and whether the key
// has stored state: Version without the value. It copies nothing and never
// faults a cold paged copy in, so a caller that only orders copies by their
// stamps (a quorum read) pays no value copy and no page-cache miss. The
// returned Value is always nil.
func (r *Replica) Meta(key string) (Versioned, bool) {
	sh := &r.shards[ShardIndex(key, len(r.shards))]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.metaLocked(key)
}

// Keys returns all keys with stored state (including tombstones), sorted.
func (r *Replica) Keys() []string {
	var out []string
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		sh.eachLocked(func(k string, _ Versioned, _ int) {
			out = append(out, k)
		})
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live (non-tombstoned) keys.
func (r *Replica) Len() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		sh.eachLocked(func(_ string, v Versioned, _ int) {
			if !v.Deleted {
				n++
			}
		})
		sh.mu.RUnlock()
	}
	return n
}

// SyncResult reports the outcome of one Sync.
type SyncResult struct {
	// Transferred counts keys copied to a replica that lacked them.
	Transferred int
	// Reconciled counts keys where one side dominated.
	Reconciled int
	// Merged counts conflicting keys merged by the resolver.
	Merged int
	// Pruned counts keys whose stamps proved that no data needed to move:
	// keys whose digests traveled in a wire round, and detached copies that
	// MergeVersioned absorbed into a current local copy. In-process syncs of
	// held copies report zero.
	Pruned int
	// StripesSkipped counts stripes whose digest-tree roots matched in a
	// wire round, so nothing below the root traveled. Keys in skipped
	// stripes are not counted in Pruned — the whole point is that nobody
	// enumerated them.
	StripesSkipped int
	// BytesSent and BytesReceived count wire payload bytes from the
	// initiator's perspective. In-process syncs report zero; the network
	// anti-entropy layer fills them in.
	BytesSent     int64
	BytesReceived int64
	// Conflicts lists conflicting keys left untouched (nil resolver),
	// sorted.
	Conflicts []string
}

// add accumulates another partial result.
func (r *SyncResult) add(o SyncResult) {
	r.Transferred += o.Transferred
	r.Reconciled += o.Reconciled
	r.Merged += o.Merged
	r.Pruned += o.Pruned
	r.StripesSkipped += o.StripesSkipped
	r.BytesSent += o.BytesSent
	r.BytesReceived += o.BytesReceived
	r.Conflicts = append(r.Conflicts, o.Conflicts...)
}

// Add accumulates another result into r — the aggregation network layers use
// when a logical round is split into per-stripe rounds. Conflicts are
// concatenated unsorted; callers sort once at the end.
func (r *SyncResult) Add(o SyncResult) { r.add(o) }

// replicaBefore orders two distinct replicas for deadlock-free lock
// acquisition.
func replicaBefore(a, b *Replica) bool { return a.seq < b.seq }

// Sync performs pairwise anti-entropy between two replicas: every key known
// to either side converges on both, except conflicting keys when resolve is
// nil, which are reported in SyncResult.Conflicts and left for a later sync
// with a resolver. The replicas must have the same shard count; Sync
// refuses any other pair and changes neither side.
//
// Shard pairs are reconciled concurrently (one worker per stripe, capped at
// GOMAXPROCS): the keyspace is never serialized under a single lock, and
// only the two stripes under reconciliation are blocked at any moment. Locks
// are taken in a global order (replica sequence number, then stripe index),
// so concurrent syncs of overlapping pairs cannot deadlock.
func Sync(a, b *Replica, resolve Resolver) (SyncResult, error) {
	if a == b {
		return SyncResult{}, fmt.Errorf("kvstore: sync of a replica with itself")
	}
	if len(a.shards) != len(b.shards) {
		return SyncResult{}, fmt.Errorf("kvstore: sync of a %d-stripe replica with a %d-stripe one",
			len(a.shards), len(b.shards))
	}
	res, err := syncStriped(a, b, resolve)
	a.awaitDurable()
	b.awaitDurable()
	sort.Strings(res.Conflicts)
	return res, err
}

// syncStriped reconciles same-layout replicas stripe pair by stripe pair,
// concurrently.
func syncStriped(a, b *Replica, resolve Resolver) (SyncResult, error) {
	nShards := len(a.shards)
	workers := runtime.GOMAXPROCS(0)
	if workers > nShards {
		workers = nShards
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		mu       sync.Mutex
		res      SyncResult
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nShards || failed.Load() {
					return
				}
				first, second := &a.shards[i], &b.shards[i]
				if !replicaBefore(a, b) {
					first, second = second, first
				}
				first.lockMut()
				second.lockMut()
				part, err := syncStripe(a, b, i, resolve)
				second.mu.Unlock()
				first.mu.Unlock()
				mu.Lock()
				res.add(part)
				if err != nil && firstErr == nil {
					firstErr = err
					failed.Store(true)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res, firstErr
}

// syncStripe reconciles, in key order, the union of the keys stripe i of a
// and of b hold. Both stripes' write locks must be held.
func syncStripe(a, b *Replica, i int, resolve Resolver) (SyncResult, error) {
	as, bs := &a.shards[i], &b.shards[i]
	keys := make(map[string]struct{}, as.countLocked()+bs.countLocked())
	collect := func(k string, _ Versioned, _ int) { keys[k] = struct{}{} }
	as.eachLocked(collect)
	bs.eachLocked(collect)
	var res SyncResult
	for _, k := range sortedKeys(keys) {
		cs := [2]keyCopy{a.heldLocked(k), b.heldLocked(k)}
		part, err := reconcile(k, cs[:], resolve, false)
		res.add(part)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

func sortedKeys(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
