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
// shard count — and each shard guards its own keys with its own
// sync.RWMutex. Point operations (Put/Get/Delete/Version) therefore
// contend only with operations on the same shard; PutBatch groups keys
// by shard and takes each shard lock once; and Sync reconciles shard pairs
// concurrently, one goroutine per stripe, instead of serializing the whole
// keyspace under a single lock. Because version stamps track causality per
// key, no cross-shard coordination is ever needed for correctness —
// sharding changes only the locking granularity, never the
// fork/update/join semantics.
//
// A shard keeps its keys as an overlay over a base. The base is sorted in
// tree order (the digest tree's order, see tree.go) and holds each key's
// stamp, term, position and value — or, in a paged stripe (paged.go), it is
// a cold index holding each value's location on disk. The overlay is a map
// that shadows the base: a lookup reads it first, and enumeration takes the
// overlay and the base keys it does not shadow. A write to a key the base
// holds rewrites the key's slot in place. The overlay takes what cannot go
// there: new keys, which the next tree request, checkpoint or Clone merges
// in as one batch; writes that land while a round holds the stripe's tree,
// so that the snapshot it reads never moves; and every write to a paged
// stripe until its next checkpoint.
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
	"slices"
	"sort"
	"strings"
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
// the keyspace, kept as an overlay over a base (see the package comment).
type shard struct {
	mu sync.RWMutex

	// keys, pos and vals are a hot stripe's base, its keys in tree order:
	// keys[x] holds key x, its stamp and, once the stripe has a tree, its
	// term; pos[x] its tree position; vals[x] its value. Allocated exactly
	// sized; a discard leaves room at the end for the next insertion. cold
	// is a paged stripe's base instead (paged.go). over is the overlay that
	// shadows either.
	keys []encoding.Termed
	pos  []uint64
	vals []cell
	cold *coldStripe
	over map[string]Versioned

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

	// tree is the stripe's digest tree (tree.go), nil until a peer asks for
	// one; a hot stripe's indexes its base. moved records a write since the
	// last tree request. holds counts the trees StripeTree handed out and
	// not yet released: while one is out, the base and the tree are frozen.
	// Writers read holds under the write lock, and a hold is taken under the
	// lock too (read suffices).
	tree  *DigestTree
	moved bool
	holds atomic.Int32

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

// cell is a base slot's value half.
type cell struct {
	value   []byte
	deleted bool
}

// lockMut write-locks the stripe for a mutation and advances its epoch.
// Unlock with mu.Unlock.
func (sh *shard) lockMut() {
	sh.mu.Lock()
	sh.epoch.Add(1)
}

// overKeep is the largest overlay whose room a merge keeps for the next.
const overKeep = 64

// search returns the place of key, at tree position pos, in the base: its
// index and true, or where it would go and false. A stripe with a tree
// searches only the key's leaf. Hot stripes only.
func (sh *shard) search(pos uint64, key string) (int, bool) {
	lo, hi := 0, len(sh.keys)
	if sh.tree != nil {
		lo, hi = sh.tree.leafSpan(pos)
	}
	x := seek(sh.keys, sh.pos, lo, hi, pos, key)
	return x, x < len(sh.keys) && sh.keys[x].Key == key
}

// setLocked stores v as key's copy: in place when the key is in a hot
// stripe's base, the overlay does not shadow it and no more than own holds
// are out — own being the holds the caller has itself, 1 for a round's
// apply, which is the last reader of its snapshot — and else in the overlay.
// Stripe write lock held.
func (sh *shard) setLocked(key string, v Versioned, own int32) {
	sh.moved = true
	if sh.cold == nil && sh.holds.Load() <= own {
		if _, shadowed := sh.over[key]; !shadowed {
			if x, ok := sh.search(encoding.TreePos(key), key); ok {
				sh.writeSlot(x, v)
				return
			}
		}
	}
	sh.over[key] = v
}

// writeSlot overwrites base slot x with v. Under a tree it re-terms the key
// and XORs the change into the key's path; a fork, which moves no term,
// moves no hash.
func (sh *shard) writeSlot(x int, v Versioned) {
	k := &sh.keys[x]
	k.Stamp = v.Stamp
	sh.vals[x] = cell{v.Value, v.Deleted}
	if t := sh.tree; t != nil {
		old := k.Term
		k.Term = term(k.Digest, v.Deleted, v.Value)
		t.patch(sh.pos[x], old^k.Term)
	}
}

// pending is a key on its way into a base: its tree position, copy and
// (insertLocked) the index in the old base it goes before.
type pending struct {
	pos uint64
	at  int
	key string
	v   Versioned
}

func cmpPending(a, b pending) int { return cmpPosKey(a.pos, a.key, b.pos, b.key) }

// mergeLocked folds a hot stripe's overlay into its base in place: a key the
// base holds is rewritten in its slot, and the new keys are inserted in one
// pass, into the base's own arrays when they have room and else into
// exactly sized new ones. No hold may be out on the base (detachLocked
// makes one that none is on). Stripe write lock held.
func (sh *shard) mergeLocked() {
	if len(sh.over) == 0 {
		return
	}
	var ins []pending
	for k, v := range sh.over {
		pos := encoding.TreePos(k)
		if x, ok := sh.search(pos, k); ok {
			sh.writeSlot(x, v)
			continue
		}
		ins = append(ins, pending{pos: pos, key: k, v: v})
	}
	if len(sh.over) > overKeep {
		sh.over = make(map[string]Versioned)
	} else {
		clear(sh.over)
	}
	if len(ins) > 0 {
		sh.insertLocked(ins)
	}
}

// insertLocked inserts ins, none of which the base holds, into the base.
func (sh *shard) insertLocked(ins []pending) {
	slices.SortFunc(ins, cmpPending)
	for j := range ins {
		ins[j].at, _ = sh.search(ins[j].pos, ins[j].key)
	}
	old, n := len(sh.keys), len(sh.keys)+len(ins)
	keys, pos, vals := sh.keys[:cap(sh.keys)], sh.pos[:cap(sh.pos)], sh.vals[:cap(sh.vals)]
	if len(keys) < n || len(pos) < n || len(vals) < n {
		keys, pos, vals = make([]encoding.Termed, n), make([]uint64, n), make([]cell, n)
		at := ins[0].at
		copy(keys, sh.keys[:at])
		copy(pos, sh.pos[:at])
		copy(vals, sh.vals[:at])
	}
	keys, pos, vals = keys[:n], pos[:n], vals[:n]
	// From the back, so that in the base's own arrays no slot is written
	// before it is moved.
	end := old
	for j := len(ins) - 1; j >= 0; j-- {
		in, at := &ins[j], ins[j].at
		copy(keys[at+j+1:], sh.keys[at:end])
		copy(pos[at+j+1:], sh.pos[at:end])
		copy(vals[at+j+1:], sh.vals[at:end])
		k := encoding.Termed{Digest: encoding.Digest{Key: in.key, Stamp: in.v.Stamp}}
		if sh.tree != nil {
			k.Term = term(k.Digest, in.v.Deleted, in.v.Value)
		}
		keys[at+j], pos[at+j], vals[at+j] = k, in.pos, cell{in.v.Value, in.v.Deleted}
		end = at
	}
	sh.keys, sh.pos, sh.vals = keys, pos, vals
	sh.reindexLocked()
}

// removeLocked drops base slots xs (ascending) in place. The room they leave
// stays with the base. No hold may be out on the base. Stripe write lock
// held.
func (sh *shard) removeLocked(xs []int) {
	w := xs[0]
	for i, x := range xs {
		end := len(sh.keys)
		if i+1 < len(xs) {
			end = xs[i+1]
		}
		copy(sh.keys[w:], sh.keys[x+1:end])
		copy(sh.pos[w:], sh.pos[x+1:end])
		copy(sh.vals[w:], sh.vals[x+1:end])
		w += end - x - 1
	}
	clear(sh.keys[w:]) // pin no key, stamp or value the base dropped
	clear(sh.vals[w:])
	sh.keys, sh.pos, sh.vals = sh.keys[:w], sh.pos[:w], sh.vals[:w]
	sh.reindexLocked()
}

// reindexLocked lays the stripe's tree, if it has one, over its base again
// after keys were inserted or removed, at the depth the new count calls
// for: one pass over the base, which is in the arrays the tree had unless
// the depth moved.
func (sh *shard) reindexLocked() {
	if sh.tree != nil {
		sh.tree.index(sh.keys, sh.pos, TreeDepth(len(sh.keys)))
	}
}

// detachLocked gives a hot stripe a copy of its base and tree, so that the
// merge or removal that follows writes nothing a hold can still read. The
// holds stay counted: they hold the old base.
func (sh *shard) detachLocked() {
	sh.keys, sh.pos, sh.vals = slices.Clone(sh.keys), slices.Clone(sh.pos), slices.Clone(sh.vals)
	if t := sh.tree; t != nil {
		sh.tree = &DigestTree{depth: t.depth, keys: sh.keys, pos: sh.pos, hash: slices.Clone(t.hash), ends: slices.Clone(t.ends)}
	}
}

// installBase makes ps, in any order, a hot stripe's base, sized exactly,
// with no tree. Stripe write lock held, or the stripe not yet shared.
func (sh *shard) installBase(ps []pending) {
	slices.SortFunc(ps, cmpPending)
	sh.keys, sh.pos, sh.vals = make([]encoding.Termed, len(ps)), make([]uint64, len(ps)), make([]cell, len(ps))
	for i := range ps {
		p := &ps[i]
		sh.keys[i].Digest = encoding.Digest{Key: p.key, Stamp: p.v.Stamp}
		sh.pos[i], sh.vals[i] = p.pos, cell{p.v.Value, p.v.Deleted}
	}
	sh.tree = nil
}

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
		r.shards[i].over = make(map[string]Versioned)
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

// logSet is the one door every per-key mutation leaves through: it appends
// the key's new state to stripe si's durable log. Called with the stripe's
// write lock held, so the log order is exactly the apply order. A backend
// failure is recorded (first one wins) and the in-memory write stands; see
// PersistErr.
func (r *Replica) logSet(si int, key string, v Versioned) {
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

// storeLocked installs v as key's copy in stripe si (shard.setLocked),
// re-stamps the key's tombstone ledger entry — a tombstone at the current
// epoch, a live copy none — and logs it. Stripe write lock held, epoch
// bumped by lockMut.
func (r *Replica) storeLocked(si int, key string, v Versioned, own int32) {
	sh := &r.shards[si]
	sh.setLocked(key, v, own)
	if v.Deleted {
		sh.tombs[key] = sh.epoch.Load()
	} else {
		delete(sh.tombs, key)
	}
	r.logSet(si, key, v)
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
//
// A fork moves ids only, which no digest-tree term covers, so a hot stripe's
// clone takes a copy of its base with the terms and the tree's hashes: the
// stripe's tree is built first if it has none, and neither replica's next
// round hashes anything. A paged stripe's keys are faulted in and forked
// into its overlay, so after a Clone the source stripe is fully resident
// until its next checkpoint.
func (r *Replica) Clone(label string) *Replica {
	clone := NewReplicaShards(label, len(r.shards))
	for i := range r.shards {
		sh, csh := &r.shards[i], &clone.shards[i]
		sh.lockMut()
		sh.moved = true
		ce := csh.epoch.Load()
		// fork forks v's stamp, logs the source's half and returns the
		// clone's.
		fork := func(k string, v Versioned) (mine, theirs core.Stamp) {
			mine, theirs = v.Stamp.Fork()
			v.Stamp = mine
			r.logSet(i, k, v)
			if v.Deleted {
				csh.tombs[k] = ce
			}
			return mine, theirs
		}
		if sh.cold != nil {
			var ps []pending
			sh.eachLocked(func(k string, v Versioned, cold int) {
				if v, err := r.loadLocked(i, k, v, cold); err != nil {
					r.notePersistErr(fmt.Errorf("kvstore: clone %q (shard %d): %w", k, i, err))
				} else {
					ps = append(ps, pending{pos: encoding.TreePos(k), key: strings.Clone(k), v: v})
				}
			})
			for j := range ps {
				p := &ps[j]
				mine := p.v
				mine.Stamp, p.v.Stamp = fork(p.key, p.v)
				sh.over[p.key] = mine
			}
			csh.installBase(ps)
		} else {
			if sh.holds.Load() > 0 {
				sh.detachLocked()
			}
			sh.mergeLocked()
			sh.termLocked()
			csh.keys, csh.pos, csh.vals, csh.tree = sh.keys, sh.pos, sh.vals, sh.tree
			csh.detachLocked()
			for x := range sh.keys {
				k, c := &sh.keys[x], sh.vals[x]
				k.Stamp, csh.keys[x].Stamp = fork(k.Key, Versioned{Value: c.value, Deleted: c.deleted, Stamp: k.Stamp})
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
	v, found := sh.over[key]
	cs := sh.cold
	if !found && cs == nil {
		var x int
		if x, found = sh.search(encoding.TreePos(key), key); found {
			v = sh.slot(x)
		}
	}
	if found || cs == nil {
		sh.mu.RUnlock()
		if !found || v.Deleted {
			return nil, false
		}
		return v.Value, true
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
// the stripe's metadata — overwriting a paged key never faults its old value
// in. Stripe write lock held.
func (r *Replica) putLocked(si int, key string, value []byte) Versioned {
	sh := &r.shards[si]
	v, found := sh.metaLocked(key)
	if !found {
		v = Versioned{Stamp: core.Seed()}
	}
	v.Value = append([]byte(nil), value...)
	v.Deleted = false
	v.Stamp = v.Stamp.Update()
	sh.setLocked(key, v, 0)
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
	r.storeLocked(si, key, v, 0)
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
// tombstone ledger at the current epoch. Like putLocked, it reads the prior
// stamp without faulting the old value. Stripe write lock held (epoch bumped
// by lockMut).
func (r *Replica) deleteLocked(si int, key string) (Versioned, bool) {
	sh := &r.shards[si]
	v, found := sh.metaLocked(key)
	if !found || v.Deleted {
		return Versioned{}, false
	}
	v.Deleted = true
	v.Stamp = v.Stamp.Update()
	sh.setLocked(key, v, 0)
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
