package kvstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"versionstamp/internal/encoding"
	"versionstamp/internal/pagecache"
	"versionstamp/internal/storage/wal"
)

// Durable replicas: a Replica whose mutations are appended, stripe by
// stripe, to a write-ahead log (package wal) before the stripe lock
// releases. Restart is local — load each stripe's latest snapshot, replay
// the entries folded into it, then its log tail — so a replica comes back
// after a crash with every acknowledged write and the exact stamps it had,
// and anti-entropy picks up precisely where it left off. No peer, and no
// whole-state snapshot, is needed to restart.

// Options configures Open.
type Options struct {
	// Label is the replica's cosmetic label, used only when the directory is
	// fresh; reopened directories keep their recorded label.
	Label string
	// Shards is the stripe count for a fresh directory (0 = DefaultShards).
	// Reopening a directory with a different non-zero Shards is an error:
	// the layout is part of the durable state.
	Shards int
}

// metaFile records the immutable facts of a data directory.
const metaFile = "meta.json"

type metaDoc struct {
	Label  string `json:"label"`
	Shards int    `json:"shards"`
}

// Open opens (creating if needed) a WAL-backed replica in dir. Every write
// that returns is on disk — in the stripe's log, or in its checkpoint after
// Checkpoint — and reopening the directory reconstructs the replica from
// snapshots, their folds and log tails, torn tail records truncated away
// by the WAL.
// Writes survive process crashes (the OS holds the bytes) but not power
// loss; a caller that needs group commit or paging opens the WAL itself
// (wal.Options.GroupCommit) and hands it to OpenBackend or
// OpenBackendPaged.
// Close checkpoints and releases the directory; a replica that crashes
// without Close just replays more log on the next Open.
func Open(dir string, opts Options) (*Replica, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: open %s: %w", dir, err)
	}
	meta, err := loadOrInitMeta(dir, opts)
	if err != nil {
		return nil, err
	}
	be, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("kvstore: open %s: %w", dir, err)
	}
	r, err := OpenBackend(be, meta.Label, meta.Shards)
	if err != nil {
		_ = be.Close()
		return nil, err
	}
	return r, nil
}

// loadOrInitMeta reads dir's metadata, creating it for a fresh directory.
func loadOrInitMeta(dir string, opts Options) (metaDoc, error) {
	path := filepath.Join(dir, metaFile)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		var meta metaDoc
		if err := json.Unmarshal(raw, &meta); err != nil {
			return metaDoc{}, fmt.Errorf("kvstore: open %s: bad metadata: %w", dir, err)
		}
		if meta.Shards < 1 || meta.Shards > maxSnapshotShards {
			return metaDoc{}, fmt.Errorf("kvstore: open %s: bad recorded stripe count %d", dir, meta.Shards)
		}
		if opts.Shards != 0 && opts.Shards != meta.Shards {
			return metaDoc{}, fmt.Errorf("kvstore: open %s: directory records %d stripes, options ask %d",
				dir, meta.Shards, opts.Shards)
		}
		return meta, nil
	case errors.Is(err, fs.ErrNotExist):
		if opts.Shards > maxSnapshotShards {
			// Reopen enforces the same bound; accepting more here would
			// create a directory that can never be opened again.
			return metaDoc{}, fmt.Errorf("kvstore: open %s: %d stripes exceeds limit %d",
				dir, opts.Shards, maxSnapshotShards)
		}
		meta := metaDoc{Label: opts.Label, Shards: opts.Shards}
		if meta.Shards < 1 {
			meta.Shards = DefaultShards
		}
		doc, err := json.Marshal(meta)
		if err != nil {
			return metaDoc{}, err
		}
		// Atomic + durable: a crash mid-creation must leave no half-written
		// metadata that would brick the directory.
		if err := wal.WriteFileAtomic(path, doc); err != nil {
			return metaDoc{}, fmt.Errorf("kvstore: open %s: %w", dir, err)
		}
		return meta, nil
	default:
		return metaDoc{}, fmt.Errorf("kvstore: open %s: %w", dir, err)
	}
}

// OpenBackend builds a replica over an open WAL: each stripe's checkpoint
// is loaded and its log replayed in order, then the WAL starts receiving
// every new mutation. The WAL must not be shared between replicas; once
// OpenBackend succeeds the replica owns it (Close and Abandon close it).
//
// A stripe whose durable bytes are corrupt (the WAL reports a
// *wal.CorruptError) does not fail the open: the stripe comes up empty
// and quarantined — durable appends are refused, PersistErr reports the
// damage — and peer repair (RepairStripe after an anti-entropy rebuild)
// restores it. The intact prefix the backend streamed is discarded, not
// served: it is a rollback, and a rolled-back copy carries a stamp id the
// stripe has since forked away, a prefix of ids handed out later. Stamp
// order is only defined between ids of one fork-join frontier, so that
// copy would compare as independently created against every co-owner's and
// wedge (or, with a resolver, resurrect the stale value into the merge).
// Emptied, the rebuild is pure transfer. The price: a store with no peers
// loses the readable prefix of a damaged stripe along with its tail. Only
// corruption is tolerated this way; replay I/O failures still fail the
// whole open.
func OpenBackend(be *wal.WAL, label string, shards int) (*Replica, error) {
	return openBackend(be, label, shards, false, 0)
}

// OpenBackendPaged is OpenBackend with value paging: checkpointed entries
// keep only per-key metadata (stamp, tombstone flag, value location)
// resident, and value bytes fault in from the checkpoint files through a
// cache of cacheBytes (DefaultCacheBytes when not positive). See paged.go.
func OpenBackendPaged(be *wal.WAL, label string, shards int, cacheBytes int64) (*Replica, error) {
	return openBackend(be, label, shards, true, cacheBytes)
}

func openBackend(be *wal.WAL, label string, shards int, paged bool, cacheBytes int64) (*Replica, error) {
	r := NewReplicaShards(label, shards)
	if paged {
		if cacheBytes <= 0 {
			cacheBytes = DefaultCacheBytes
		}
		r.paged, r.cache = true, pagecache.New(cacheBytes)
	}
	n := len(r.shards) // NewReplicaShards clamps to >= 1
	damaged := make(map[int]error)
	for i := 0; i < n; i++ {
		sh := &r.shards[i]
		r.emptyStripe(sh)
		err := be.ReplayShard(i,
			func(snap []byte) error { return r.loadShardCheckpoint(i, snap) },
			func(e encoding.Entry) error {
				if ShardIndex(e.Key, n) != i {
					return fmt.Errorf("kvstore: replay shard %d: key %q belongs to shard %d",
						i, e.Key, ShardIndex(e.Key, n))
				}
				sh.setLocked(e.Key, Versioned{Value: e.Value, Deleted: e.Deleted, Stamp: e.Stamp}, 0)
				if e.Deleted {
					sh.tombs[e.Key] = 0
				} else {
					delete(sh.tombs, e.Key)
				}
				return nil
			})
		if err != nil {
			var ce *wal.CorruptError
			if !errors.As(err, &ce) {
				return nil, err
			}
			damaged[i] = err
			r.emptyStripe(sh)
		}
		if r.paged && sh.cold != nil {
			// The checkpoint callback stored payload-relative value offsets
			// (the region isn't known mid-replay); anchor them now.
			gen, base := be.CheckpointRegion(i)
			cs := sh.cold
			cs.gen, cs.base = gen, base
			for x := range cs.offs {
				if cs.lens[x] > 0 {
					cs.offs[x] += base
				}
			}
		}
	}
	r.backend = be
	for i, err := range damaged {
		r.QuarantineStripe(i, err)
	}
	return r, nil
}

// emptyStripe empties sh: a paged replica's stripe gets an empty cold index
// as its base, which makes it paged.
func (r *Replica) emptyStripe(sh *shard) {
	sh.keys, sh.pos, sh.vals, sh.cold = nil, nil, nil, nil
	if r.paged {
		sh.cold = &coldStripe{koffs: []uint32{0}}
	}
	sh.over = make(map[string]Versioned)
	sh.tombs = make(map[string]uint64)
}

// loadShardCheckpoint installs stripe i's checkpoint, reading it once. A
// hot stripe's base takes its own copy of each value, in tree order. A paged
// stripe keeps keys,
// stamps, tombstone flags and value locations resident as its cold index,
// and the value bytes stay in the checkpoint file; the offsets are
// payload-relative here, and openBackend anchors them against the checkpoint
// region once the replay returns.
//
// A checkpoint that does not decode is at-rest damage the WAL's checksum did
// not catch (it guards the bytes, not what they mean): it is scoped to the
// stripe like any other corruption. A key that belongs to another stripe is
// a layout mistake, not damage: it fails the open, as the log replay's own
// check does.
func (r *Replica) loadShardCheckpoint(i int, snap []byte) error {
	if len(snap) == 0 {
		return nil
	}
	sh := &r.shards[i]
	var cs *coldStripe
	var blob []byte
	var ps []pending
	if r.paged {
		cs = &coldStripe{koffs: []uint32{0}}
	}
	var misplaced error
	err := decodeBinarySnapshotMeta(snap, func(e checkpointEntry) error {
		if j := ShardIndex(e.key, len(r.shards)); j != i {
			misplaced = fmt.Errorf("kvstore: shard %d checkpoint: key %q belongs to shard %d", i, e.key, j)
			return misplaced
		}
		if e.deleted {
			sh.tombs[e.key] = 0
		}
		if cs != nil {
			blob = cs.add(blob, e)
			return nil
		}
		v := Versioned{Deleted: e.deleted, Stamp: e.stamp}
		if e.valOff >= 0 {
			v.Value = append([]byte(nil), snap[e.valOff:e.valOff+e.valLen]...)
		}
		ps = append(ps, pending{pos: encoding.TreePos(e.key), key: e.key, v: v})
		return nil
	})
	switch {
	case misplaced != nil:
		return misplaced
	case err != nil:
		return &wal.CorruptError{Shard: i, Err: fmt.Errorf("kvstore: shard %d checkpoint: %w", i, err)}
	case cs != nil:
		cs.seal(blob)
		sh.cold = cs
	default:
		sh.installBase(ps)
	}
	return nil
}

// Checkpoint persists every stripe's state into the backend and truncates
// the stripe logs, bounding replay work on the next Open: reopening
// replays each stripe's snapshot and its folds. Each stripe checkpoints
// atomically under its own lock; writers to other stripes are never
// blocked. No-op without a backend.
//
// A stripe whose log holds every change since its last full checkpoint is
// folded: the backend appends each changed key's last log entry to the
// snapshot instead of rewriting every key (wal.WAL.Fold). The
// stripe is rewritten in full when it is paged, when a key was removed
// without a log entry (DiscardTombstones), when PersistErr reports a write
// the log may lack, or when the backend refuses the fold.
//
// A full checkpoint captures the full in-memory state, so a successful pass
// that began with PersistErr set rewrites every stripe and heals an earlier
// append failure: the writes the failed appends covered are now in the
// checkpoints, and PersistErr resets — unless a new failure arrived during
// the pass, which stays reported.
// Quarantined stripes are skipped: checkpointing one would overwrite the
// damaged log with whatever the rebuild has transferred so far, silently
// blessing the data loss. They heal through RepairStripe after a peer
// rebuild, and while any remain PersistErr stays set.
func (r *Replica) Checkpoint() error {
	if r.backend == nil {
		return nil
	}
	// Settle in-flight group-commit acks first, so a failed async append is
	// reflected in the persistSeq sampled below rather than racing past it.
	r.awaitDurable()
	r.persistMu.Lock()
	seq := r.persistSeq
	r.persistMu.Unlock()
	skipped := false
	for i := range r.shards {
		if r.StripeQuarantined(i) {
			skipped = true
			continue
		}
		if err := r.checkpointShard(i); err != nil {
			return err
		}
	}
	if skipped {
		return nil // healthy stripes are checkpointed; the damage report stands
	}
	r.persistMu.Lock()
	defer r.persistMu.Unlock()
	if r.persistSeq != seq {
		return r.persistErr // something failed mid-pass; durability still in doubt
	}
	r.persistErr = nil
	return nil
}

// checkpointShard folds or snapshots stripe i while holding the stripe
// lock, so no append can fall between the snapshot and the backend's log
// truncation. The lock is taken without an epoch bump — a checkpoint
// mutates nothing. PersistErr is read under the lock, after every failed
// append to this stripe has been noted.
func (r *Replica) checkpointShard(i int) error {
	sh := &r.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.cold == nil && sh.holds.Load() == 0 {
		sh.mergeLocked() // the new keys join the base
	}
	if !r.paged && !sh.removed && r.PersistErr() == nil {
		ok, err := r.backend.Fold(i)
		if err != nil {
			return fmt.Errorf("kvstore: fold shard %d: %w", i, err)
		}
		if ok {
			return nil
		}
	}
	if err := r.checkpointShardLocked(i); err != nil {
		return fmt.Errorf("kvstore: checkpoint shard %d: %w", i, err)
	}
	return nil
}

// checkpointShardLocked builds stripe i's binary snapshot and hands it to
// the backend: a full checkpoint. The stripe's lock must be held — shared
// by the Checkpoint path and RepairStripe, so both produce identical
// checkpoint documents.
func (r *Replica) checkpointShardLocked(i int) error {
	sh := &r.shards[i]
	if r.paged {
		return r.checkpointShardPagedLocked(i)
	}
	entries := make([]encoding.Entry, 0, sh.countLocked())
	sh.eachLocked(func(k string, v Versioned, _ int) {
		entries = append(entries, encoding.Entry{Key: k, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp})
	})
	if err := r.backend.Checkpoint(i, encodeBinarySnapshot(r.label, len(r.shards), entries)); err != nil {
		return err
	}
	sh.removed = false
	return nil
}

// checkpointShardPagedLocked is the paged checkpoint: cold values are bulk
// re-read from the current checkpoint payload (one read, not one fault per
// key), merged with the overlay, and the stripe's memory drops to the fresh
// cold index — after a checkpoint every value byte is pageable again. A
// stripe whose overlay is empty and whose cold index is clean still matches
// its on-disk checkpoint, so the rewrite is skipped entirely.
func (r *Replica) checkpointShardPagedLocked(i int) error {
	sh := &r.shards[i]
	cs := sh.cold
	if len(sh.over) == 0 && cs != nil && !cs.dirty {
		if gen, _ := r.backend.CheckpointRegion(i); gen == cs.gen {
			return nil
		}
	}
	entries := make([]encoding.Entry, 0, sh.countLocked())
	for k, v := range sh.over {
		entries = append(entries, encoding.Entry{
			Key: k, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp,
		})
	}
	if cs != nil {
		var payload []byte
		for x := 0; x < cs.count(); x++ {
			if cs.dropped[x] {
				continue
			}
			k := cs.key(x)
			if _, shadowed := sh.over[k]; shadowed {
				continue
			}
			e := encoding.Entry{Key: k, Deleted: cs.deleted[x], Stamp: cs.stamps[x]}
			if !e.Deleted && cs.lens[x] > 0 {
				if payload == nil {
					var err error
					payload, err = r.backend.CheckpointPayload(i, cs.gen)
					if err != nil {
						return err
					}
				}
				off := cs.offs[x] - cs.base
				end := off + int64(cs.lens[x])
				if off < 0 || end > int64(len(payload)) {
					return fmt.Errorf("value of %q at [%d,%d) outside checkpoint payload of %d bytes",
						k, off, end, len(payload))
				}
				e.Value = payload[off:end]
			}
			entries = append(entries, e)
		}
	}
	snap := encodeBinarySnapshot(r.label, len(r.shards), entries)
	gen, base, err := r.backend.CheckpointLocate(i, snap)
	if err != nil {
		return err
	}
	ncs, err := buildColdStripe(snap, gen, base)
	if err != nil {
		return err
	}
	sh.cold = ncs
	sh.over = make(map[string]Versioned)
	r.cache.InvalidateShard(i)
	return nil
}

// Abandon releases the backend without checkpointing: durable state stays
// exactly as the logs and prior checkpoints left it, as a crash would leave
// it — except the file handles and the data directory's lock are freed so
// the directory can be reopened immediately. The crash-simulation half of
// the shutdown API (crash tests, benchmarks, failover drills); production
// shutdown is Close. The replica remains readable in memory; writes after
// Abandon fail their appends and surface through PersistErr.
func (r *Replica) Abandon() error {
	if r.backend == nil {
		return nil
	}
	return r.backend.Close()
}

// QuarantineStripe marks stripe i's durable bytes as damaged: reads keep
// serving whatever is in memory, durable appends to the stripe are silently
// skipped (the log is latched anyway), and PersistErr reports the damage so
// durable deployments see the degradation. Idempotent per stripe — the
// first damage report wins. Quarantine clears only through RepairStripe,
// after the stripe's true state has been rebuilt (normally from ring peers
// via anti-entropy; the stamps make that safe, see the package comment).
func (r *Replica) QuarantineStripe(i int, err error) {
	if i < 0 || i >= len(r.shards) {
		return
	}
	r.quarMu.Lock()
	if r.quar == nil {
		r.quar = make(map[int]error)
	}
	if _, dup := r.quar[i]; dup {
		r.quarMu.Unlock()
		return
	}
	if err == nil {
		err = &wal.CorruptError{Shard: i, Err: fmt.Errorf("quarantined")}
	}
	r.quar[i] = err
	r.quarMu.Unlock()
	r.shards[i].quar.Store(true)
	r.notePersistErr(fmt.Errorf("kvstore: stripe %d quarantined: %w", i, err))
}

// StripeQuarantined reports whether stripe i is quarantined.
func (r *Replica) StripeQuarantined(i int) bool {
	return i >= 0 && i < len(r.shards) && r.shards[i].quar.Load()
}

// Quarantined returns the quarantined stripe indices, sorted.
func (r *Replica) Quarantined() []int {
	r.quarMu.Lock()
	defer r.quarMu.Unlock()
	out := make([]int, 0, len(r.quar))
	for i := range r.quar {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// QuarantineErr returns stripe i's damage report, or nil when healthy.
func (r *Replica) QuarantineErr(i int) error {
	r.quarMu.Lock()
	defer r.quarMu.Unlock()
	return r.quar[i]
}

// RepairStripe re-establishes stripe i's durability after its in-memory
// state has been rebuilt (anti-entropy from the other owners, or any other
// trusted source): it checkpoints the stripe — the backend replaces the
// damaged log wholesale, clearing its own latch — and lifts the quarantine.
// When the last quarantined stripe repairs, a full checkpoint pass runs so
// PersistErr can clear honestly. Calling it on a healthy stripe is just a
// checkpoint.
func (r *Replica) RepairStripe(i int) error {
	if i < 0 || i >= len(r.shards) {
		return fmt.Errorf("kvstore: repair stripe %d out of range of %d", i, len(r.shards))
	}
	if r.backend != nil {
		sh := &r.shards[i]
		sh.mu.Lock()
		err := r.checkpointShardLocked(i)
		if err == nil {
			// Clear the fast-path flag under the stripe lock, so no logSet
			// can observe "quarantined" after the fresh checkpoint exists.
			sh.quar.Store(false)
		}
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("kvstore: repair stripe %d: %w", i, err)
		}
	} else {
		r.shards[i].quar.Store(false)
	}
	r.quarMu.Lock()
	delete(r.quar, i)
	left := len(r.quar)
	r.quarMu.Unlock()
	if left == 0 && r.backend != nil {
		return r.Checkpoint()
	}
	return nil
}

// ScrubNext advances the background scrubber by one stripe: it re-verifies
// the next stripe's durable bytes (frame CRCs, checkpoint checksum) through
// wal.WAL.VerifyShard and quarantines the stripe if damage is found —
// demoting a live stripe the moment a sector rots, instead of at the next
// restart. Returns the stripe verified and its damage report (nil when
// healthy). An in-memory replica returns (-1, nil); a full pass is
// Shards() calls. Already-quarantined stripes are skipped — their damage
// is known.
func (r *Replica) ScrubNext() (int, error) {
	if r.backend == nil {
		return -1, nil
	}
	r.quarMu.Lock()
	i := r.scrubCursor % len(r.shards)
	r.scrubCursor++
	r.quarMu.Unlock()
	if r.StripeQuarantined(i) {
		return i, nil
	}
	if err := r.backend.VerifyShard(i); err != nil {
		var ce *wal.CorruptError
		if errors.As(err, &ce) {
			r.QuarantineStripe(i, err)
		}
		return i, err
	}
	return i, nil
}

// Close checkpoints every stripe and releases the backend — the graceful
// shutdown path, after which reopening replays the snapshots and their
// folds, and no log. No-op
// without a backend. The replica remains readable in memory afterwards;
// writes after Close fail their backend appends and surface through
// PersistErr (the backend field stays set so concurrent writers never
// observe it changing).
func (r *Replica) Close() error {
	if r.backend == nil {
		return nil
	}
	err := r.Checkpoint()
	if cerr := r.backend.Close(); err == nil {
		err = cerr
	}
	return err
}
