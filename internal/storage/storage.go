// Package storage defines the pluggable durability layer under the sharded
// kvstore. A Backend persists one replica's mutations as a per-stripe
// record log plus an occasional per-stripe checkpoint, so a replica can
// restart from local state instead of a whole-replica snapshot: restart =
// load the latest checkpoint of each stripe, then replay the stripe's log
// tail. Because records carry full version stamps (encoding.Entry), a
// restarted replica resumes anti-entropy exactly where it left off — the
// stamps, not the storage layer, decide what still needs to move.
//
// Two implementations exist: Memory, an in-process log that preserves the
// engine's historical all-in-memory behaviour (nothing survives the
// process), and the log-structured file-per-stripe WAL in the wal
// subpackage, which survives crashes and detects torn tail writes.
package storage

import (
	"errors"
	"fmt"
	"sync"

	"versionstamp/internal/encoding"
)

// ErrStaleLoc reports a ValueLoc whose generation no longer matches the
// shard's durable layout: the log was truncated or rewritten (checkpoint,
// compact) since the location was handed out. Callers holding stale
// locations re-derive them — the value itself is never lost, only its
// address.
var ErrStaleLoc = errors.New("storage: stale value location")

// CorruptError reports durable damage scoped to one shard: the backend found
// bytes that are provably not a torn tail write (a flipped bit mid-log, a
// checkpoint that fails its checksum). It names the damaged file and the
// offset where the damage starts, so operators and tests can point at the
// exact bytes. Backends return it from ReplayShard *after* streaming the
// intact prefix, so a caller can see what is readable, quarantine the shard
// and repair it from peers (kvstore drops the prefix — a rollback must not
// meet its peers' stamps, see kvstore.OpenBackend) — whole-replica death is
// never the right scope for one bad sector.
type CorruptError struct {
	// Shard is the damaged stripe.
	Shard int
	// Path is the damaged file (empty when the backend has no files).
	Path string
	// Offset is where the damage starts within Path (-1 = unknown).
	Offset int64
	// Err is the underlying corruption report (wraps the backend's
	// corruption sentinel, e.g. wal.ErrCorrupt).
	Err error
}

func (e *CorruptError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("storage: shard %d corrupt at %s+%d: %v", e.Shard, e.Path, e.Offset, e.Err)
	}
	return fmt.Sprintf("storage: shard %d corrupt: %v", e.Shard, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Verifier is the optional scrub surface of a Backend: VerifyShard re-reads
// the shard's durable bytes — log frames against their CRCs, the checkpoint
// against its checksum — without mutating anything, returning a
// *CorruptError on damage. Backends without durable bytes (Memory) simply
// do not implement it; the scrubber skips them.
type Verifier interface {
	VerifyShard(shard int) error
}

// Record is one durable mutation of a stripe. The zero kind is a Set: the
// key named in Entry now holds exactly that state (value, tombstone flag and
// stamp). Reset marks a stripe-wide clear, applying before the records that
// follow it.
type Record struct {
	// Reset clears the stripe before the records that follow it. The
	// kvstore persists wholesale stripe replacement as a checkpoint
	// instead, but replay honors Reset so backends and older logs may
	// carry it.
	Reset bool
	// Entry is the key state this record sets: the full stored copy, stamp
	// included, in the wire codec's shape.
	Entry encoding.Entry
}

// Backend persists per-stripe mutation logs and checkpoints. Implementations
// must serialize operations on the same shard internally; the kvstore calls
// Append under the stripe's write lock, but Compact and Close can race with
// appends to other shards.
type Backend interface {
	// Append durably adds one record to the shard's log. The kvstore
	// acknowledges a write only after Append returns, so an implementation's
	// durability level (OS buffer, fsync) is exactly the store's.
	Append(shard int, rec Record) error

	// ReplayShard streams the shard's durable state in apply order: the
	// latest checkpoint (if one exists) through ckpt first, then every log
	// record appended after that checkpoint through rec, oldest first.
	// Either callback may be nil to skip that part.
	ReplayShard(shard int, ckpt func(snapshot []byte) error, rec func(Record) error) error

	// Checkpoint atomically replaces the shard's checkpoint with snapshot
	// and truncates its record log: after Checkpoint, ReplayShard yields the
	// snapshot and nothing else. The kvstore calls it under the stripe's
	// write lock so no append can fall between the snapshot and the
	// truncation.
	Checkpoint(shard int, snapshot []byte) error

	// Compact rewrites the shard's log keeping only the records that still
	// matter for replay: everything before the last Reset drops, and only
	// the last record per key survives. Unlike Checkpoint it needs no
	// snapshot from the store and may run concurrently with appends.
	Compact(shard int) error

	// Close releases the backend's resources. The log is not checkpointed;
	// callers wanting a clean restart checkpoint first (kvstore's
	// Replica.Close does).
	Close() error
}

// ValueLoc addresses one value's bytes inside a shard's durable state, so a
// store can drop the in-memory copy and page it back on demand. A location
// is valid only while its generation matches the shard's current log or
// checkpoint generation; operations that move bytes (Checkpoint, Compact)
// bump the generation, and reads through a stale location return
// ErrStaleLoc instead of garbage.
type ValueLoc struct {
	// Off is the byte offset of the value within the shard's log file
	// (Ckpt false) or checkpoint file (Ckpt true).
	Off int64
	// Len is the value's length in bytes.
	Len uint32
	// Gen is the generation of the region Off addresses.
	Gen uint32
	// Ckpt selects the region: the checkpoint file rather than the log.
	Ckpt bool
}

// Pager is the optional value-paging surface of a Backend: a backend that
// can address and re-read the value bytes of its records lets the store
// keep only stamps and locations resident. The wal backend implements it
// with pread on the log and checkpoint files; Memory implements it over its
// heap copies so paged stores are testable without disk.
type Pager interface {
	// AppendLocate is Append plus the location of the record's value bytes
	// within the shard's log. ok is false when the record has no pageable
	// value (tombstones, resets) — the append still happened. wait, when
	// non-nil, blocks until the record's commit window is durable (group
	// commit); callers must invoke it outside the stripe lock, and must not
	// acknowledge the write before it returns nil.
	AppendLocate(shard int, rec Record) (loc ValueLoc, ok bool, wait func() error, err error)

	// ReadValueAt reads back the value bytes a prior AppendLocate or
	// checkpoint layout addressed. Returns ErrStaleLoc when the location's
	// generation no longer matches. The returned slice is freshly allocated
	// and owned by the caller.
	ReadValueAt(shard int, loc ValueLoc) ([]byte, error)

	// CheckpointLocate is Checkpoint plus the new checkpoint region: the
	// generation locations against it must carry, and the byte offset
	// within the checkpoint file where the snapshot payload starts (value
	// offsets inside the payload are the caller's, from its own encoding).
	CheckpointLocate(shard int, snapshot []byte) (gen uint32, base int64, err error)

	// CheckpointRegion reports the shard's current checkpoint generation
	// and payload base — what CheckpointLocate last returned, or the values
	// for the checkpoint ReplayShard just streamed.
	CheckpointRegion(shard int) (gen uint32, base int64)

	// CheckpointPayload re-reads the shard's whole checkpoint payload (the
	// bytes ReplayShard would stream as ckpt). Returns ErrStaleLoc when gen
	// no longer matches — the checkpoint was replaced.
	CheckpointPayload(shard int, gen uint32) ([]byte, error)
}

// AsyncBackend is the optional group-commit surface of a Backend: an append
// whose durability barrier is detached from the call, so many writers'
// appends can share one fsync. AppendAsync stages the record (under the
// caller's stripe lock, preserving log order) and returns a wait function;
// the caller invokes wait after releasing the stripe lock and must not
// acknowledge the write before it returns nil. A nil wait means the append
// is already as durable as Append would have made it.
type AsyncBackend interface {
	AppendAsync(shard int, rec Record) (wait func() error, err error)
}

// Memory is an in-process Backend: logs and checkpoints live on the heap
// and vanish with the process, reproducing the engine's historical
// non-durable behaviour while exercising the same code paths as a real
// backend. It is safe for concurrent use.
type Memory struct {
	mu     sync.Mutex
	shards map[int]*memShard
}

type memShard struct {
	ckpt []byte
	log  []Record
	// Paging generations: log locations address indices into log and die on
	// Checkpoint/Compact; checkpoint locations address bytes of ckpt and
	// die when it is replaced.
	logGen  uint32
	ckptGen uint32
}

// NewMemory creates an empty in-process backend.
func NewMemory() *Memory {
	return &Memory{shards: make(map[int]*memShard)}
}

func (m *Memory) shard(i int) *memShard {
	sh, ok := m.shards[i]
	if !ok {
		sh = &memShard{}
		m.shards[i] = sh
	}
	return sh
}

// Append adds one record to the shard's in-memory log.
func (m *Memory) Append(shard int, rec Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shard(shard)
	sh.log = append(sh.log, rec)
	return nil
}

// ReplayShard streams the shard's checkpoint and log.
func (m *Memory) ReplayShard(shard int, ckpt func([]byte) error, rec func(Record) error) error {
	m.mu.Lock()
	sh := m.shard(shard)
	snapshot := sh.ckpt
	log := append([]Record(nil), sh.log...)
	m.mu.Unlock()
	if snapshot != nil && ckpt != nil {
		if err := ckpt(snapshot); err != nil {
			return err
		}
	}
	if rec != nil {
		for _, r := range log {
			if err := rec(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Checkpoint replaces the shard's checkpoint and truncates its log.
func (m *Memory) Checkpoint(shard int, snapshot []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shard(shard)
	sh.ckpt = append([]byte(nil), snapshot...)
	sh.log = nil
	sh.logGen++
	sh.ckptGen++
	return nil
}

// Compact keeps the last record per key after the last Reset.
func (m *Memory) Compact(shard int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shard(shard)
	sh.log = CompactRecords(sh.log)
	sh.logGen++ // record indices moved; outstanding log locations are stale
	return nil
}

// AppendLocate implements Pager: the "location" of an in-memory value is
// its record's index in the shard log, valid until Checkpoint or Compact.
func (m *Memory) AppendLocate(shard int, rec Record) (ValueLoc, bool, func() error, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shard(shard)
	sh.log = append(sh.log, rec)
	if rec.Reset || rec.Entry.Deleted {
		return ValueLoc{}, false, nil, nil
	}
	loc := ValueLoc{
		Off: int64(len(sh.log) - 1),
		Len: uint32(len(rec.Entry.Value)),
		Gen: sh.logGen,
	}
	return loc, true, nil, nil
}

// ReadValueAt implements Pager over the heap copies.
func (m *Memory) ReadValueAt(shard int, loc ValueLoc) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shard(shard)
	if loc.Ckpt {
		if loc.Gen != sh.ckptGen {
			return nil, ErrStaleLoc
		}
		end := loc.Off + int64(loc.Len)
		if loc.Off < 0 || end > int64(len(sh.ckpt)) {
			return nil, ErrStaleLoc
		}
		return append([]byte(nil), sh.ckpt[loc.Off:end]...), nil
	}
	if loc.Gen != sh.logGen || loc.Off < 0 || loc.Off >= int64(len(sh.log)) {
		return nil, ErrStaleLoc
	}
	v := sh.log[loc.Off].Entry.Value
	if uint32(len(v)) != loc.Len {
		return nil, ErrStaleLoc
	}
	return append([]byte(nil), v...), nil
}

// CheckpointLocate implements Pager: Checkpoint plus the new region. The
// in-memory checkpoint has no file header, so the payload base is 0.
func (m *Memory) CheckpointLocate(shard int, snapshot []byte) (uint32, int64, error) {
	if err := m.Checkpoint(shard, snapshot); err != nil {
		return 0, 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shard(shard).ckptGen, 0, nil
}

// CheckpointRegion implements Pager.
func (m *Memory) CheckpointRegion(shard int) (uint32, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shard(shard).ckptGen, 0
}

// CheckpointPayload implements Pager.
func (m *Memory) CheckpointPayload(shard int, gen uint32) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shard(shard)
	if gen != sh.ckptGen {
		return nil, ErrStaleLoc
	}
	return append([]byte(nil), sh.ckpt...), nil
}

// Close is a no-op for the in-process backend.
func (m *Memory) Close() error { return nil }

// CompactRecords returns the minimal record sequence equivalent to log under
// replay: records before the last Reset drop (the Reset erases their
// effect), the Reset itself survives (it must still clear checkpoint state),
// and of the rest only each key's last record remains, in original order.
// Shared by backends implementing Compact.
func CompactRecords(log []Record) []Record {
	start := 0
	reset := false
	for i, r := range log {
		if r.Reset {
			start, reset = i+1, true
		}
	}
	last := make(map[string]int, len(log)-start)
	for i := start; i < len(log); i++ {
		last[log[i].Entry.Key] = i
	}
	out := make([]Record, 0, len(last)+1)
	if reset {
		out = append(out, Record{Reset: true})
	}
	for i := start; i < len(log); i++ {
		if last[log[i].Entry.Key] == i {
			out = append(out, log[i])
		}
	}
	return out
}
