// Package storage defines the pluggable durability layer under the sharded
// kvstore. A Backend persists one replica's mutations as a per-stripe entry
// log plus an occasional per-stripe checkpoint, so a replica can restart
// from local state instead of a whole-replica snapshot: restart = load the
// latest snapshot of each stripe and the entries folded into it, then
// replay the stripe's log tail. Because log entries carry full version
// stamps (encoding.Entry), each is its key's whole state: a restarted
// replica resumes anti-entropy exactly where it left off — the stamps, not
// the storage layer, decide what still needs to move — and a checkpoint
// can keep a key's last entry instead of rewriting the stripe. That is the
// whole contract: append, checkpoint or fold, replay.
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
// shard's checkpoint: a later Checkpoint replaced the file since the
// location was handed out. Callers holding stale locations re-derive them —
// the value itself is never lost, only its address.
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
// the shard's durable bytes — log and fold frames against their CRCs, the
// snapshot against its checksum — without mutating anything, returning a
// *CorruptError on damage. Backends without durable bytes (Memory) simply
// do not implement it; the scrubber skips them.
type Verifier interface {
	VerifyShard(shard int) error
}

// Backend persists per-stripe entry logs and checkpoints. Each log entry is
// one durable mutation: the key it names now holds exactly that state
// (value, tombstone flag and stamp). Implementations must serialize
// operations on the same shard internally; the kvstore calls Append,
// Checkpoint and Fold under the stripe's write lock, but Close can race
// with appends to other shards.
type Backend interface {
	// Append durably adds one entry to the shard's log. The kvstore
	// acknowledges a write only after Append returns, so an implementation's
	// durability level (OS buffer, group-commit fsync) is exactly the store's.
	Append(shard int, e encoding.Entry) error

	// ReplayShard streams the shard's durable state in apply order: the
	// latest snapshot (if one exists) through ckpt first, then every entry
	// folded into it and every log entry appended since through rec,
	// oldest first. Either callback may be nil to skip that part.
	ReplayShard(shard int, ckpt func(snapshot []byte) error, rec func(encoding.Entry) error) error

	// Checkpoint atomically replaces the shard's checkpoint with snapshot,
	// dropping its folds, and truncates its log: after Checkpoint,
	// ReplayShard yields the snapshot and nothing else. It is the repair
	// path for a damaged shard. The kvstore calls it under the stripe's
	// write lock so no append can fall between the snapshot and the
	// truncation.
	Checkpoint(shard int, snapshot []byte) error

	// Fold is the incremental checkpoint: it moves the last log entry of
	// each key into the shard's checkpoint, after the snapshot and earlier
	// folds, and truncates the log, so ReplayShard yields the same state
	// with an empty log. It is correct only while the log holds every
	// change since the last Checkpoint; a key removed without a log entry
	// needs a Checkpoint. An empty log folds nothing. ok is false, with
	// nothing changed, when no snapshot exists, the shard is damaged, or
	// the folds would grow larger than the snapshot; the caller then
	// writes a full Checkpoint.
	Fold(shard int) (ok bool, err error)

	// Close releases the backend's resources. The log is not checkpointed;
	// callers wanting a clean restart checkpoint first (kvstore's
	// Replica.Close does).
	Close() error
}

// ValueLoc addresses one value's bytes inside a shard's checkpoint, so a
// store can drop the in-memory copy and page it back on demand. Values
// written since the last checkpoint stay resident, so the checkpoint is the
// only region a location ever names. A location is valid only while its
// generation matches the shard's checkpoint generation; every Checkpoint
// bumps it, and reads through a stale location return ErrStaleLoc instead
// of garbage.
type ValueLoc struct {
	// Off is the byte offset of the value within the shard's checkpoint file.
	Off int64
	// Len is the value's length in bytes.
	Len uint32
	// Gen is the checkpoint generation Off addresses.
	Gen uint32
}

// Pager is the optional value-paging surface of a Backend: a backend that
// can address and re-read the value bytes of its checkpoints lets the store
// keep only stamps and locations resident. The wal backend implements it
// with pread on the checkpoint files.
type Pager interface {
	// ReadValueAt reads back the value bytes a checkpoint layout addressed.
	// Returns ErrStaleLoc when the location's generation no longer matches.
	// The returned slice is freshly allocated and owned by the caller.
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
// appends can share one fsync. AppendAsync stages the entry (under the
// caller's stripe lock, preserving log order) and returns a wait function;
// the caller invokes wait after releasing the stripe lock and must not
// acknowledge the write before it returns nil. A nil wait means the append
// is already as durable as Append would have made it.
type AsyncBackend interface {
	AppendAsync(shard int, e encoding.Entry) (wait func() error, err error)
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
	ckpt   []byte
	folds  []encoding.Entry
	folded int // encoded bytes of folds, held to at most len(ckpt)
	log    []encoding.Entry
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

// Append adds one entry to the shard's in-memory log.
func (m *Memory) Append(shard int, e encoding.Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shard(shard)
	sh.log = append(sh.log, e)
	return nil
}

// ReplayShard streams the shard's checkpoint, its folds and its log.
func (m *Memory) ReplayShard(shard int, ckpt func([]byte) error, rec func(encoding.Entry) error) error {
	m.mu.Lock()
	sh := m.shard(shard)
	snapshot := sh.ckpt
	entries := append(append([]encoding.Entry(nil), sh.folds...), sh.log...)
	m.mu.Unlock()
	if snapshot != nil && ckpt != nil {
		if err := ckpt(snapshot); err != nil {
			return err
		}
	}
	if rec != nil {
		for _, e := range entries {
			if err := rec(e); err != nil {
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
	sh.folds, sh.folded, sh.log = nil, 0, nil
	return nil
}

// Fold moves the last log entry of each key onto the shard's fold list,
// under the same rules as the wal backend's: no snapshot, no fold, and the
// folds' encoded size stays within the snapshot's.
func (m *Memory) Fold(shard int) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh := m.shard(shard)
	if sh.ckpt == nil {
		return false, nil
	}
	last := make(map[string]int, len(sh.log))
	for i, e := range sh.log {
		last[e.Key] = i
	}
	var kept []encoding.Entry
	n := 0
	for i, e := range sh.log {
		if last[e.Key] == i {
			kept = append(kept, e)
			n += len(encoding.AppendEntry(nil, e))
		}
	}
	if sh.folded+n > len(sh.ckpt) {
		return false, nil
	}
	sh.folds, sh.folded, sh.log = append(sh.folds, kept...), sh.folded+n, nil
	return true, nil
}

// Close is a no-op for the in-process backend.
func (m *Memory) Close() error { return nil }
