// Package wal implements the log-structured file-per-stripe storage.Backend:
// each stripe owns an append-only log of length-prefixed, CRC-protected
// record frames plus a checkpoint file holding the stripe's latest binary
// snapshot. Appends are a single write to one file; restart replays the
// checkpoint and then the log tail.
//
// # On-disk layout
//
//	<dir>/shard-NNNN.wal   record log, a sequence of frames
//	<dir>/shard-NNNN.ckpt  latest checkpoint (kvstore binary shard snapshot)
//	<dir>/commit.wal       group-commit log (GroupCommit mode only)
//
//	frame   := uvarint(len(payload)) payload crc32c(payload)   // crc big-endian
//	payload := 0x01 entry            // set: encoding.AppendEntry bytes
//	         | 0x02                  // reset: clear the stripe
//	         | 0x03 uvarint(shard) uvarint(off) raw-frame      // commit.wal only
//
// # Group commit
//
// With Options.GroupCommit, appends stop fsyncing their stripe file inline.
// Instead each append writes its frame to the stripe log (no sync), then
// registers the raw frame bytes with a shared committer and receives a wait
// function — the commit barrier. The committer coalesces all registrations
// arriving within a short window (bounded by defaultCommitWindow), writes
// one batch of commit frames — each carrying the shard, the frame's offset
// in its stripe log, and the frame bytes themselves — to the single shared
// commit.wal, issues ONE fsync for the whole window, and releases every
// waiter. Nothing may be acknowledged before its wait returns nil: the
// record is then durable in commit.wal even if its stripe file's bytes are
// still in the page cache.
//
// Recovery makes the redundancy whole: Open first recovers every stripe log
// (torn tails truncated as always), then scans commit.wal in order and
// re-appends ("materializes") any frame whose recorded offset equals its
// stripe log's current end — exactly the frames the crash took from the
// un-synced stripe files. Materialized stripes are fsynced and commit.wal
// is truncated, so the ordinary checkpoint + log-tail replay machinery runs
// over complete stripe logs and never sees the commit log at all.
//
// Checkpoint and Compact rotate first — fsync every stripe file the
// committer dirtied, then truncate and fsync commit.wal — so no stale
// commit frame can outlive the log truncation it refers into; the commit
// log also rotates in the background when it exceeds defaultCommitLogCap.
//
// # Crash safety
//
// A crash mid-append leaves a torn frame at the log tail: a truncated
// length prefix, a payload shorter than its prefix promises, or a CRC
// mismatch on the final frame. Open detects all three, truncates the log
// back to the last intact frame, and replay proceeds from clean state — the
// acknowledged prefix survives, the torn suffix (never acknowledged) is
// dropped. A CRC mismatch followed by further bytes cannot be a torn tail
// write and is reported as corruption instead of silently truncated.
//
// By default appends reach the OS buffer cache (durable across process
// crashes, not power loss); Options.Fsync syncs every append for full
// durability at a large throughput cost. Checkpoints always fsync and
// rename, whatever the option, so a half-written checkpoint can never
// replace a good one. Every checkpoint carries a checksummed header
// (ckptMagic + CRC32-Castagnoli over the payload), so at-rest checkpoint
// damage is detected exactly like frame damage; a file without the header
// is corrupt.
//
// # Quarantine
//
// Corruption — damage that is provably not a torn tail — is scoped to the
// shard it lives in, never to the directory. Open records the damage (a
// *storage.CorruptError naming the file and byte offset) and keeps going:
// healthy shards recover and serve normally, while the damaged shard
// latches — appends and Compact return the corruption, and ReplayShard
// streams the intact prefix before reporting it, so a caller keeps every
// readable record. Checkpoint is the repair path: a fresh checkpoint holds
// the shard's full state, so it truncates the damaged log and clears the
// latch. VerifyShard is the scrub path: it re-reads a live shard's frames
// and checkpoint against their checksums and latches on damage, demoting
// bad sectors found long after Open.
//
// # Fault injection
//
// Options.Fault accepts a FaultInjector consulted before every physical
// write, rollback truncation, fsync and checkpoint. internal/storage/faultfs
// implements it with seeded, deterministic decisions — the disk-side
// counterpart of the chaosnet network fabric — so crash-and-corruption
// schedules replay exactly.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"versionstamp/internal/encoding"
	"versionstamp/internal/storage"
)

// Record payload kinds.
const (
	recSet    = 0x01
	recReset  = 0x02
	recCommit = 0x03 // commit.wal only: uvarint(shard) uvarint(off) raw frame
)

// commitLogName is the shared group-commit log file under the WAL dir.
const commitLogName = "commit.wal"

// Group-commit defaults.
const (
	defaultCommitWindow = 150 * time.Microsecond
	defaultCommitLogCap = 64 << 20
)

// maxRecordLen bounds a frame's payload so a corrupt length prefix cannot
// force an unbounded allocation.
const maxRecordLen = 1 << 30

// crcTable is the Castagnoli polynomial, the standard choice for storage
// checksums (hardware-accelerated on common CPUs).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports log damage that cannot be a torn tail write — a bad
// frame with intact frames after it, a checksummed payload that does not
// decode, or a checkpoint failing its checksum. Torn tails are repaired
// silently; corruption never is — it is scoped to its shard (see the
// package comment on quarantine) and reported as a *storage.CorruptError
// wrapping this sentinel.
var ErrCorrupt = errors.New("wal: corrupt log")

// ckptMagic heads every checkpoint file: the magic, a big-endian
// CRC32-Castagnoli of the payload, then the payload. A file that does not
// start with it is damaged.
const ckptMagic = "WCK1"

// ckptHeaderLen is the byte offset of a checkpoint's payload in its file.
const ckptHeaderLen = len(ckptMagic) + 4

// FaultInjector intercepts the WAL's physical operations, letting
// internal/storage/faultfs inject deterministic disk faults under tests and
// chaos scenarios. Every method is called with the shard's mutex held, so
// per-shard call order is exactly operation order. Nil (the default) is a
// healthy disk.
type FaultInjector interface {
	// Append is consulted before a frame write. Return (len(frame), nil) to
	// let the whole frame land; (n, err) with 0 <= n < len(frame) lands only
	// frame[:n] — a short write, ENOSPC mid-frame — and fails the append
	// with err after the partial frame is on disk, exercising the rollback
	// path. (0, err) is a clean failure with nothing written.
	Append(shard int, frame []byte) (int, error)
	// Truncate is consulted before the rollback truncation that removes a
	// partial frame; an error simulates a rollback that cannot complete, so
	// the shard latches read-only until a checkpoint or compact heals it.
	Truncate(shard int) error
	// Sync is consulted before an fsync; an error fails the append after its
	// bytes landed (durability in doubt, frames intact).
	Sync(shard int) error
	// Checkpoint is consulted before a checkpoint write; an error fails the
	// checkpoint before anything on disk is replaced.
	Checkpoint(shard int, snapshot []byte) error
}

// CommitFaultInjector optionally extends FaultInjector with the
// group-commit pipeline's physical operations. Injectors that do not
// implement it run group commit fault-free.
type CommitFaultInjector interface {
	FaultInjector
	// CommitAppend is consulted before a window's batch of commit frames is
	// written to the shared commit log; the short-write semantics match
	// FaultInjector.Append (the partial batch is rolled back by truncation,
	// and a failed rollback latches the committer until rotation heals it).
	CommitAppend(buf []byte) (int, error)
	// CommitSync is consulted before the commit-log fsync that releases a
	// window's waiters; an error fails every append in the window.
	CommitSync() error
}

// Options configures a WAL.
type Options struct {
	// Fsync syncs the log file after every append. Off by default: appends
	// then survive process crashes (the OS holds the bytes) but not power
	// loss.
	Fsync bool
	// GroupCommit turns on the group-commit pipeline (see the package
	// comment): appends become durable through the shared commit log's
	// batched fsync instead of a per-append stripe-file sync, and callers
	// that can overlap writers should use AppendAsync to share windows.
	// Implies full power-loss durability like Fsync, at a fraction of the
	// fsync count.
	GroupCommit bool
	// Fault, when non-nil, intercepts physical operations for deterministic
	// fault injection (see FaultInjector and internal/storage/faultfs).
	Fault FaultInjector
}

// WAL is the file-per-stripe backend. Safe for concurrent use; operations
// on the same shard serialize on the shard's mutex.
type WAL struct {
	dir   string
	fsync bool
	fault FaultInjector // nil = healthy disk
	group *committer    // nil unless Options.GroupCommit
	lock  *os.File      // advisory directory lock, released by Close (or process death)

	mu     sync.Mutex
	shards map[int]*walShard
	closed bool
}

type walShard struct {
	mu     sync.Mutex
	f      *os.File // append handle, opened lazily
	size   int64    // current log length, maintained so a partial write can be undone
	failed error    // set when a partial frame could not be rolled back: shard read-only
	// quar records proven corruption scoped to this shard: appends and
	// Compact refuse with it, ReplayShard streams the intact prefix then
	// reports it, and Checkpoint (whose snapshot supersedes the damaged
	// bytes) clears it.
	quar *storage.CorruptError

	// Paging state (storage.Pager): generations guard outstanding value
	// locations against log truncation (logGen: Checkpoint, Compact) and
	// checkpoint replacement (ckptGen); the read handles serve point preads
	// and are closed whenever their file is truncated or replaced.
	logGen  uint32
	ckptGen uint32
	rf      *os.File // log read handle, opened lazily
	cf      *os.File // checkpoint read handle, opened lazily
}

// dropReadHandles closes the shard's pread handles; callers hold sh.mu and
// bump the matching generation so outstanding locations die with them.
func (sh *walShard) dropReadHandles(log, ckpt bool) {
	if log && sh.rf != nil {
		_ = sh.rf.Close()
		sh.rf = nil
	}
	if ckpt && sh.cf != nil {
		_ = sh.cf.Close()
		sh.cf = nil
	}
}

// Open prepares dir (creating it if needed), takes the directory's
// advisory lock — two live processes appending to the same logs would
// destroy each other's acknowledged writes — and recovers every existing
// shard log: torn tail frames are truncated away here, once, so appends
// can never land after garbage. Mid-log corruption does not fail the open:
// the damaged shard is quarantined (file and byte offset recorded) and
// every other shard recovers normally. The lock dies with the process; a
// crashed owner never blocks the next Open.
func Open(dir string, opts Options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, fsync: opts.Fsync, fault: opts.Fault, lock: lock, shards: make(map[int]*walShard)}
	logs, err := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	if err != nil {
		_ = w.unlock()
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, path := range logs {
		off, err := recoverLog(path)
		if err == nil {
			continue
		}
		shard, ok := shardFromPath(path)
		if !ok || !errors.Is(err, ErrCorrupt) {
			// An unparsable name or a plain I/O failure is not shard-scoped
			// damage; refuse the directory as before.
			_ = w.unlock()
			return nil, err
		}
		w.shards[shard] = &walShard{quar: &storage.CorruptError{
			Shard: shard, Path: path, Offset: off, Err: err,
		}}
	}
	if opts.GroupCommit {
		w.group = &committer{
			w: w, window: defaultCommitWindow, cap: defaultCommitLogCap,
			dirty: make(map[int]bool),
		}
		if err := w.recoverCommitLog(); err != nil {
			_ = w.unlock()
			return nil, err
		}
	}
	return w, nil
}

// commitLogPath returns the shared commit log's path.
func (w *WAL) commitLogPath() string { return filepath.Join(w.dir, commitLogName) }

// recoverCommitLog replays the shared commit log into the stripe logs: any
// commit frame whose recorded offset equals its stripe log's current end is
// the next frame that stripe lost to the crash, so its raw bytes are
// appended ("materialized") there; frames already present (offset below the
// end) or dangling past a later truncation (offset beyond the end) are
// skipped. Materialized logs are fsynced, then the commit log truncates.
// Damage that is provably not a torn commit-log tail fails the open — the
// commit log is shared across stripes, so its corruption cannot be
// quarantined to one.
func (w *WAL) recoverCommitLog() error {
	path := w.commitLogPath()
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	sizes := make(map[int]int64)    // stripe log ends, tracked as we materialize
	files := make(map[int]*os.File) // append handles for materialized stripes
	defer func() {
		for _, f := range files {
			_ = f.Close()
		}
	}()
	logSize := func(shard int) (int64, error) {
		if sz, ok := sizes[shard]; ok {
			return sz, nil
		}
		fi, err := os.Stat(w.logPath(shard))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				sizes[shard] = 0
				return 0, nil
			}
			return 0, err
		}
		sizes[shard] = fi.Size()
		return fi.Size(), nil
	}
	valid, err := scanFrames(data, func(off int, payload []byte) error {
		if len(payload) == 0 || payload[0] != recCommit {
			return fmt.Errorf("%w: bad commit record at offset %d", ErrCorrupt, off)
		}
		rest := payload[1:]
		shard, used := binary.Uvarint(rest)
		if used <= 0 || shard > 1<<20 {
			return fmt.Errorf("%w: bad commit shard at offset %d", ErrCorrupt, off)
		}
		rest = rest[used:]
		stripeOff, used := binary.Uvarint(rest)
		if used <= 0 {
			return fmt.Errorf("%w: bad commit offset at offset %d", ErrCorrupt, off)
		}
		raw := rest[used:]
		si := int(shard)
		if sh := w.shards[si]; sh != nil && sh.quar != nil {
			return nil // nothing may land after a quarantined stripe's damage
		}
		cur, err := logSize(si)
		if err != nil {
			return err
		}
		if int64(stripeOff) != cur {
			return nil // already present, or dangling past a truncation
		}
		f, ok := files[si]
		if !ok {
			f, err = os.OpenFile(w.logPath(si), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			files[si] = f
		}
		if _, err := f.Write(raw); err != nil {
			return err
		}
		sizes[si] = cur + int64(len(raw))
		return nil
	})
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return &storage.CorruptError{Shard: -1, Path: path, Offset: int64(valid), Err: err}
		}
		return fmt.Errorf("wal: recover commit log: %w", err)
	}
	for _, f := range files {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("wal: recover commit log: %w", err)
		}
	}
	// The stripe logs now hold everything the commit log promised; empty it
	// durably so stale commit frames can never materialize twice.
	if err := os.Truncate(path, 0); err != nil {
		return fmt.Errorf("wal: recover commit log: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: recover commit log: %w", err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: recover commit log: %w", err)
	}
	return nil
}

// shardFromPath parses the shard index out of a shard-NNNN.wal path.
func shardFromPath(path string) (int, bool) {
	base := strings.TrimSuffix(filepath.Base(path), ".wal")
	base = strings.TrimPrefix(base, "shard-")
	n, err := strconv.Atoi(base)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func (w *WAL) unlock() error {
	if w.lock == nil {
		return nil
	}
	err := w.lock.Close() // closing drops the flock
	w.lock = nil
	return err
}

// LogPath returns the shard's log file path under dir. Exported for fault
// injectors and tools that damage or inspect logs from outside the WAL.
func LogPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", shard))
}

// CheckpointPath returns the shard's checkpoint file path under dir.
func CheckpointPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.ckpt", shard))
}

func (w *WAL) logPath(shard int) string  { return LogPath(w.dir, shard) }
func (w *WAL) ckptPath(shard int) string { return CheckpointPath(w.dir, shard) }

// corrupt quarantines sh with a damage report and returns it. Callers hold
// sh.mu.
func corrupt(sh *walShard, shard int, path string, off int64, err error) *storage.CorruptError {
	var ce *storage.CorruptError
	if errors.As(err, &ce) {
		sh.quar = ce
		return ce
	}
	ce = &storage.CorruptError{Shard: shard, Path: path, Offset: off, Err: err}
	sh.quar = ce
	return ce
}

// wrapCheckpoint prefixes payload with the checksummed checkpoint header.
func wrapCheckpoint(payload []byte) []byte {
	out := make([]byte, 0, ckptHeaderLen+len(payload))
	out = append(out, ckptMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
	return append(out, payload...)
}

// unwrapCheckpoint strips and verifies the checkpoint header.
func unwrapCheckpoint(data []byte) ([]byte, error) {
	if len(data) < ckptHeaderLen || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad checkpoint header", ErrCorrupt)
	}
	crc := binary.BigEndian.Uint32(data[len(ckptMagic):])
	payload := data[ckptHeaderLen:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// shard returns (creating if needed) the per-shard state, with its mutex
// already held. Callers must Unlock it.
func (w *WAL) shard(i int) (*walShard, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, errors.New("wal: closed")
	}
	sh, ok := w.shards[i]
	if !ok {
		sh = &walShard{}
		w.shards[i] = sh
	}
	w.mu.Unlock()
	sh.mu.Lock()
	return sh, nil
}

// appendFrame encodes rec as one frame.
func appendFrame(dst []byte, rec storage.Record) []byte {
	var payload []byte
	if rec.Reset {
		payload = []byte{recReset}
	} else {
		payload = append(make([]byte, 0, 64), recSet)
		payload = encoding.AppendEntry(payload, rec.Entry)
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// decodePayload parses one checksummed payload into a Record. A payload that
// passes its CRC but does not decode is corruption, never a torn write.
func decodePayload(payload []byte) (storage.Record, error) {
	if len(payload) == 0 {
		return storage.Record{}, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	switch payload[0] {
	case recReset:
		if len(payload) != 1 {
			return storage.Record{}, fmt.Errorf("%w: reset record with body", ErrCorrupt)
		}
		return storage.Record{Reset: true}, nil
	case recSet:
		e, used, err := encoding.DecodeEntry(payload[1:])
		if err != nil {
			return storage.Record{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if used != len(payload)-1 {
			return storage.Record{}, fmt.Errorf("%w: %d trailing record bytes", ErrCorrupt, len(payload)-1-used)
		}
		return storage.Record{Entry: e}, nil
	default:
		return storage.Record{}, fmt.Errorf("%w: unknown record kind 0x%02x", ErrCorrupt, payload[0])
	}
}

// scanFrames walks the frames of data, calling fn (when non-nil) with each
// intact payload and its frame's byte offset, and returns the offset of the
// first byte that is not part of an intact frame — len(data) for a clean
// log. A damaged frame that runs to the end of data is a torn tail (valid
// stops before it); a damaged frame with bytes after it is corruption.
func scanFrames(data []byte, fn func(off int, payload []byte) error) (valid int, err error) {
	off := 0
	for off < len(data) {
		n, used := binary.Uvarint(data[off:])
		if used <= 0 {
			// Unterminated or overlong varint. An unterminated one at the
			// very tail is a torn length prefix; anything else is corruption.
			if used == 0 && len(data)-off < binary.MaxVarintLen64 {
				return off, nil
			}
			return off, fmt.Errorf("%w: bad frame length at offset %d", ErrCorrupt, off)
		}
		frameEnd := off + used + int(n) + 4
		if n > maxRecordLen {
			return off, fmt.Errorf("%w: %d-byte frame at offset %d", ErrCorrupt, n, off)
		}
		if frameEnd > len(data) {
			return off, nil // torn tail: the frame never finished writing
		}
		payload := data[off+used : off+used+int(n)]
		crc := binary.BigEndian.Uint32(data[frameEnd-4 : frameEnd])
		if crc32.Checksum(payload, crcTable) != crc {
			if frameEnd == len(data) {
				return off, nil // torn tail: final frame half-flushed
			}
			return off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		if fn != nil {
			if err := fn(off, payload); err != nil {
				return off, err
			}
		}
		off = frameEnd
	}
	return off, nil
}

// scanLog is scanFrames plus payload decoding: fn (when non-nil) receives
// each intact record with its frame's byte offset.
func scanLog(data []byte, fn func(off int, rec storage.Record) error) (valid int, err error) {
	return scanFrames(data, func(off int, payload []byte) error {
		rec, err := decodePayload(payload)
		if err != nil {
			return fmt.Errorf("%w (offset %d)", err, off)
		}
		if fn != nil {
			return fn(off, rec)
		}
		return nil
	})
}

// recoverLog truncates path back to its last intact frame. Corruption
// (damage that is provably not a torn tail) is returned, not repaired; the
// returned offset is where the damage starts.
func recoverLog(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: %w", err)
	}
	valid, err := scanLog(data, nil)
	if err != nil {
		return int64(valid), err
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return int64(valid), fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return int64(valid), nil
}

// appendLocked writes rec's frame to the shard's log under sh.mu (held by
// the caller), rolling back failed or short writes by truncation. It does
// not sync. Returns the frame's starting offset and the frame bytes.
func (w *WAL) appendLocked(sh *walShard, shard int, rec storage.Record) (int64, []byte, error) {
	if sh.quar != nil {
		return 0, nil, sh.quar
	}
	if sh.failed != nil {
		return 0, nil, sh.failed
	}
	if sh.f == nil {
		f, err := os.OpenFile(w.logPath(shard), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 0, nil, fmt.Errorf("wal: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return 0, nil, fmt.Errorf("wal: %w", err)
		}
		sh.f, sh.size = f, fi.Size()
	}
	frame := appendFrame(make([]byte, 0, 64), rec)
	allow, injected := len(frame), error(nil)
	if w.fault != nil {
		allow, injected = w.fault.Append(shard, frame)
		if allow < 0 {
			allow = 0
		}
		if allow > len(frame) {
			allow = len(frame)
		}
	}
	var n int
	var werr error
	if allow > 0 {
		n, werr = sh.f.Write(frame[:allow])
	}
	if werr == nil {
		werr = injected
	}
	if werr != nil || n < len(frame) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		if n == 0 {
			// Nothing landed; the log is exactly as it was.
			return 0, nil, fmt.Errorf("wal: append shard %d: %w", shard, werr)
		}
		terr := error(nil)
		if w.fault != nil {
			terr = w.fault.Truncate(shard)
		}
		if terr == nil {
			terr = sh.f.Truncate(sh.size)
		}
		if terr != nil {
			// The partial frame cannot be removed, and appending after it
			// would read as mid-log corruption on the next open. Latch the
			// shard read-only; the next open recovers the torn tail.
			sh.failed = fmt.Errorf("wal: shard %d latched after unremovable partial frame: %w", shard, werr)
			_ = sh.f.Close()
			sh.f = nil
			return 0, nil, sh.failed
		}
		return 0, nil, fmt.Errorf("wal: append shard %d: %w", shard, werr)
	}
	off := sh.size
	sh.size += int64(len(frame))
	return off, frame, nil
}

// syncLocked fsyncs the shard's log under sh.mu, consulting the fault
// injector first.
func (w *WAL) syncLocked(sh *walShard, shard int) error {
	if w.fault != nil {
		if err := w.fault.Sync(shard); err != nil {
			return fmt.Errorf("wal: sync shard %d: %w", shard, err)
		}
	}
	if sh.f == nil {
		f, err := os.OpenFile(w.logPath(shard), os.O_WRONLY, 0o644)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil // nothing ever appended: nothing to sync
			}
			return fmt.Errorf("wal: sync shard %d: %w", shard, err)
		}
		defer f.Close()
		if err := f.Sync(); err != nil {
			return fmt.Errorf("wal: sync shard %d: %w", shard, err)
		}
		return nil
	}
	if err := sh.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync shard %d: %w", shard, err)
	}
	return nil
}

// Append logs one record for the shard. A failed or short write is rolled
// back by truncating the log to its pre-append length: without that, the
// partial frame would sit between intact frames once later appends succeed,
// and the next open would refuse the shard as corrupt instead of recovering
// a torn tail. A quarantined shard refuses appends outright — nothing may
// land after damaged bytes. In group-commit mode, Append blocks on the
// record's commit window; concurrent writers wanting to share a window use
// AppendAsync.
func (w *WAL) Append(shard int, rec storage.Record) error {
	wait, err := w.AppendAsync(shard, rec)
	if err != nil || wait == nil {
		return err
	}
	return wait()
}

// AppendAsync implements storage.AsyncBackend: it stages the record in the
// stripe log and returns the commit-window barrier as a wait function (nil
// outside group-commit mode, where Append's inline durability already
// applied). Callers must invoke wait outside the stripe lock and must not
// acknowledge the write before it returns nil.
func (w *WAL) AppendAsync(shard int, rec storage.Record) (func() error, error) {
	sh, err := w.shard(shard)
	if err != nil {
		return nil, err
	}
	off, frame, err := w.appendLocked(sh, shard, rec)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	if w.group != nil {
		// Register under sh.mu so the commit log sees this stripe's frames
		// in offset order — recovery materializes strictly in that order.
		wait := w.group.register(shard, off, frame)
		sh.mu.Unlock()
		return wait, nil
	}
	if w.fsync {
		err = w.syncLocked(sh, shard)
	}
	sh.mu.Unlock()
	return nil, err
}

// committer is the group-commit engine: one per WAL, batching every
// stripe's appends into commit windows flushed with a single fsync of the
// shared commit log.
type committer struct {
	w      *WAL
	window time.Duration
	cap    int64

	// flushMu serializes commit-log file access: window flushes, rotations
	// and Close. Never held while a stripe's sh.mu is wanted by an append
	// path, so appends keep flowing while a window flushes.
	flushMu sync.Mutex

	mu     sync.Mutex
	f      *os.File // commit log append handle, opened lazily (under flushMu)
	size   int64
	dirty  map[int]bool // stripes with un-fsynced stripe-file bytes since the last rotation
	cur    *commitBatch // window currently accepting registrations
	failed error        // unremovable partial commit batch: refuse until rotation heals
}

// commitBatch is one commit window: the registrations it accumulated and
// the barrier its waiters block on.
type commitBatch struct {
	reqs []commitReq
	done chan struct{}
	err  error
}

type commitReq struct {
	shard int
	off   int64
	frame []byte
}

// register adds one staged frame to the open window (opening one — and its
// flush goroutine — if none is), returning the barrier wait function.
func (c *committer) register(shard int, off int64, frame []byte) func() error {
	c.mu.Lock()
	if c.failed != nil {
		err := c.failed
		c.mu.Unlock()
		return func() error { return err }
	}
	b := c.cur
	if b == nil {
		b = &commitBatch{done: make(chan struct{})}
		c.cur = b
		go c.run(b)
	}
	b.reqs = append(b.reqs, commitReq{shard: shard, off: off, frame: frame})
	c.mu.Unlock()
	return func() error {
		<-b.done
		return b.err
	}
}

// run drives one window: spin while the batch is still growing (bounded by
// the window deadline — timers on this scale oversleep by milliseconds, so
// the wait is a yield loop), then detach the batch, flush it with one
// fsync, and release every waiter.
func (c *committer) run(b *commitBatch) {
	deadline := time.Now().Add(c.window)
	last := -1
	for {
		c.mu.Lock()
		n := len(b.reqs)
		c.mu.Unlock()
		if n == last || time.Now().After(deadline) {
			break
		}
		last = n
		runtime.Gosched()
	}
	// Take the flush lock before closing the window. The next window can
	// then only open once this one holds it, so windows reach the commit
	// log in the order they opened and a stripe's frames stay in offset
	// order there — recovery skips a frame that arrives ahead of its
	// predecessor. A window waiting out the previous flush keeps batching.
	c.flushMu.Lock()
	c.mu.Lock()
	if c.cur == b {
		c.cur = nil // close the window: later registrations start the next one
	}
	c.mu.Unlock()
	b.err = c.flush(b.reqs)
	c.flushMu.Unlock()
	close(b.done)
	if b.err == nil {
		c.mu.Lock()
		over := c.size > c.cap
		c.mu.Unlock()
		if over {
			_ = c.rotate() // background rotation at the size cap
		}
	}
}

// flush writes the window's commit frames and fsyncs the commit log once.
// Called under flushMu. Any failure fails every append in the window; a
// partial batch write is rolled back by truncation, and an unremovable one
// latches the committer until rotation replaces the log.
func (c *committer) flush(reqs []commitReq) error {
	c.mu.Lock()
	if c.failed != nil {
		err := c.failed
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()
	var buf []byte
	for _, r := range reqs {
		payload := make([]byte, 0, 16+len(r.frame))
		payload = append(payload, recCommit)
		payload = binary.AppendUvarint(payload, uint64(r.shard))
		payload = binary.AppendUvarint(payload, uint64(r.off))
		payload = append(payload, r.frame...)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
		buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	}
	if c.f == nil {
		f, err := os.OpenFile(c.w.commitLogPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: commit log: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: commit log: %w", err)
		}
		c.f = f
		c.mu.Lock()
		c.size = fi.Size()
		c.mu.Unlock()
	}
	allow, injected := len(buf), error(nil)
	if cf, ok := c.w.fault.(CommitFaultInjector); ok && cf != nil {
		allow, injected = cf.CommitAppend(buf)
		if allow < 0 {
			allow = 0
		}
		if allow > len(buf) {
			allow = len(buf)
		}
	}
	var n int
	var werr error
	if allow > 0 {
		n, werr = c.f.Write(buf[:allow])
	}
	if werr == nil {
		werr = injected
	}
	if werr != nil || n < len(buf) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		if n > 0 {
			c.mu.Lock()
			pre := c.size
			c.mu.Unlock()
			if terr := c.f.Truncate(pre); terr != nil {
				// A partial batch that cannot be removed would read as
				// mid-commit-log corruption with later batches after it.
				// Latch; rotation (which truncates the whole log) heals.
				c.mu.Lock()
				c.failed = fmt.Errorf("wal: commit log latched after unremovable partial batch: %w", werr)
				c.mu.Unlock()
			}
		}
		return fmt.Errorf("wal: commit append: %w", werr)
	}
	c.mu.Lock()
	c.size += int64(len(buf))
	for _, r := range reqs {
		c.dirty[r.shard] = true
	}
	c.mu.Unlock()
	if cf, ok := c.w.fault.(CommitFaultInjector); ok && cf != nil {
		if err := cf.CommitSync(); err != nil {
			return fmt.Errorf("wal: commit sync: %w", err)
		}
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("wal: commit sync: %w", err)
	}
	return nil
}

// rotate makes the stripe files self-sufficient and empties the commit log:
// fsync every stripe file the committer dirtied, then truncate and fsync
// commit.wal. Checkpoint and Compact rotate first so no commit frame can
// refer into a log region they are about to truncate or rewrite; callers
// must NOT hold any shard's mutex (rotation takes them one at a time).
func (c *committer) rotate() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	c.mu.Lock()
	if c.size == 0 && len(c.dirty) == 0 && c.failed == nil {
		c.mu.Unlock()
		return nil
	}
	dirty := c.dirty
	c.dirty = make(map[int]bool)
	c.mu.Unlock()
	for shard := range dirty {
		sh, err := c.w.shard(shard)
		if err == nil {
			err = c.w.syncLocked(sh, shard)
			sh.mu.Unlock()
		}
		if err != nil {
			// Put the unsynced shards back; the rotation did not happen.
			c.mu.Lock()
			for s := range dirty {
				c.dirty[s] = true
			}
			c.mu.Unlock()
			return err
		}
	}
	if c.f == nil {
		f, err := os.OpenFile(c.w.commitLogPath(), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("wal: commit log: %w", err)
		}
		c.f = f
	}
	if err := c.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: rotate commit log: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("wal: rotate commit log: %w", err)
	}
	c.mu.Lock()
	c.size = 0
	c.failed = nil // the partial batch, if any, is gone with the log
	c.mu.Unlock()
	return nil
}

// close shuts the commit log handle after in-flight flushes finish.
func (c *committer) close() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}

// ReplayShard streams the shard's checkpoint, then its log records. On a
// damaged shard it still streams everything intact — the checkpoint if its
// checksum holds, then every log frame before the damage — and only then
// returns the *storage.CorruptError, so a caller keeps the readable prefix
// and can quarantine the shard instead of losing it.
func (w *WAL) ReplayShard(shard int, ckpt func([]byte) error, rec func(storage.Record) error) error {
	sh, err := w.shard(shard)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	damage := sh.quar
	snap, err := os.ReadFile(w.ckptPath(shard))
	switch {
	case err == nil:
		payload, cerr := unwrapCheckpoint(snap)
		if cerr != nil {
			if damage == nil {
				damage = corrupt(sh, shard, w.ckptPath(shard), 0, cerr)
			}
		} else if ckpt != nil {
			if err := ckpt(payload); err != nil {
				return err
			}
		}
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("wal: %w", err)
	}
	data, err := os.ReadFile(w.logPath(shard))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if damage != nil {
				return damage
			}
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	valid, err := scanLog(data, func(_ int, r storage.Record) error {
		if rec == nil {
			return nil
		}
		return rec(r)
	})
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			return err // a rec callback error, not log damage
		}
		if damage == nil {
			damage = corrupt(sh, shard, w.logPath(shard), int64(valid), err)
		}
		return damage
	}
	if valid < len(data) && sh.quar == nil {
		// A torn tail can only appear here if the file was damaged after
		// Open's recovery pass; repair it the same way.
		if err := os.Truncate(w.logPath(shard), int64(valid)); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if damage != nil {
		return damage
	}
	return nil
}

// Checkpoint atomically replaces the shard's checkpoint and truncates its
// log. The snapshot lands via write-to-temp, fsync, rename, so a crash
// leaves either the old checkpoint or the new one, never a torn file; the
// log is truncated only after the rename is durable. Checkpoint is also the
// repair path: the snapshot supersedes whatever the damaged log held, so a
// quarantined or latched shard comes back healthy.
func (w *WAL) Checkpoint(shard int, snapshot []byte) error {
	_, _, err := w.checkpoint(shard, snapshot)
	return err
}

// checkpoint is Checkpoint returning the new checkpoint region (the Pager's
// CheckpointLocate). In group-commit mode it rotates the commit log first,
// so no commit frame survives to materialize against the truncated log, and
// fsyncs the truncated log so the truncation survives power loss too.
func (w *WAL) checkpoint(shard int, snapshot []byte) (uint32, int64, error) {
	if w.group != nil {
		if err := w.group.rotate(); err != nil {
			return 0, 0, fmt.Errorf("wal: checkpoint shard %d: %w", shard, err)
		}
	}
	sh, err := w.shard(shard)
	if err != nil {
		return 0, 0, err
	}
	defer sh.mu.Unlock()
	if w.fault != nil {
		if err := w.fault.Checkpoint(shard, snapshot); err != nil {
			return 0, 0, fmt.Errorf("wal: checkpoint shard %d: %w", shard, err)
		}
	}
	path := w.ckptPath(shard)
	if err := WriteFileAtomic(path, wrapCheckpoint(snapshot)); err != nil {
		return 0, 0, err
	}
	if sh.f != nil {
		if err := sh.f.Truncate(0); err != nil {
			return 0, 0, fmt.Errorf("wal: truncate log %d: %w", shard, err)
		}
		if w.group != nil {
			if err := sh.f.Sync(); err != nil {
				return 0, 0, fmt.Errorf("wal: truncate log %d: %w", shard, err)
			}
		}
	} else if err := os.Truncate(w.logPath(shard), 0); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, 0, fmt.Errorf("wal: truncate log %d: %w", shard, err)
	}
	// The checkpoint holds everything the log did (and more): the log is
	// empty again and a previously latched or quarantined shard is healthy.
	sh.size, sh.failed, sh.quar = 0, nil, nil
	// Both regions moved: log offsets died with the truncation, checkpoint
	// offsets now address the fresh file.
	sh.logGen++
	sh.ckptGen++
	sh.dropReadHandles(true, true)
	return sh.ckptGen, int64(ckptHeaderLen), nil
}

// Compact rewrites the shard's log keeping only the records replay still
// needs (storage.CompactRecords), atomically via temp file and rename. A
// quarantined shard refuses — compaction would silently discard the damage
// report; repair goes through Checkpoint.
func (w *WAL) Compact(shard int) error {
	if w.group != nil {
		// Commit frames hold offsets into the log this rewrite replaces;
		// rotate them away first (the rewrite is synced by rename anyway).
		if err := w.group.rotate(); err != nil {
			return fmt.Errorf("wal: compact shard %d: %w", shard, err)
		}
	}
	sh, err := w.shard(shard)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	if sh.quar != nil {
		return sh.quar
	}
	data, err := os.ReadFile(w.logPath(shard))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	var records []storage.Record
	if valid, err := scanLog(data, func(_ int, r storage.Record) error {
		records = append(records, r)
		return nil
	}); err != nil {
		return corrupt(sh, shard, w.logPath(shard), int64(valid), err)
	}
	var out []byte
	for _, r := range storage.CompactRecords(records) {
		out = appendFrame(out, r)
	}
	if err := WriteFileAtomic(w.logPath(shard), out); err != nil {
		return err
	}
	// The rewrite dropped any torn tail, so a latched shard is healthy again.
	sh.failed = nil
	// Record positions moved wholesale: outstanding log locations are stale.
	sh.logGen++
	sh.dropReadHandles(true, false)
	// The old append handle points at the replaced inode; reopen lazily
	// (the reopen re-stats the rewritten file's length).
	if sh.f != nil {
		err := sh.f.Close()
		sh.f = nil
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return nil
}

// AppendLocate implements storage.Pager: Append plus the location of the
// record's value bytes within the stripe log, so the store can drop its
// in-memory copy and pread it back. wait is the group-commit barrier (nil
// outside group mode).
func (w *WAL) AppendLocate(shard int, rec storage.Record) (storage.ValueLoc, bool, func() error, error) {
	sh, err := w.shard(shard)
	if err != nil {
		return storage.ValueLoc{}, false, nil, err
	}
	off, frame, err := w.appendLocked(sh, shard, rec)
	if err != nil {
		sh.mu.Unlock()
		return storage.ValueLoc{}, false, nil, err
	}
	var loc storage.ValueLoc
	ok := !rec.Reset && !rec.Entry.Deleted
	if ok {
		// The value sits inside the frame past the payload length prefix,
		// the record kind byte and the entry's own key/flags/length prefix.
		_, used := binary.Uvarint(frame)
		valOff := used + 1 + encoding.EntryValueOffset(rec.Entry)
		loc = storage.ValueLoc{
			Off: off + int64(valOff),
			Len: uint32(len(rec.Entry.Value)),
			Gen: sh.logGen,
		}
	}
	var wait func() error
	if w.group != nil {
		wait = w.group.register(shard, off, frame)
		sh.mu.Unlock()
		return loc, ok, wait, nil
	}
	if w.fsync {
		err = w.syncLocked(sh, shard)
	}
	sh.mu.Unlock()
	return loc, ok, nil, err
}

// ReadValueAt implements storage.Pager: a point pread of value bytes a
// prior AppendLocate or checkpoint layout addressed. Stale generations —
// the log was truncated or the checkpoint replaced since — return
// storage.ErrStaleLoc, never other data's bytes.
func (w *WAL) ReadValueAt(shard int, loc storage.ValueLoc) ([]byte, error) {
	sh, err := w.shard(shard)
	if err != nil {
		return nil, err
	}
	defer sh.mu.Unlock()
	var f *os.File
	if loc.Ckpt {
		if loc.Gen != sh.ckptGen {
			return nil, storage.ErrStaleLoc
		}
		if sh.cf == nil {
			sh.cf, err = os.Open(w.ckptPath(shard))
			if err != nil {
				return nil, fmt.Errorf("wal: read shard %d: %w", shard, err)
			}
		}
		f = sh.cf
	} else {
		if loc.Gen != sh.logGen {
			return nil, storage.ErrStaleLoc
		}
		if sh.rf == nil {
			sh.rf, err = os.Open(w.logPath(shard))
			if err != nil {
				return nil, fmt.Errorf("wal: read shard %d: %w", shard, err)
			}
		}
		f = sh.rf
	}
	buf := make([]byte, loc.Len)
	if _, err := f.ReadAt(buf, loc.Off); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, storage.ErrStaleLoc
		}
		return nil, fmt.Errorf("wal: read shard %d: %w", shard, err)
	}
	return buf, nil
}

// CheckpointLocate implements storage.Pager: Checkpoint plus the fresh
// checkpoint region for cold value locations.
func (w *WAL) CheckpointLocate(shard int, snapshot []byte) (uint32, int64, error) {
	return w.checkpoint(shard, snapshot)
}

// CheckpointRegion implements storage.Pager.
func (w *WAL) CheckpointRegion(shard int) (uint32, int64) {
	sh, err := w.shard(shard)
	if err != nil {
		return 0, 0
	}
	defer sh.mu.Unlock()
	return sh.ckptGen, int64(ckptHeaderLen)
}

// CheckpointPayload implements storage.Pager: a bulk re-read of the whole
// checkpoint payload for cold-stripe rewrites.
func (w *WAL) CheckpointPayload(shard int, gen uint32) ([]byte, error) {
	sh, err := w.shard(shard)
	if err != nil {
		return nil, err
	}
	defer sh.mu.Unlock()
	if gen != sh.ckptGen {
		return nil, storage.ErrStaleLoc
	}
	snap, err := os.ReadFile(w.ckptPath(shard))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	payload, cerr := unwrapCheckpoint(snap)
	if cerr != nil {
		return nil, corrupt(sh, shard, w.ckptPath(shard), 0, cerr)
	}
	return payload, nil
}

// VerifyShard is the scrub path (storage.Verifier): it re-reads the shard's
// checkpoint against its checksum and every log frame against its CRC,
// without mutating anything. Damage quarantines the shard — a live stripe
// demotes the moment a bad sector is found, not at the next restart — and
// returns the *storage.CorruptError. A torn log tail is not damage (Open
// and ReplayShard repair those silently); neither is a missing file.
func (w *WAL) VerifyShard(shard int) error {
	sh, err := w.shard(shard)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	if sh.quar != nil {
		return sh.quar
	}
	snap, err := os.ReadFile(w.ckptPath(shard))
	switch {
	case err == nil:
		if _, cerr := unwrapCheckpoint(snap); cerr != nil {
			return corrupt(sh, shard, w.ckptPath(shard), 0, cerr)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("wal: %w", err)
	}
	data, err := os.ReadFile(w.logPath(shard))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	if valid, err := scanLog(data, nil); err != nil {
		return corrupt(sh, shard, w.logPath(shard), int64(valid), err)
	}
	return nil
}

// Quarantined returns the damage report of every quarantined shard, keyed
// by shard index. Shards quarantine at Open (mid-log corruption), replay
// (checkpoint damage) or scrub (VerifyShard on a live stripe).
func (w *WAL) Quarantined() map[int]*storage.CorruptError {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[int]*storage.CorruptError)
	for i, sh := range w.shards {
		sh.mu.Lock()
		if sh.quar != nil {
			out[i] = sh.quar
		}
		sh.mu.Unlock()
	}
	return out
}

// FrameOffsets scans path's log and returns the byte offset of every intact
// frame, oldest first — the targeting map for fault injectors that flip
// bits in a chosen frame. Damage and torn tails are not errors here; only
// the intact prefix's frames return.
func FrameOffsets(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var offs []int64
	_, _ = scanLog(data, func(off int, _ storage.Record) error {
		offs = append(offs, int64(off))
		return nil
	})
	return offs, nil
}

// Close releases every append handle. It does not checkpoint.
func (w *WAL) Close() error {
	w.mu.Lock()
	shards := w.shards
	w.shards = nil
	w.closed = true
	w.mu.Unlock()
	var first error
	for _, sh := range shards {
		sh.mu.Lock()
		if sh.f != nil {
			if err := sh.f.Close(); err != nil && first == nil {
				first = fmt.Errorf("wal: %w", err)
			}
			sh.f = nil
		}
		sh.dropReadHandles(true, true)
		sh.mu.Unlock()
	}
	if w.group != nil {
		if err := w.group.close(); err != nil && first == nil {
			first = fmt.Errorf("wal: %w", err)
		}
	}
	if err := w.unlock(); err != nil && first == nil {
		first = fmt.Errorf("wal: %w", err)
	}
	return first
}

// WriteFileAtomic writes data to path so a crash leaves either the old
// content or the new, never a torn file: temp file in the same directory,
// fsync, rename over the target, fsync the directory (a rename is not
// durable until its directory is). Exported for callers persisting small
// metadata next to a WAL.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	// A rename is durable only once the containing directory is synced;
	// without this, a power loss could keep a later log truncation while
	// losing the checkpoint the truncation depended on.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}
