// Package wal is the store's one durability layer: the log-structured
// file-per-stripe log under every durable kvstore replica and hint queue.
// Every log entry carries its key's whole version stamp, so the contract
// is small — append, checkpoint or fold, replay — and the stamps, not the
// storage layer, decide what a restarted replica still has to move.
//
// Each stripe owns an append-only log of length-prefixed, CRC-protected
// entry frames plus a checkpoint file holding the stripe's latest binary
// snapshot and the log frames folded in after it. Appends are a single
// write to one file; restart replays the snapshot, its folds and then the
// log tail.
//
// # On-disk layout
//
//	<dir>/shard-NNNN.wal   entry log, a sequence of frames
//	<dir>/shard-NNNN.ckpt  checkpoint: header snapshot fold
//
//	frame    := uvarint(len(payload)) payload crc32c(payload)   // crc big-endian
//	payload  := 0x01 entry           // set: encoding.AppendEntry bytes
//	header   := "WCK2" crc32c(snapshot) uint64(len(snapshot))
//	            uint64(len(fold)) crc32c(header bytes before it)  // big-endian
//	snapshot := kvstore binary shard snapshot
//	fold     := frame*               // set frames only
//
// Any other payload kind — including 0x02, a retired stripe-reset record —
// is corruption, even under a valid CRC, in a log and in a fold alike.
//
// An append encodes its frame in place: the payload length is computed
// up front (encoding.EntryLen), the entry is encoded straight into a
// buffer the stripe keeps under its mutex, and the CRC is taken over those
// bytes where they lie. The kept buffer is capped at frameKeep (4 KiB); a
// larger frame is encoded into a buffer of its own that is dropped after
// the write. A buffered append of a frame under the cap allocates nothing.
//
// # Checkpoints and folds
//
// Checkpoint writes a new file — header and snapshot, no folds — through
// write-to-temp, fsync, rename, then truncates the log. Fold is the
// incremental checkpoint: it keeps the last log frame of each key, writes
// those raw frames after the snapshot and earlier folds and fsyncs them,
// then commits them by rewriting the header with the longer fold length and
// fsyncing again, and only then truncates the log. Every frame carries its
// key's whole state, so the snapshot plus its folds plus the log, applied
// in order, is the stripe. Fold refuses (and the caller rewrites the stripe
// with Checkpoint) when the fold region would outgrow the snapshot it
// follows, so dead space never exceeds live data.
//
// # Group commit
//
// With Options.GroupCommit, each append writes its frame to the stripe log
// (no sync), then registers its stripe with a shared committer and
// receives a wait function — the commit barrier. The committer coalesces
// all registrations arriving within a short window (bounded by
// defaultCommitWindow), then flushes the window: a window fsyncs each
// stripe log it touched; an fsync covers every earlier byte of its file.
// Each touched stripe log is fsynced once, in the order the window first
// touched it, and every waiter is released only after the last fsync; any
// failure fails every waiter of that window and of no other. Nothing may be
// acknowledged before its wait returns nil. Windows flush one at a time, in
// the order they opened.
//
// Every append of one window receives the same wait function, and a wait
// function is called at most once per append that returned it. Windows are
// reused: once every waiter of a window has returned from its wait, the
// window's objects — its barrier, its shard list, its flush goroutine's
// body and its wait function — go back on a small free list for a later
// window, so a group-commit append allocates nothing in steady state. A
// wait that is never called only keeps its window from being reused.
//
// Every frame is a complete record of its key — its version stamp orders
// it against any other copy — so a stripe log holds a durable copy of every
// frame up to its last fsync and needs no second log. After a crash, the
// ordinary torn-tail repair and checkpoint + log replay recover every
// acknowledged append.
//
// An earlier format kept a shared commit log beside the stripe logs, with
// copies of the frames of windows that spanned stripes. Open refuses a
// directory holding a non-empty one, whose frames the stripe logs may lack,
// and deletes an empty one.
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
// A fold has no torn tail. Its header names exactly the committed fold
// bytes, and names them only once they are durable, so every byte of a
// checkpoint up to that length is covered by a checksum and any damage
// there is corruption — the last fold frame included. Bytes past the
// committed length are a fold the crash interrupted before its header
// write; Open truncates them, which is safe because the log is truncated
// only after the header is durable, so their frames are all still in the
// log. A crash between the header write and the log truncation replays the
// folded frames and then the same frames from the log — the same state.
// The header is one 28-byte write at offset 0, inside the first sector,
// which disks write whole.
//
// By default appends reach the OS buffer cache (durable across process
// crashes, not power loss); Options.GroupCommit makes every acknowledged
// append survive power loss too, through its window's fsync (above). In
// that mode a newly created stripe log is also durable by name: its
// directory is fsynced once, when the file is created.
// Checkpoints always fsync and rename, and folds always fsync before the
// log truncates, whatever the option, so a half-written checkpoint can
// never replace a good one. Every checkpoint carries a
// checksummed header (above), so at-rest checkpoint damage is detected
// exactly like frame damage; a file without the header is corrupt.
//
// # Quarantine
//
// Corruption — damage that is provably not a torn tail — is scoped to the
// shard it lives in, never to the directory. Open records the damage (a
// *CorruptError naming the file and byte offset) and keeps going:
// healthy shards recover and serve normally, while the damaged shard
// latches — appends return the corruption, and ReplayShard streams the
// intact prefix before reporting it, so a caller keeps every readable
// entry. Checkpoint is the repair path: a fresh checkpoint holds
// the shard's full state, so it truncates the damaged log and clears the
// latch; Fold refuses a latched or quarantined shard. VerifyShard is the
// scrub path: it re-reads a live shard's snapshot, folds and log against
// their checksums, without decoding entries, and latches on damage,
// demoting bad sectors found long after Open.
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
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"versionstamp/internal/encoding"
)

// recSet is the one frame payload kind: a set record.
const recSet = 0x01

// logExt is the file extension of a stripe's entry log.
const logExt = ".wal"

// legacyCommitLog names the shared group-commit log an earlier format kept
// beside the stripe logs (see checkLegacyCommitLog).
const legacyCommitLog = "commit" + logExt

// defaultCommitWindow bounds how long a group-commit window stays open.
const defaultCommitWindow = 150 * time.Microsecond

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
// package comment on quarantine) and reported as a *CorruptError
// wrapping this sentinel.
var ErrCorrupt = errors.New("wal: corrupt log")

// CorruptError reports durable damage scoped to one shard: bytes that are
// provably not a torn tail write (a flipped bit mid-log, a checkpoint that
// fails its checksum). It names the damaged file and the offset where the
// damage starts, so operators and tests can point at the exact bytes.
// ReplayShard returns it *after* streaming the intact prefix, so a caller
// can see what is readable, quarantine the shard and repair it from peers
// (kvstore drops the prefix — a rollback must not meet its peers' stamps,
// see kvstore.OpenBackend) — whole-replica death is never the right scope
// for one bad sector.
type CorruptError struct {
	// Shard is the damaged stripe.
	Shard int
	// Path is the damaged file (empty when no file is named).
	Path string
	// Offset is where the damage starts within Path (-1 = unknown).
	Offset int64
	// Err is the underlying corruption report (wraps ErrCorrupt when the
	// WAL found the damage).
	Err error
}

func (e *CorruptError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("wal: shard %d corrupt at %s+%d: %v", e.Shard, e.Path, e.Offset, e.Err)
	}
	return fmt.Sprintf("wal: shard %d corrupt: %v", e.Shard, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// ErrStaleLoc reports a ValueLoc whose generation no longer matches the
// shard's checkpoint: a later Checkpoint replaced the file since the
// location was handed out. Callers holding stale locations re-derive them —
// the value itself is never lost, only its address.
var ErrStaleLoc = errors.New("wal: stale value location")

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

// ckptMagic heads every checkpoint file. The header goes on with a
// CRC32-Castagnoli of the snapshot, the snapshot's length, the committed
// fold region's length and a CRC32-Castagnoli of the header bytes before
// it, all big-endian; the snapshot and the fold region follow. A file whose
// header does not check is damaged.
const ckptMagic = "WCK2"

// ckptHeaderLen is the byte offset of a checkpoint's snapshot in its file.
const ckptHeaderLen = len(ckptMagic) + 4 + 8 + 8 + 4

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
	// path. (0, err) is a clean failure with nothing written. frame is the
	// stripe's reused frame buffer, valid only during the call: an injector
	// that keeps the bytes copies them.
	Append(shard int, frame []byte) (int, error)
	// Truncate is consulted before the rollback truncation that removes a
	// partial frame; an error simulates a rollback that cannot complete, so
	// the shard latches read-only until a checkpoint heals it.
	Truncate(shard int) error
	// Sync is consulted before each stripe-log fsync of a group-commit
	// window; an error fails every append in the window. The frames stay in
	// the log.
	Sync(shard int) error
	// Checkpoint is consulted before a checkpoint write with the snapshot,
	// and before a fold with exactly the frames the fold appends; an error
	// fails the checkpoint or fold before anything on disk changes. data is
	// valid only during the call (a fold's frames are built in reused
	// scratch): an injector that keeps the bytes copies them.
	Checkpoint(shard int, data []byte) error
}

// Options configures a WAL.
type Options struct {
	// GroupCommit turns on the group-commit pipeline (see the package
	// comment): each append becomes durable when its window fsyncs the
	// stripe logs it touched, and callers that can overlap writers should
	// use AppendAsync to share windows. Off by default: appends then survive
	// process crashes (the OS holds the bytes) but not power loss.
	GroupCommit bool
	// Fault, when non-nil, intercepts physical operations for deterministic
	// fault injection (see FaultInjector and internal/storage/faultfs).
	Fault FaultInjector
}

// WAL is the file-per-stripe backend. Safe for concurrent use; operations
// on the same shard serialize on the shard's mutex.
type WAL struct {
	dir   string
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
	// quar records proven corruption scoped to this shard: appends refuse
	// with it, ReplayShard streams the intact prefix then reports it, and
	// Checkpoint (whose snapshot supersedes the damaged bytes) clears it.
	quar *CorruptError

	// Paging state (ReadValueAt, CheckpointPayload): ckptGen guards
	// outstanding value locations against checkpoint replacement; cf serves
	// point preads and is closed whenever the checkpoint is replaced.
	ckptGen uint32
	cf      *os.File // checkpoint read handle, opened lazily

	// buf is the stripe's frame buffer: appendLocked encodes each frame
	// into it, at most frameKeep bytes (see frameBuf).
	buf []byte
}

// dropReadHandle closes the shard's checkpoint pread handle; callers hold
// sh.mu and bump ckptGen so outstanding locations die with it.
func (sh *walShard) dropReadHandle() {
	if sh.cf != nil {
		_ = sh.cf.Close()
		sh.cf = nil
	}
}

// Open prepares dir (creating it if needed), takes the directory's
// advisory lock — two live processes appending to the same logs would
// destroy each other's acknowledged writes — and recovers every existing
// shard log and checkpoint: torn log tails and interrupted folds are
// truncated away here, once, so appends and folds can never land after
// garbage. Mid-log corruption, or damage to a checkpoint's header or
// committed folds, does not fail the open: the damaged shard is
// quarantined (file and byte offset recorded) and every other shard
// recovers normally. The lock dies with the process; a crashed owner never
// blocks the next Open. A directory holding a non-empty commit log of the
// earlier group-commit format is refused (see checkLegacyCommitLog).
func Open(dir string, opts Options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, fault: opts.Fault, lock: lock, shards: make(map[int]*walShard)}
	if err := checkLegacyCommitLog(dir); err != nil {
		_ = w.unlock()
		return nil, err
	}
	var files []string
	for _, pattern := range []string{"shard-*.ckpt", "shard-*" + logExt} {
		matches, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			_ = w.unlock()
			return nil, fmt.Errorf("wal: %w", err)
		}
		files = append(files, matches...)
	}
	for _, path := range files {
		recoverFile := recoverTail
		if filepath.Ext(path) == ".ckpt" {
			recoverFile = recoverFolds
		}
		off, err := recoverFile(path)
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
		if w.shards[shard] == nil { // the first damage found is reported
			w.shards[shard] = &walShard{quar: &CorruptError{
				Shard: shard, Path: path, Offset: off, Err: err,
			}}
		}
	}
	if opts.GroupCommit {
		w.group = &committer{w: w, window: defaultCommitWindow}
	}
	return w, nil
}

// checkLegacyCommitLog refuses dir when it holds a non-empty commit log of
// the earlier group-commit format: after a crash that log may hold
// acknowledged frames its stripe logs lack, and this format cannot replay
// it. An empty one holds nothing and is deleted.
func checkLegacyCommitLog(dir string) error {
	path := filepath.Join(dir, legacyCommitLog)
	fi, err := os.Stat(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil
	case err != nil:
		return fmt.Errorf("wal: %w", err)
	case fi.Size() > 0:
		return fmt.Errorf("wal: %s is a %d-byte commit log of an earlier format, whose frames the stripe logs may lack; this version cannot replay it", path, fi.Size())
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// shardFromPath parses the shard index out of a shard-NNNN.wal or
// shard-NNNN.ckpt path.
func shardFromPath(path string) (int, bool) {
	base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
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
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", shard)+logExt)
}

// CheckpointPath returns the shard's checkpoint file path under dir.
func CheckpointPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.ckpt", shard))
}

func (w *WAL) logPath(shard int) string  { return LogPath(w.dir, shard) }
func (w *WAL) ckptPath(shard int) string { return CheckpointPath(w.dir, shard) }

// corrupt quarantines sh with a damage report and returns it. Callers hold
// sh.mu.
func corrupt(sh *walShard, shard int, path string, off int64, err error) *CorruptError {
	var ce *CorruptError
	if errors.As(err, &ce) {
		sh.quar = ce
		return ce
	}
	ce = &CorruptError{Shard: shard, Path: path, Offset: off, Err: err}
	sh.quar = ce
	return ce
}

// ckptHeader is a checkpoint file's parsed header.
type ckptHeader struct {
	sum          uint32 // CRC32-Castagnoli of the snapshot
	snap, folded int64  // lengths of the snapshot and of the committed folds
}

// folds returns the file offset where the fold region starts.
func (h ckptHeader) folds() int64 { return int64(ckptHeaderLen) + h.snap }

// end returns the file offset where the committed folds end.
func (h ckptHeader) end() int64 { return h.folds() + h.folded }

// encode returns the header's bytes, its own checksum last.
func (h ckptHeader) encode() []byte {
	b := make([]byte, 0, ckptHeaderLen)
	b = append(b, ckptMagic...)
	b = binary.BigEndian.AppendUint32(b, h.sum)
	b = binary.BigEndian.AppendUint64(b, uint64(h.snap))
	b = binary.BigEndian.AppendUint64(b, uint64(h.folded))
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// wrapCheckpoint prefixes snapshot with its header: a checkpoint file with
// an empty fold region.
func wrapCheckpoint(snapshot []byte) []byte {
	h := ckptHeader{sum: crc32.Checksum(snapshot, crcTable), snap: int64(len(snapshot))}
	return append(h.encode(), snapshot...)
}

// parseHeader checks the header at the front of a checkpoint file of size
// bytes against its own checksum and the file's length. The snapshot's
// checksum is not checked here.
func parseHeader(hdr []byte, size int64) (ckptHeader, error) {
	n := ckptHeaderLen - 4
	if len(hdr) < ckptHeaderLen || size < int64(ckptHeaderLen) ||
		string(hdr[:len(ckptMagic)]) != ckptMagic ||
		crc32.Checksum(hdr[:n], crcTable) != binary.BigEndian.Uint32(hdr[n:]) {
		return ckptHeader{}, fmt.Errorf("%w: bad checkpoint header", ErrCorrupt)
	}
	snap := binary.BigEndian.Uint64(hdr[len(ckptMagic)+4:])
	folded := binary.BigEndian.Uint64(hdr[len(ckptMagic)+12:])
	if room := uint64(size) - uint64(ckptHeaderLen); snap > room || folded > room-snap {
		return ckptHeader{}, fmt.Errorf("%w: checkpoint of %d+%d bytes overruns the file", ErrCorrupt, snap, folded)
	}
	return ckptHeader{sum: binary.BigEndian.Uint32(hdr[len(ckptMagic):]), snap: int64(snap), folded: int64(folded)}, nil
}

// splitCheckpoint verifies a checkpoint file's header and snapshot checksum
// and returns the snapshot and the committed fold region after it.
func splitCheckpoint(data []byte) (snapshot, fold []byte, err error) {
	h, err := parseHeader(data, int64(len(data)))
	if err != nil {
		return nil, nil, err
	}
	snapshot = data[ckptHeaderLen:h.folds()]
	if crc32.Checksum(snapshot, crcTable) != h.sum {
		return nil, nil, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt)
	}
	return snapshot, data[h.folds():h.end()], nil
}

// readHeader reads and checks the header of the checkpoint file f, without
// reading the snapshot, and returns it with the file's size.
func readHeader(f *os.File) (ckptHeader, int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return ckptHeader{}, 0, err
	}
	hdr := make([]byte, ckptHeaderLen)
	n, err := f.ReadAt(hdr, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return ckptHeader{}, 0, err
	}
	h, err := parseHeader(hdr[:n], fi.Size())
	return h, fi.Size(), err
}

// readFolds reads the committed fold region of the checkpoint at path — the
// header is checked, the snapshot is not read — and returns it with its
// offset in the file and the file's size.
func readFolds(path string) (region []byte, base, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	defer f.Close()
	h, size, err := readHeader(f)
	if err != nil {
		return nil, 0, 0, err
	}
	region = make([]byte, h.folded)
	if _, err := f.ReadAt(region, h.folds()); err != nil {
		return nil, 0, 0, err
	}
	return region, h.folds(), size, nil
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

// frameKeep caps the frame buffer a stripe keeps between appends: a frame
// up to this size is encoded in the stripe's buffer, a larger one in a
// buffer of its own that is dropped after the write, so one big value does
// not pin its size for the life of the stripe.
const frameKeep = 4 << 10

// frameLen returns the length of e's set frame.
func frameLen(e encoding.Entry) int {
	n := 1 + encoding.EntryLen(e)
	return encoding.UvarintLen(uint64(n)) + n + 4
}

// appendFrame appends e's set frame to dst: the payload length, the payload
// encoded in place, and its CRC, taken over the payload where it lies.
func appendFrame(dst []byte, e encoding.Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(1+encoding.EntryLen(e)))
	start := len(dst)
	dst = append(dst, recSet)
	dst = encoding.AppendEntry(dst, e)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// frameBuf returns an empty buffer with room for a size-byte frame: the
// stripe's own when the frame fits under frameKeep (growing it, up to that
// cap, if it is short), otherwise a fresh one the stripe does not keep.
// sh.mu held.
func (sh *walShard) frameBuf(size int) []byte {
	switch {
	case size > frameKeep:
		return make([]byte, 0, size)
	case cap(sh.buf) < size:
		sh.buf = make([]byte, 0, min(max(size, 2*cap(sh.buf)), frameKeep))
	}
	return sh.buf[:0]
}

// decodePayload parses one checksummed set payload. A payload that passes
// its CRC but does not decode — any other kind included — is corruption,
// never a torn write.
func decodePayload(payload []byte) (encoding.Entry, error) {
	if len(payload) == 0 || payload[0] != recSet {
		return encoding.Entry{}, fmt.Errorf("%w: not a set record", ErrCorrupt)
	}
	e, used, err := encoding.DecodeEntry(payload[1:])
	if err != nil {
		return encoding.Entry{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if used != len(payload)-1 {
		return encoding.Entry{}, fmt.Errorf("%w: %d trailing record bytes", ErrCorrupt, len(payload)-1-used)
	}
	return e, nil
}

// scanFrames walks the frames of data, calling fn (when non-nil) with each
// intact payload and its frame's byte offset, and returns the offset of the
// first byte that is not part of an intact frame — len(data) for a clean
// log. A damaged frame that runs to the end of data is a torn tail (valid
// stops before it); a damaged frame with bytes after it is corruption.
// base is data's offset in the region it was read from: error messages name
// base+off, so a region checked a window at a time reports what a check of
// it whole would.
func scanFrames(data []byte, base int, fn func(off int, payload []byte) error) (valid int, err error) {
	off := 0
	for off < len(data) {
		n, used := binary.Uvarint(data[off:])
		if used <= 0 {
			// Unterminated or overlong varint. An unterminated one at the
			// very tail is a torn length prefix; anything else is corruption.
			if used == 0 && len(data)-off < binary.MaxVarintLen64 {
				return off, nil
			}
			return off, fmt.Errorf("%w: bad frame length at offset %d", ErrCorrupt, base+off)
		}
		frameEnd := off + used + int(n) + 4
		if n > maxRecordLen {
			return off, fmt.Errorf("%w: %d-byte frame at offset %d", ErrCorrupt, n, base+off)
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
			return off, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, base+off)
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
// each intact entry with its frame's byte offset.
func scanLog(data []byte, fn func(off int, e encoding.Entry) error) (valid int, err error) {
	return scanFrames(data, 0, func(off int, payload []byte) error {
		e, err := decodePayload(payload)
		if err != nil {
			return fmt.Errorf("%w (offset %d)", err, off)
		}
		if fn != nil {
			return fn(off, e)
		}
		return nil
	})
}

// checkFrames is scanFrames with each payload's kind and key prefix checked
// and nothing decoded: the pass Open's recovery and the scrub make, which
// costs a CRC per frame rather than a stamp decode.
func checkFrames(data []byte, base int) (valid int, err error) {
	return scanFrames(data, base, func(off int, payload []byte) error {
		if _, ok := frameKey(payload); !ok {
			return fmt.Errorf("%w: not a set record (offset %d)", ErrCorrupt, base+off)
		}
		return nil
	})
}

// frameKey returns the key of a set payload from the key prefix
// encoding.AppendEntry writes (uvarint length, key bytes), without
// decoding the value or the stamp; false means the payload is no set
// record.
func frameKey(payload []byte) ([]byte, bool) {
	if len(payload) == 0 || payload[0] != recSet {
		return nil, false
	}
	n, used := binary.Uvarint(payload[1:])
	if used <= 0 || n > uint64(len(payload)-1-used) {
		return nil, false
	}
	return payload[1+used : 1+used+int(n)], true
}

// foldErr is the scan result err for a committed fold region of end bytes
// whose intact frames end at valid. A fold has no torn tail — its header
// names its bytes only once they are durable — so frames that stop short of
// the region's end are corruption too.
func foldErr(valid, end int, err error) error {
	if err == nil && valid < end {
		return fmt.Errorf("%w: damaged fold frame at offset %d", ErrCorrupt, valid)
	}
	return err
}

// recoverTail truncates the stripe log at path back to its last intact
// frame. Corruption (damage that is provably not a torn tail) is returned,
// not repaired; the returned offset is where the damage starts.
func recoverTail(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: %w", err)
	}
	valid, err := checkFrames(data, 0)
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

// recoverFolds checks the checkpoint at path: its header, and every frame of
// the fold region the header commits, where any damage is corruption. Bytes
// past the committed folds are a fold the crash interrupted before its
// header write; its frames are all still in the log, so they are truncated
// away. The snapshot is left to ReplayShard and VerifyShard. The returned
// offset is where damage starts.
func recoverFolds(path string) (int64, error) {
	region, base, size, err := readFolds(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		if errors.Is(err, ErrCorrupt) {
			return 0, err
		}
		return 0, fmt.Errorf("wal: %w", err)
	}
	valid, err := checkFrames(region, 0)
	if err = foldErr(valid, len(region), err); err != nil {
		return base + int64(valid), err
	}
	if end := base + int64(len(region)); size > end {
		if err := os.Truncate(path, end); err != nil {
			return end, fmt.Errorf("wal: truncate interrupted fold: %w", err)
		}
	}
	return 0, nil
}

// appendLocked writes e's frame to the shard's log under sh.mu (held by the
// caller), rolling back failed or short writes by truncation. It does not
// sync. The frame is encoded straight into the stripe's buffer (frameBuf),
// so an append of a frame up to frameKeep bytes allocates nothing.
func (w *WAL) appendLocked(sh *walShard, shard int, e encoding.Entry) error {
	if sh.quar != nil {
		return sh.quar
	}
	if sh.failed != nil {
		return sh.failed
	}
	if sh.f == nil {
		f, err := w.openAppend(w.logPath(shard))
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			_ = f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		sh.f, sh.size = f, fi.Size()
	}
	frame := appendFrame(sh.frameBuf(frameLen(e)), e)
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
			return fmt.Errorf("wal: append shard %d: %w", shard, werr)
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
			return sh.failed
		}
		return fmt.Errorf("wal: append shard %d: %w", shard, werr)
	}
	sh.size += int64(len(frame))
	return nil
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

// Append logs one entry for the shard. A failed or short write is rolled
// back by truncating the log to its pre-append length: without that, the
// partial frame would sit between intact frames once later appends succeed,
// and the next open would refuse the shard as corrupt instead of recovering
// a torn tail. A quarantined shard refuses appends outright — nothing may
// land after damaged bytes. In group-commit mode, Append blocks on the
// entry's commit window; concurrent writers wanting to share a window use
// AppendAsync.
func (w *WAL) Append(shard int, e encoding.Entry) error {
	wait, err := w.AppendAsync(shard, e)
	if err != nil || wait == nil {
		return err
	}
	return wait()
}

// AppendAsync is the group-commit append: it stages the entry in the
// stripe log and returns the commit-window barrier as a wait function (nil
// outside group-commit mode, where the write to the OS buffer is all the
// durability there is). Callers must invoke wait outside the stripe lock,
// at most once per AppendAsync that returned it, and must not acknowledge
// the write before it returns nil. The wait function belongs to the
// window, not to the append: every append of one window receives the same
// one, and the window is reused once each of those calls has returned.
func (w *WAL) AppendAsync(shard int, e encoding.Entry) (func() error, error) {
	sh, err := w.shard(shard)
	if err != nil {
		return nil, err
	}
	defer sh.mu.Unlock()
	if err := w.appendLocked(sh, shard, e); err != nil || w.group == nil {
		return nil, err
	}
	// The window registered here fsyncs this stripe log only after it
	// closes, so its fsync covers the frame just written.
	return w.group.register(shard), nil
}

// maxFreeBatches bounds the committer's free list: a window open, one
// flushing and one releasing its waiters need three, so a burst of
// overlapping windows pins no more than this once it passes.
const maxFreeBatches = 4

// committer is the group-commit engine: one per WAL, batching every
// stripe's appends into commit windows, each flushed by fsyncing the
// stripe logs it touched. Closed windows are recycled through a small free
// list, so in steady state opening one allocates nothing.
type committer struct {
	w      *WAL
	window time.Duration

	// flushMu serializes window flushes. Never held while a stripe's sh.mu
	// is wanted by an append path, so appends keep flowing while a window
	// flushes.
	flushMu sync.Mutex

	mu   sync.Mutex
	cur  *commitBatch   // window currently accepting registrations
	free []*commitBatch // windows every waiter has returned from
}

// commitBatch is one commit window: the registrations it accumulated, the
// distinct shards they touched in first-touch order, and the barrier its
// waiters block on. A batch outlives its window: once the last of its n
// waiters returns from wait, it goes back on the committer's free list and
// a later window reuses it, with its shard slice truncated and its barrier
// re-armed. A wait that is never called keeps its batch off the free list.
type commitBatch struct {
	run  func()       // the flush goroutine's body, bound once per batch
	wait func() error // the barrier every register of the window returns

	n        int            // registrations; under committer.mu until the window closes
	shards   []int          // under committer.mu until the window closes
	done     sync.WaitGroup // held from the window's opening until its flush returns
	err      error          // the flush's result, written before done is released
	returned atomic.Int32   // waiters that have returned from wait
}

// register adds one staged frame to the open window (opening one — and its
// flush goroutine — if none is), returning the window's wait function.
func (c *committer) register(shard int) func() error {
	c.mu.Lock()
	b := c.cur
	if b == nil {
		b = c.openLocked()
		go b.run()
	}
	b.n++
	if !slices.Contains(b.shards, shard) {
		b.shards = append(b.shards, shard)
	}
	c.mu.Unlock()
	return b.wait
}

// openLocked makes a batch the open window, taking one off the free list
// when there is one. Called under c.mu. A batch is on the free list only
// once every waiter of its last window has returned, so resetting it and
// re-arming done races with no one.
func (c *committer) openLocked() *commitBatch {
	var b *commitBatch
	if n := len(c.free); n > 0 {
		b = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		b.n, b.shards, b.err = 0, b.shards[:0], nil
		b.returned.Store(0)
	} else {
		b = new(commitBatch)
		b.run = func() { c.run(b) }
		b.wait = func() error { return c.await(b) }
	}
	b.done.Add(1)
	c.cur = b
	return b
}

// await is a batch's wait function: it blocks until the window's flush
// returns and reports its result. The last waiter to return puts the batch
// back on the free list (if the list has room), after reading err.
func (c *committer) await(b *commitBatch) error {
	b.done.Wait()
	// Read everything before counting this waiter out: once the last one
	// is counted, the batch may be reset for the next window. n is final,
	// as the window closed before its flush released done.
	err, n := b.err, b.n
	if int(b.returned.Add(1)) == n {
		c.mu.Lock()
		if len(c.free) < maxFreeBatches {
			c.free = append(c.free, b)
		}
		c.mu.Unlock()
	}
	return err
}

// run drives one window: spin while the batch is still growing (bounded by
// the window deadline — timers on this scale oversleep by milliseconds, so
// the wait is a yield loop), then detach the batch, flush it, and release
// every waiter.
func (c *committer) run(b *commitBatch) {
	deadline := time.Now().Add(c.window)
	last := -1
	for {
		c.mu.Lock()
		n := b.n
		c.mu.Unlock()
		if n == last || time.Now().After(deadline) {
			break
		}
		last = n
		runtime.Gosched()
	}
	// Take the flush lock before closing the window. The next window can
	// then only open once this one holds it, so windows flush one at a time
	// in the order they opened. A window waiting out the previous flush
	// keeps batching.
	c.flushMu.Lock()
	c.mu.Lock()
	if c.cur == b {
		c.cur = nil // close the window: later registrations start the next one
	}
	c.mu.Unlock()
	b.err = c.flush(b.shards)
	c.flushMu.Unlock()
	b.done.Done()
}

// flush makes a window durable: it fsyncs each stripe log the window
// touched, once, in the order the window first touched them. Every frame is
// a complete record of its key, so a stripe log fsynced past a frame is a
// durable copy of it. Called under flushMu. The first failure fails every
// append in the window.
func (c *committer) flush(shards []int) error {
	for _, shard := range shards {
		if err := c.syncStripe(shard); err != nil {
			return err
		}
	}
	return nil
}

// syncStripe fsyncs one stripe log under its mutex.
func (c *committer) syncStripe(shard int) error {
	sh, err := c.w.shard(shard)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	return c.w.syncLocked(sh, shard)
}

// ReplayShard streams the shard's snapshot through ckpt, then its fold
// frames and its log entries through rec. On a damaged shard it still
// streams everything intact before the damage — the snapshot if its
// checksum holds, then every fold and log frame before the first bad one —
// and only then returns the *CorruptError, so a caller keeps the
// readable prefix and can quarantine the shard instead of losing it.
func (w *WAL) ReplayShard(shard int, ckpt func([]byte) error, rec func(encoding.Entry) error) error {
	sh, err := w.shard(shard)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	damage := sh.quar
	// scan streams one frame region of path, which starts at base in the
	// file, and returns the end of its intact frames; a fold region must be
	// intact to its end. Damage is recorded and returned as the shard's
	// damage report.
	scan := func(path string, base int, region []byte, fold bool) (int, error) {
		valid, err := scanLog(region, func(_ int, e encoding.Entry) error {
			if rec == nil {
				return nil
			}
			return rec(e)
		})
		if fold {
			err = foldErr(valid, len(region), err)
		}
		if errors.Is(err, ErrCorrupt) {
			if damage == nil {
				damage = corrupt(sh, shard, path, int64(base+valid), err)
			}
			return valid, damage
		}
		return valid, err // nil, or a rec callback error
	}
	data, err := os.ReadFile(w.ckptPath(shard))
	switch {
	case err == nil:
		snap, fold, cerr := splitCheckpoint(data)
		if cerr != nil {
			if damage == nil {
				damage = corrupt(sh, shard, w.ckptPath(shard), 0, cerr)
			}
			return damage
		}
		if ckpt != nil {
			if err := ckpt(snap); err != nil {
				return err
			}
		}
		if _, err := scan(w.ckptPath(shard), len(snap)+ckptHeaderLen, fold, true); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("wal: %w", err)
	}
	data, err = os.ReadFile(w.logPath(shard))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if damage != nil {
				return damage
			}
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	valid, err := scan(w.logPath(shard), 0, data, false)
	if err != nil {
		return err
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
	_, _, err := w.CheckpointLocate(shard, snapshot)
	return err
}

// CheckpointLocate is Checkpoint plus the fresh checkpoint region for cold
// value locations: the generation locations against it must carry, and the
// byte offset within the checkpoint file where the snapshot starts. In
// group-commit mode it fsyncs the truncated log so the truncation survives
// power loss too.
func (w *WAL) CheckpointLocate(shard int, snapshot []byte) (uint32, int64, error) {
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
	// Checkpoint offsets now address the fresh file, which has no folds.
	sh.ckptGen++
	sh.dropReadHandle()
	if err := w.truncateLogLocked(sh, shard); err != nil {
		return 0, 0, err
	}
	// The checkpoint holds everything the log did (and more): a previously
	// latched or quarantined shard is healthy.
	sh.failed, sh.quar = nil, nil
	return sh.ckptGen, int64(ckptHeaderLen), nil
}

// truncateLogLocked empties the shard's log once a checkpoint or fold holds
// everything in it, fsyncing the truncation in group-commit mode so it
// survives power loss too. Callers hold sh.mu.
func (w *WAL) truncateLogLocked(sh *walShard, shard int) error {
	if sh.f != nil {
		if err := sh.f.Truncate(0); err != nil {
			return fmt.Errorf("wal: truncate log %d: %w", shard, err)
		}
		if w.group != nil {
			if err := sh.f.Sync(); err != nil {
				return fmt.Errorf("wal: truncate log %d: %w", shard, err)
			}
		}
	} else if err := os.Truncate(w.logPath(shard), 0); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("wal: truncate log %d: %w", shard, err)
	}
	sh.size = 0
	return nil
}

// Fold is the incremental checkpoint. It keeps the last log frame of each
// key — found by the frame's key prefix, nothing is decoded — writes those
// raw frames after the checkpoint's snapshot and committed folds and fsyncs
// them, commits them by rewriting the header with the longer fold length and
// fsyncing again, and only then truncates the log. An empty log folds
// nothing and writes nothing. The log is read, and the frames built, in the
// idle fold scratch (idleFold), so a warm fold's allocations do not grow
// with the log.
//
// ok is false, with nothing written, when there is no checkpoint to fold
// into or its header does not check, the shard is latched or quarantined,
// the log holds anything but intact set frames, or the fold region would
// grow larger than the snapshot; the caller then writes a full Checkpoint.
// A failed fold leaves the log untouched. Frames it wrote past the
// committed folds are cut off again; if that fails they stay harmless, as
// nothing reads past the committed length, the next fold writes over them,
// and the next Open truncates them.
func (w *WAL) Fold(shard int) (bool, error) {
	sh, err := w.shard(shard)
	if err != nil {
		return false, err
	}
	defer sh.mu.Unlock()
	if sh.quar != nil || sh.failed != nil {
		return false, nil
	}
	f, err := os.OpenFile(w.ckptPath(shard), os.O_RDWR, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("wal: fold shard %d: %w", shard, err)
	}
	defer f.Close()
	h, _, err := readHeader(f)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return false, nil // a rewrite replaces the damaged header
		}
		return false, fmt.Errorf("wal: fold shard %d: %w", shard, err)
	}
	sc := getFoldScratch()
	defer putFoldScratch(sc)
	if err := sc.readLog(w.logPath(shard), sh.size); err != nil {
		return false, fmt.Errorf("wal: fold shard %d: %w", shard, err)
	}
	if len(sc.log) == 0 {
		return true, nil
	}
	frames, ok := sc.lastFrames()
	if !ok || h.folded+int64(len(frames)) > h.snap {
		return false, nil
	}
	if w.fault != nil {
		if err := w.fault.Checkpoint(shard, frames); err != nil {
			return false, fmt.Errorf("wal: fold shard %d: %w", shard, err)
		}
	}
	end := h.end()
	_, err = f.WriteAt(frames, end)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		_ = f.Truncate(end)
		return false, fmt.Errorf("wal: fold shard %d: %w", shard, err)
	}
	// The frames are durable; the header write commits them.
	h.folded += int64(len(frames))
	_, err = f.WriteAt(h.encode(), 0)
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return false, fmt.Errorf("wal: fold shard %d: %w", shard, err)
	}
	return true, w.truncateLogLocked(sh, shard)
}

// foldScratch is the memory a fold reads the log into and builds its
// frames in.
type foldScratch struct {
	log, frames []byte
	all         []logFrame
}

// logFrame is one frame of a fold's log: its key, which aliases the log,
// and its byte range.
type logFrame struct {
	key      []byte
	off, end int
}

// foldKeep bounds the scratch idleFold keeps, in bytes: a fold of a longer
// log leaves what it grew to the collector.
const foldKeep = 256 << 10

// idleFold is the fold scratch while no fold is using it, shared by every
// WAL in the process as idleScrubWindow is: a fold takes it (or makes one
// when another fold has it) and puts it back, so a warm fold allocates the
// same whatever the log's size.
var idleFold atomic.Pointer[foldScratch]

func getFoldScratch() *foldScratch {
	if sc := idleFold.Swap(nil); sc != nil {
		return sc
	}
	return new(foldScratch)
}

// putFoldScratch makes sc the idle scratch, unless it outgrew foldKeep.
func putFoldScratch(sc *foldScratch) {
	if cap(sc.log)+cap(sc.frames)+cap(sc.all)*int(unsafe.Sizeof(logFrame{})) <= foldKeep {
		idleFold.Store(sc)
	}
}

// readLog reads the log at path whole into sc.log; a missing log reads as
// empty. size is the log's length as the WAL last knew it (0 before the
// stripe's first append since Open): the buffer is sized from it up front,
// and grown as the read needs when it is short.
func (sc *foldScratch) readLog(path string, size int64) error {
	sc.log = slices.Grow(sc.log[:0], int(size)+512)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	defer f.Close()
	for {
		if len(sc.log) == cap(sc.log) {
			sc.log = slices.Grow(sc.log, 512)
		}
		n, err := f.Read(sc.log[len(sc.log):cap(sc.log)])
		sc.log = sc.log[:len(sc.log)+n]
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// lastFrames returns the last frame of each key in sc.log, in key order,
// built in sc.frames. ok is false unless the log is entirely intact set
// frames: a fold must never skip past damage or a torn tail.
func (sc *foldScratch) lastFrames() (frames []byte, ok bool) {
	log, all := sc.log, sc.all[:0]
	valid, err := scanFrames(log, 0, func(off int, payload []byte) error {
		key, ok := frameKey(payload)
		if !ok {
			return ErrCorrupt
		}
		if n := len(all); n > 0 {
			all[n-1].end = off
		}
		all = append(all, logFrame{key: key, off: off, end: len(log)})
		return nil
	})
	sc.all = all
	if err != nil || valid != len(log) {
		return nil, false
	}
	// Sorted stably, each key's frames stay in log order: the last of a run
	// of equal keys is that key's latest state.
	slices.SortStableFunc(all, func(a, b logFrame) int { return bytes.Compare(a.key, b.key) })
	frames = slices.Grow(sc.frames[:0], len(log))
	for i, f := range all {
		if i+1 == len(all) || !bytes.Equal(f.key, all[i+1].key) {
			frames = append(frames, log[f.off:f.end]...)
		}
	}
	sc.frames = frames
	return frames, true
}

// ReadValueAt is the paging read: a point pread of value bytes a
// checkpoint layout addressed. Stale generations — the checkpoint was
// replaced since — return ErrStaleLoc, never other data's bytes.
func (w *WAL) ReadValueAt(shard int, loc ValueLoc) ([]byte, error) {
	sh, err := w.shard(shard)
	if err != nil {
		return nil, err
	}
	defer sh.mu.Unlock()
	if loc.Gen != sh.ckptGen {
		return nil, ErrStaleLoc
	}
	if sh.cf == nil {
		sh.cf, err = os.Open(w.ckptPath(shard))
		if err != nil {
			return nil, fmt.Errorf("wal: read shard %d: %w", shard, err)
		}
	}
	f := sh.cf
	buf := make([]byte, loc.Len)
	if _, err := f.ReadAt(buf, loc.Off); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, ErrStaleLoc
		}
		return nil, fmt.Errorf("wal: read shard %d: %w", shard, err)
	}
	return buf, nil
}

// CheckpointRegion reports the shard's current checkpoint generation and
// snapshot offset: what CheckpointLocate last returned, or the values for
// the checkpoint ReplayShard just streamed.
func (w *WAL) CheckpointRegion(shard int) (uint32, int64) {
	sh, err := w.shard(shard)
	if err != nil {
		return 0, 0
	}
	defer sh.mu.Unlock()
	return sh.ckptGen, int64(ckptHeaderLen)
}

// CheckpointPayload is a bulk re-read of the whole checkpoint snapshot for
// cold-stripe rewrites. The fold region is not part of it.
func (w *WAL) CheckpointPayload(shard int, gen uint32) ([]byte, error) {
	sh, err := w.shard(shard)
	if err != nil {
		return nil, err
	}
	defer sh.mu.Unlock()
	if gen != sh.ckptGen {
		return nil, ErrStaleLoc
	}
	data, err := os.ReadFile(w.ckptPath(shard))
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	snap, _, cerr := splitCheckpoint(data)
	if cerr != nil {
		return nil, corrupt(sh, shard, w.ckptPath(shard), 0, cerr)
	}
	return snap, nil
}

// VerifyShard is the scrub path: it re-reads the shard's snapshot against
// its checksum and every fold and log frame against its CRC, checking each
// frame's kind but decoding no entry, without mutating anything. Damage
// quarantines the shard — a live stripe demotes the moment a bad sector is
// found, not at the next restart — and returns the *CorruptError. A torn
// tail is not damage (Open repairs those silently); neither is a missing
// file. Both files stream through one fixed scrubWindow borrowed for the
// pass, so a pass allocates the same few bytes whatever the files' size;
// each check sees only the bytes read for it, and a damage report holds
// offsets, never a slice of the window.
func (w *WAL) VerifyShard(shard int) error {
	sh, err := w.shard(shard)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	if sh.quar != nil {
		return sh.quar
	}
	win := getScrubWindow()
	defer putScrubWindow(win)
	if err := verifyCheckpoint(sh, shard, w.ckptPath(shard), win); err != nil {
		return err
	}
	f, err := os.Open(w.logPath(shard))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	valid, err := checkFramesAt(f, 0, fi.Size(), win, false)
	if errors.Is(err, ErrCorrupt) {
		return corrupt(sh, shard, w.logPath(shard), valid, err)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// verifyCheckpoint is VerifyShard's pass over the checkpoint at path: its
// header, its snapshot's checksum and its committed fold frames. A missing
// file is no damage. sh.mu held.
func verifyCheckpoint(sh *walShard, shard int, path string, win *[]byte) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	h, _, err := readHeader(f)
	if errors.Is(err, ErrCorrupt) {
		return corrupt(sh, shard, path, 0, err)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	sum, err := crcAt(f, int64(ckptHeaderLen), h.snap, win)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if sum != h.sum {
		return corrupt(sh, shard, path, 0, fmt.Errorf("%w: checkpoint checksum mismatch", ErrCorrupt))
	}
	valid, err := checkFramesAt(f, h.folds(), h.folded, win, true)
	if errors.Is(err, ErrCorrupt) {
		return corrupt(sh, shard, path, h.folds()+valid, err)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// scrubWindow is the size of the window VerifyShard reads files through.
// A frame longer than the window grows it for that pass only.
const scrubWindow = 32 << 10

// idleScrubWindow is the scrub's window while no pass is using it. A pass
// takes it (or makes one when another pass has it) and puts it back, so no
// WAL keeps a buffer of its own and no pass allocates one once warm. It is
// not a sync.Pool, whose drops under the race detector would make the
// scrub's allocation gate flaky.
var idleScrubWindow atomic.Pointer[[]byte]

func getScrubWindow() *[]byte {
	if win := idleScrubWindow.Swap(nil); win != nil {
		return win
	}
	win := make([]byte, 0, scrubWindow)
	return &win
}

// putScrubWindow makes win the idle window, unless a long frame grew it.
func putScrubWindow(win *[]byte) {
	if cap(*win) == scrubWindow {
		idleScrubWindow.Store(win)
	}
}

// readFull reads len(p) bytes of f at off; fewer, at the end of the file,
// is not an error.
func readFull(f io.ReaderAt, p []byte, off int64) (int, error) {
	n, err := f.ReadAt(p, off)
	if errors.Is(err, io.EOF) {
		err = nil
	}
	return n, err
}

// crcAt returns the CRC32-Castagnoli of the n bytes of f from off, read
// through *win. A file that ends first yields the checksum of what there
// is, which cannot match a checksum taken over n bytes.
func crcAt(f io.ReaderAt, off, n int64, win *[]byte) (uint32, error) {
	buf := (*win)[:cap(*win)]
	var sum uint32
	for n > 0 {
		m, err := readFull(f, buf[:min(n, int64(len(buf)))], off)
		if err != nil {
			return 0, err
		}
		if m == 0 {
			break
		}
		sum = crc32.Update(sum, crcTable, buf[:m])
		off, n = off+int64(m), n-int64(m)
	}
	return sum, nil
}

// checkFramesAt is checkFrames over the n bytes of f from off, read through
// the window *win a window at a time: a frame cut off at a window's end is
// carried into the next, and one longer than the window grows it. fold
// marks a committed fold region, where frames that stop short of the end
// are corruption (foldErr). It returns where the intact frames end,
// relative to off; a file that ends first ends the region there.
func checkFramesAt(f io.ReaderAt, off, n int64, win *[]byte, fold bool) (int64, error) {
	buf, base := (*win)[:0], int64(0) // buf holds the region's bytes from base
	defer func() { *win = buf[:0] }()
	for {
		want := min(int64(cap(buf)-len(buf)), n-base-int64(len(buf)))
		m, err := readFull(f, buf[len(buf):len(buf)+int(want)], off+base+int64(len(buf)))
		if err != nil {
			return base, err
		}
		buf = buf[:len(buf)+m]
		if int64(m) < want {
			n = base + int64(len(buf)) // the file ended early
		}
		valid, err := checkFrames(buf, int(base))
		if base+int64(len(buf)) == n {
			if fold {
				err = foldErr(int(base)+valid, int(n), err)
			}
			return base + int64(valid), err
		}
		if err != nil {
			return base + int64(valid), err
		}
		if valid == 0 && len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf)) // a frame longer than the window
			continue
		}
		base += int64(valid)
		buf = buf[:copy(buf, buf[valid:])]
	}
}

// Quarantined returns the damage report of every quarantined shard, keyed
// by shard index. Shards quarantine at Open (mid-log corruption), replay
// (checkpoint damage) or scrub (VerifyShard on a live stripe).
func (w *WAL) Quarantined() map[int]*CorruptError {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[int]*CorruptError)
	for i, sh := range w.shards {
		sh.mu.Lock()
		if sh.quar != nil {
			out[i] = sh.quar
		}
		sh.mu.Unlock()
	}
	return out
}

// FrameOffsets scans path — a stripe log, or a checkpoint file's committed
// fold region — and returns the file offset of every intact frame, oldest
// first: the targeting map for fault injectors that flip bits in a chosen
// frame. Damage and torn tails are not errors here; only the intact
// prefix's frames return.
func FrameOffsets(path string) ([]int64, error) {
	var region []byte
	var base int64
	var err error
	if filepath.Ext(path) == ".ckpt" {
		region, base, _, err = readFolds(path)
	} else {
		region, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	var offs []int64
	_, _ = scanFrames(region, 0, func(off int, _ []byte) error {
		offs = append(offs, base+int64(off))
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
		sh.dropReadHandle()
		sh.mu.Unlock()
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
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// openAppend opens path for appending, creating it if it is missing. In
// group-commit mode a file it creates is made durable by name: fsyncing a
// new file does not persist the directory entry that names it, so a power
// cut could drop the whole file, acked frames included, unless the
// directory is fsynced too. That costs one directory fsync per file ever
// created and none per append.
func (w *WAL) openAppend(path string) (*os.File, error) {
	flag := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if w.group == nil {
		return os.OpenFile(path, flag, 0o644)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if !errors.Is(err, fs.ErrNotExist) {
		return f, err
	}
	if f, err = os.OpenFile(path, flag|os.O_EXCL, 0o644); err != nil {
		return nil, err
	}
	if err := syncDir(w.dir); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs the directory dir, making its entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
