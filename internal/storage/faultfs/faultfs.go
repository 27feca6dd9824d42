// Package faultfs is the disk-side counterpart of internal/chaosnet: a
// seeded, deterministic fault injector for the WAL's physical operations.
// Where chaosnet decides per network segment whether to drop, duplicate or
// delay, faultfs decides per disk operation whether an append fails, lands
// short (ENOSPC mid-frame), a rollback truncation sticks, an fsync errors,
// or a checkpoint write dies — every decision a pure hash of
// (seed, shard, op, sequence), so a fault schedule replays exactly and a
// failing chaos run reproduces from its seed alone.
//
// The Injector plugs into wal.Options.Fault for online faults. At-rest
// damage — the bit flips and checkpoint corruption a crashed node discovers
// at the next open — is injected offline with FlipLogByte and
// CorruptCheckpoint, which edit the files directly between a kill and a
// revive, again deterministically from the seed.
package faultfs

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"versionstamp/internal/storage/wal"
)

// ErrInjected marks every online fault this package raises, so tests can
// tell injected failures from real ones.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrNoSpace is the injected ENOSPC: raised by short-write faults and by
// the NoSpaceAfterBytes budget. Wraps ErrInjected.
var ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)

// Faults is an online fault schedule. Probabilities are per operation,
// decided independently per (shard, op, sequence); zero values inject
// nothing, so the zero Faults is a healthy disk.
type Faults struct {
	// AppendErrProb fails an append cleanly: no bytes land, the WAL's log
	// is untouched. The store sees the error and records a PersistErr.
	AppendErrProb float64
	// ShortWriteProb lands a deterministic prefix of the frame and then
	// fails with ErrNoSpace, exercising the rollback truncation.
	ShortWriteProb float64
	// TruncFailProb fails the rollback truncation after a short write, so
	// the shard latches read-only (the unremovable-partial-frame path).
	TruncFailProb float64
	// SyncErrProb fails an fsync after its frame landed: bytes intact,
	// durability in doubt.
	SyncErrProb float64
	// CheckpointErrProb fails a checkpoint before it replaces anything.
	CheckpointErrProb float64
	// NoSpaceAfterBytes, when positive, is a disk budget: once the injector
	// has allowed that many appended bytes (across all shards), every
	// further append fails with ErrNoSpace until the budget is raised. This
	// models a full volume rather than a flaky sector.
	NoSpaceAfterBytes int64
	// CommitAppendErrProb fails a group-commit log write cleanly: no commit
	// frames land, every waiter in the window sees the error.
	CommitAppendErrProb float64
	// CommitShortProb lands a deterministic prefix of the commit-frame
	// batch and then fails with ErrNoSpace, exercising the commit-log
	// rollback truncation.
	CommitShortProb float64
	// CommitSyncErrProb fails the window's single fsync after its frames
	// landed: every waiter in the window is refused durability.
	CommitSyncErrProb float64
}

// Stats counts what the injector actually did — the fault ledger a
// deterministic run reproduces byte-identically.
type Stats struct {
	Appends       int64 // append decisions consulted
	AppendErrs    int64 // clean append failures injected
	ShortWrites   int64 // partial frames injected
	TruncFails    int64 // rollback truncations failed (shard latches)
	SyncErrs      int64 // fsync failures injected
	CheckpointErr int64 // checkpoint failures injected
	NoSpace       int64 // appends refused by the byte budget

	CommitAppends    int64 // commit-log write decisions consulted
	CommitAppendErrs int64 // clean commit-log write failures injected
	CommitShorts     int64 // partial commit-frame batches injected
	CommitSyncErrs   int64 // commit-window fsync failures injected
}

// Injector implements wal.FaultInjector with seeded decisions. Safe for
// concurrent use; per-(shard,op) sequence numbers make each shard's fault
// stream independent of scheduling on other shards.
type Injector struct {
	seed int64

	mu     sync.Mutex
	faults Faults
	seq    map[opKey]uint64
	bytes  int64 // appended bytes allowed so far, against NoSpaceAfterBytes
	stats  Stats
}

type opKey struct {
	shard int
	op    uint64
}

// Operation salts, rotated into the hash exactly like chaosnet's link salt
// so the same (seed, shard, sequence) draws independent decisions per op.
const (
	opAppend = 0x61707065 // "appe"
	opShort  = 0x73686f72 // "shor"
	opTrunc  = 0x7472756e // "trun"
	opSync   = 0x73796e63 // "sync"
	opCkpt   = 0x636b7074 // "ckpt"
	opCAppnd = 0x63617070 // "capp" — group-commit log write
	opCShort = 0x63736872 // "cshr" — group-commit short write
	opCSync  = 0x6373796e // "csyn" — group-commit window fsync
)

// commitShard is the pseudo-shard the shared commit log draws sequences
// under: the commit log is cross-stripe, so its fault stream is keyed off a
// sentinel rather than any real shard index.
const commitShard = -1

// New creates an injector whose every decision derives from seed.
func New(seed int64, faults Faults) *Injector {
	return &Injector{seed: seed, faults: faults, seq: make(map[opKey]uint64)}
}

// SetFaults replaces the fault schedule (sequence numbers keep counting, so
// a schedule change mid-run stays deterministic).
func (in *Injector) SetFaults(f Faults) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = f
}

// Stats returns a copy of the fault ledger.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// draw advances the (shard,op) sequence and returns its hash.
func (in *Injector) draw(shard int, op uint64) uint64 {
	k := opKey{shard, op}
	s := in.seq[k]
	in.seq[k] = s + 1
	return hash3(in.seed, op, uint64(shard), s)
}

// Append decides one append's fate: full frame, clean failure, budget
// exhaustion, or a short write whose landed length is itself a hash draw.
func (in *Injector) Append(shard int, frame []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Appends++
	if in.faults.NoSpaceAfterBytes > 0 && in.bytes+int64(len(frame)) > in.faults.NoSpaceAfterBytes {
		in.stats.NoSpace++
		return 0, ErrNoSpace
	}
	if chance(in.draw(shard, opAppend), in.faults.AppendErrProb) {
		in.stats.AppendErrs++
		return 0, fmt.Errorf("%w: append shard %d", ErrInjected, shard)
	}
	h := in.draw(shard, opShort)
	if chance(h, in.faults.ShortWriteProb) && len(frame) > 1 {
		in.stats.ShortWrites++
		// Land a deterministic strict prefix: at least 1 byte, never all.
		n := 1 + int(h%uint64(len(frame)-1))
		in.bytes += int64(n)
		return n, ErrNoSpace
	}
	in.bytes += int64(len(frame))
	return len(frame), nil
}

// Truncate decides whether a rollback truncation sticks.
func (in *Injector) Truncate(shard int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if chance(in.draw(shard, opTrunc), in.faults.TruncFailProb) {
		in.stats.TruncFails++
		return fmt.Errorf("%w: truncate shard %d", ErrInjected, shard)
	}
	return nil
}

// Sync decides whether an fsync fails.
func (in *Injector) Sync(shard int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if chance(in.draw(shard, opSync), in.faults.SyncErrProb) {
		in.stats.SyncErrs++
		return fmt.Errorf("%w: fsync shard %d", ErrInjected, shard)
	}
	return nil
}

// Checkpoint decides whether a checkpoint write fails.
func (in *Injector) Checkpoint(shard int, _ []byte) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if chance(in.draw(shard, opCkpt), in.faults.CheckpointErrProb) {
		in.stats.CheckpointErr++
		return fmt.Errorf("%w: checkpoint shard %d", ErrInjected, shard)
	}
	return nil
}

// CommitAppend decides the fate of one group-commit window's batched write
// to the shared commit log: all frames land, a clean failure, or a short
// write whose landed length is itself a hash draw.
func (in *Injector) CommitAppend(buf []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.CommitAppends++
	if chance(in.draw(commitShard, opCAppnd), in.faults.CommitAppendErrProb) {
		in.stats.CommitAppendErrs++
		return 0, fmt.Errorf("%w: commit-log append", ErrInjected)
	}
	h := in.draw(commitShard, opCShort)
	if chance(h, in.faults.CommitShortProb) && len(buf) > 1 {
		in.stats.CommitShorts++
		n := 1 + int(h%uint64(len(buf)-1))
		return n, ErrNoSpace
	}
	return len(buf), nil
}

// CommitSync decides whether a commit window's single fsync fails.
func (in *Injector) CommitSync() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if chance(in.draw(commitShard, opCSync), in.faults.CommitSyncErrProb) {
		in.stats.CommitSyncErrs++
		return fmt.Errorf("%w: commit-log fsync", ErrInjected)
	}
	return nil
}

var _ wal.FaultInjector = (*Injector)(nil)
var _ wal.CommitFaultInjector = (*Injector)(nil)

// FlipLogByte injects at-rest corruption: it flips one payload byte of a
// deterministically chosen non-final frame in the shard's log under dir,
// returning the byte offset flipped. The frame choice hashes from seed, so
// a scenario corrupts the same byte every run. Non-final matters: damage in
// the last frame reads as a torn tail and is silently truncated, not
// quarantined — at least two intact frames must exist, or an error returns.
func FlipLogByte(dir string, shard int, seed int64) (int64, error) {
	path := wal.LogPath(dir, shard)
	offs, err := wal.FrameOffsets(path)
	if err != nil {
		return 0, fmt.Errorf("faultfs: %w", err)
	}
	if len(offs) < 2 {
		return 0, fmt.Errorf("faultfs: shard %d has %d frames; need >= 2 for non-tail corruption", shard, len(offs))
	}
	h := hash3(seed, opAppend, uint64(shard), 0xf11b)
	frame := int(h % uint64(len(offs)-1)) // any frame but the last
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("faultfs: %w", err)
	}
	// Flip a payload byte: skip the frame's length prefix (1+ bytes; +1 is
	// always inside the payload for our small frames, and any in-frame flip
	// breaks the CRC regardless of which field it hits).
	off := offs[frame] + 1
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, fmt.Errorf("faultfs: %w", err)
	}
	return off, nil
}

// CorruptCheckpoint flips one byte of the shard's checkpoint file under
// dir, deterministically from seed, returning the byte offset flipped. Any
// byte will do: the header carries its own checksum, the snapshot is
// checksummed, and every fold frame lies inside the committed length the
// header names, where a damaged frame — the last one included — is
// corruption, never a torn tail.
func CorruptCheckpoint(dir string, shard int, seed int64) (int64, error) {
	path := wal.CheckpointPath(dir, shard)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("faultfs: %w", err)
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("faultfs: shard %d checkpoint is empty", shard)
	}
	off := int64(hash3(seed, opCkpt, uint64(shard), 0xf11b) % uint64(len(data)))
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 0, fmt.Errorf("faultfs: %w", err)
	}
	return off, nil
}

// BusiestShard returns the shard with the largest log file under dir — the
// natural corruption target when a scenario wants "the stripe with the most
// to lose". Ties break toward the lower index; ok is false when no log
// exists.
func BusiestShard(dir string, shards int) (shard int, ok bool) {
	best := int64(-1)
	for i := 0; i < shards; i++ {
		fi, err := os.Stat(wal.LogPath(dir, i))
		if err != nil {
			continue
		}
		if fi.Size() > best {
			best, shard, ok = fi.Size(), i, true
		}
	}
	return shard, ok
}

// hash3 mixes the seed, operation salt, shard and sequence number into a
// uniform 64-bit value (splitmix64 finalizer) — the same construction as
// chaosnet's segment hash, with the operation salt in the link-salt slot.
func hash3(seed int64, op, shard, seq uint64) uint64 {
	x := uint64(seed) ^ rot(op, 23) ^ rot(shard, 44) ^ seq
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rot(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// chance maps a hash to a Bernoulli draw with probability p.
func chance(h uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(h>>11)/float64(1<<53) < p
}
