package wal

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/storage"
)

func rec(key, value string) storage.Record {
	return storage.Record{Entry: encoding.Entry{
		Key: key, Value: []byte(value), Stamp: core.Seed().Update(),
	}}
}

func open(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func replay(t *testing.T, w *WAL, shard int) (ckpt []byte, recs []storage.Record) {
	t.Helper()
	err := w.ReplayShard(shard,
		func(snap []byte) error { ckpt = append([]byte(nil), snap...); return nil },
		func(r storage.Record) error { recs = append(recs, r); return nil })
	if err != nil {
		t.Fatalf("ReplayShard(%d): %v", shard, err)
	}
	return ckpt, recs
}

func TestAppendSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w := open(t, dir)
	if err := w.Append(0, rec("a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, storage.Record{Reset: true}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, rec("b", "2")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, rec("c", "3")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := open(t, dir)
	defer w2.Close()
	_, recs := replay(t, w2, 0)
	if len(recs) != 3 || recs[0].Entry.Key != "a" || !recs[1].Reset || recs[2].Entry.Key != "b" {
		t.Fatalf("shard 0 records = %+v", recs)
	}
	if !recs[2].Entry.Stamp.Equal(core.Seed().Update()) {
		t.Errorf("stamp did not round-trip: %v", recs[2].Entry.Stamp)
	}
	if _, recs := replay(t, w2, 2); len(recs) != 1 || string(recs[0].Entry.Value) != "3" {
		t.Errorf("shard 2 records = %+v", recs)
	}
}

// TestTornTailTruncated cuts the log at every possible byte offset inside
// the final frame and asserts recovery keeps exactly the intact prefix —
// the crash-mid-append contract.
func TestTornTailTruncated(t *testing.T) {
	build := func(t *testing.T, dir string) (path string, cleanLens []int) {
		w := open(t, dir)
		defer w.Close()
		path = w.logPath(0)
		cleanLens = []int{0}
		for i, kv := range []string{"1", "22", "333"} {
			if err := w.Append(0, rec("key", kv)); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			cleanLens = append(cleanLens, int(fi.Size()))
			_ = i
		}
		return path, cleanLens
	}

	dir := t.TempDir()
	path, cleanLens := build(t, dir)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := cleanLens[2] + 1; cut < len(full); cut++ {
		cutDir := t.TempDir()
		cutPath := filepath.Join(cutDir, filepath.Base(path))
		if err := os.WriteFile(cutPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(cutDir, Options{})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		_, recs := replay(t, w, 0)
		if len(recs) != 2 {
			t.Fatalf("cut at %d: recovered %d records, want 2", cut, len(recs))
		}
		if fi, err := os.Stat(cutPath); err != nil || int(fi.Size()) != cleanLens[2] {
			t.Fatalf("cut at %d: log not truncated to last intact frame (size %v, err %v)",
				cut, fi.Size(), err)
		}
		// Appends after recovery must land cleanly after the intact prefix.
		if err := w.Append(0, rec("key", "4444")); err != nil {
			t.Fatal(err)
		}
		_, recs = replay(t, w, 0)
		if len(recs) != 3 || string(recs[2].Entry.Value) != "4444" {
			t.Fatalf("cut at %d: post-recovery append lost: %+v", cut, recs)
		}
		w.Close()
	}
}

// TestMidLogCorruptionReported flips a byte in a non-final frame: that can
// never be a torn tail write, so the shard must be refused rather than
// silently dropping acknowledged records — but the damage is scoped to the
// shard. Open succeeds, healthy shards load, the damaged one quarantines
// with the file and byte offset in its report, and a checkpoint heals it.
func TestMidLogCorruptionReported(t *testing.T) {
	dir := t.TempDir()
	w := open(t, dir)
	path := w.logPath(0)
	for i := 0; i < 3; i++ {
		if err := w.Append(0, rec("key", "value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(1, rec("other", "ok")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the very first frame (offset 1 skips its
	// one-byte length prefix): a checksum mismatch with intact frames after
	// it. A corrupted length prefix is deliberately not tested — a length
	// that swallows the rest of the file is indistinguishable from a torn
	// tail and is treated as one.
	data[1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open on mid-log corruption: %v, want shard-scoped quarantine", err)
	}
	defer w2.Close()

	// The healthy shard loads untouched.
	if _, recs := replay(t, w2, 1); len(recs) != 1 || recs[0].Entry.Key != "other" {
		t.Fatalf("healthy shard 1 records = %+v", recs)
	}
	// The damaged shard reports a *storage.CorruptError naming file+offset,
	// after streaming nothing (the damage is in frame 0).
	var ce *storage.CorruptError
	err = w2.ReplayShard(0, nil, func(storage.Record) error { return nil })
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReplayShard(0) = %v, want *storage.CorruptError wrapping ErrCorrupt", err)
	}
	if ce.Shard != 0 || ce.Path != path || ce.Offset != 0 {
		t.Fatalf("damage report = shard %d path %q offset %d, want shard 0 %q offset 0",
			ce.Shard, ce.Path, ce.Offset, path)
	}
	// Appends to the quarantined shard are refused; the healthy one accepts.
	if err := w2.Append(0, rec("key", "nope")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Append to quarantined shard = %v, want ErrCorrupt", err)
	}
	if err := w2.Append(1, rec("other", "more")); err != nil {
		t.Fatal(err)
	}
	if q := w2.Quarantined(); len(q) != 1 || q[0] == nil {
		t.Fatalf("Quarantined() = %v, want shard 0 only", q)
	}
	// Checkpoint is the repair path: quarantine clears, appends resume.
	if err := w2.Checkpoint(0, []byte("repaired")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(0, rec("key", "back")); err != nil {
		t.Fatalf("post-repair append: %v", err)
	}
	ckpt, recs := replay(t, w2, 0)
	if string(ckpt) != "repaired" || len(recs) != 1 {
		t.Fatalf("post-repair replay = %q %+v", ckpt, recs)
	}
	if q := w2.Quarantined(); len(q) != 0 {
		t.Fatalf("quarantine not cleared: %v", q)
	}
}

// TestMidLogCorruptionStreamsPrefix damages frame 2 of 4 and asserts replay
// still yields frames 0 and 1 before the damage report — the readable
// prefix survives quarantine.
func TestMidLogCorruptionStreamsPrefix(t *testing.T) {
	dir := t.TempDir()
	w := open(t, dir)
	for _, v := range []string{"v0", "v1", "v2", "v3"} {
		if err := w.Append(0, rec("key", v)); err != nil {
			t.Fatal(err)
		}
	}
	path := w.logPath(0)
	w.Close()

	offs, err := FrameOffsets(path)
	if err != nil || len(offs) != 4 {
		t.Fatalf("FrameOffsets = %v, %v", offs, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[offs[2]+1] ^= 0xFF // payload byte of frame 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w2.Close()
	var recs []storage.Record
	var ce *storage.CorruptError
	err = w2.ReplayShard(0, nil, func(r storage.Record) error { recs = append(recs, r); return nil })
	if !errors.As(err, &ce) {
		t.Fatalf("ReplayShard = %v, want *storage.CorruptError", err)
	}
	if ce.Offset != offs[2] {
		t.Fatalf("damage offset = %d, want %d", ce.Offset, offs[2])
	}
	if len(recs) != 2 || string(recs[0].Entry.Value) != "v0" || string(recs[1].Entry.Value) != "v1" {
		t.Fatalf("intact prefix = %+v, want v0,v1", recs)
	}
}

// TestCheckpointCorruptionDetected damages a checkpoint — a payload byte, one
// bit of the magic, or the whole header missing — and asserts replay
// quarantines the shard instead of loading garbage, and the scrub agrees.
func TestCheckpointCorruptionDetected(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"payload":    func(d []byte) []byte { d[len(d)-1] ^= 0xFF; return d },
		"magic-bit":  func(d []byte) []byte { d[0] ^= 0x01; return d },
		"headerless": func(d []byte) []byte { return d[ckptHeaderLen:] },
	}
	for name, dmg := range damage {
		dmg := dmg
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := open(t, dir)
			if err := w.Checkpoint(0, []byte("snapshot-payload")); err != nil {
				t.Fatal(err)
			}
			path := w.ckptPath(0)
			w.Close()

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, dmg(data), 0o644); err != nil {
				t.Fatal(err)
			}

			w2 := open(t, dir)
			var ce *storage.CorruptError
			err = w2.ReplayShard(0, func([]byte) error {
				t.Fatal("corrupt checkpoint must not reach the callback")
				return nil
			}, nil)
			if !errors.As(err, &ce) || ce.Path != path {
				t.Fatalf("ReplayShard = %v, want *storage.CorruptError for %s", err, path)
			}
			w2.Close()
			// VerifyShard (the scrub) reports the same damage on a live shard.
			w3 := open(t, dir)
			defer w3.Close()
			if err := w3.VerifyShard(0); !errors.As(err, &ce) || ce.Path != path {
				t.Fatalf("VerifyShard = %v, want *storage.CorruptError for %s", err, path)
			}
		})
	}
}

// faultScript is a scripted FaultInjector for regression tests: each queued
// step applies to one Append call, in order; the zero value injects nothing.
type faultScript struct {
	appends []appendFault
	trunc   error
}

type appendFault struct {
	short int // bytes allowed to land (-1 = all)
	err   error
}

func (f *faultScript) Append(shard int, frame []byte) (int, error) {
	if len(f.appends) == 0 {
		return len(frame), nil
	}
	step := f.appends[0]
	f.appends = f.appends[1:]
	if step.short < 0 || step.short > len(frame) {
		return len(frame), step.err
	}
	return step.short, step.err
}

func (f *faultScript) Truncate(int) error           { return f.trunc }
func (f *faultScript) Sync(int) error               { return nil }
func (f *faultScript) Checkpoint(int, []byte) error { return nil }

var errNoSpace = errors.New("injected: no space left on device")

// TestShortWriteRollsBack injects an ENOSPC-style short write and asserts
// the rollback truncation removes the partial frame: the failed append
// vanishes, later appends land cleanly, and reopen sees no damage.
func TestShortWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	fs := &faultScript{appends: []appendFault{
		{short: -1},                 // first append lands
		{short: 3, err: errNoSpace}, // second lands 3 bytes then fails
	}}
	w, err := Open(dir, Options{Fault: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, rec("a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, rec("b", "2")); !errors.Is(err, errNoSpace) {
		t.Fatalf("injected append = %v, want errNoSpace", err)
	}
	// The rollback engaged: the shard is NOT latched, the next append works.
	if err := w.Append(0, rec("c", "3")); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	w.Close()

	w2 := open(t, dir)
	defer w2.Close()
	_, recs := replay(t, w2, 0)
	if len(recs) != 2 || recs[0].Entry.Key != "a" || recs[1].Entry.Key != "c" {
		t.Fatalf("records after rollback = %+v, want a,c", recs)
	}
}

// TestUnremovableShortWriteLatches injects a short write whose rollback
// also fails: the shard must latch read-only (every further append refuses)
// and a later successful checkpoint must heal the latch.
func TestUnremovableShortWriteLatches(t *testing.T) {
	dir := t.TempDir()
	fs := &faultScript{
		appends: []appendFault{{short: -1}, {short: 3, err: errNoSpace}},
		trunc:   errors.New("injected: truncate failed"),
	}
	w, err := Open(dir, Options{Fault: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(0, rec("a", "1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, rec("b", "2")); err == nil {
		t.Fatal("short write with failed rollback must error")
	}
	// Latched: appends refuse even though the injector is now quiet.
	fs.trunc = nil
	if err := w.Append(0, rec("c", "3")); err == nil {
		t.Fatal("latched shard accepted an append")
	}
	// A checkpoint supersedes the log and heals the latch.
	if err := w.Checkpoint(0, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, rec("d", "4")); err != nil {
		t.Fatalf("append after healing checkpoint: %v", err)
	}
	ckpt, recs := replay(t, w, 0)
	if string(ckpt) != "healed" || len(recs) != 1 || recs[0].Entry.Key != "d" {
		t.Fatalf("post-heal state = %q %+v", ckpt, recs)
	}
}

func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	w := open(t, dir)
	defer w.Close()
	_ = w.Append(0, rec("a", "1"))
	if err := w.Checkpoint(0, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	_ = w.Append(0, rec("b", "2"))
	ckpt, recs := replay(t, w, 0)
	if string(ckpt) != "snapshot" {
		t.Errorf("checkpoint = %q", ckpt)
	}
	if len(recs) != 1 || recs[0].Entry.Key != "b" {
		t.Errorf("post-checkpoint records = %+v", recs)
	}
}

func TestCompactRewritesLog(t *testing.T) {
	dir := t.TempDir()
	w := open(t, dir)
	defer w.Close()
	for i := 0; i < 50; i++ {
		_ = w.Append(0, rec("hot", "x"))
	}
	_ = w.Append(0, rec("cold", "y"))
	before, _ := os.Stat(w.logPath(0))
	if err := w.Compact(0); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(w.logPath(0))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compact did not shrink the log: %d -> %d", before.Size(), after.Size())
	}
	_, recs := replay(t, w, 0)
	if len(recs) != 2 {
		t.Fatalf("compacted log replays %d records, want 2", len(recs))
	}
	// The reopened append handle must keep working on the new inode.
	if err := w.Append(0, rec("hot", "z")); err != nil {
		t.Fatal(err)
	}
	if _, recs := replay(t, w, 0); len(recs) != 3 {
		t.Fatalf("post-compact append lost: %+v", recs)
	}
}

// TestRandomCutProperty is the storage-level half of the crash-recovery
// property: whatever byte offset a crash cuts the log at, recovery yields a
// prefix of the appended records and never an error.
func TestRandomCutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		dir := t.TempDir()
		w := open(t, dir)
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			if err := w.Append(0, rec("key", string(make([]byte, rng.Intn(40))))); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		path := filepath.Join(dir, "shard-0000.wal")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cut := rng.Intn(len(data) + 1)
		if err := os.Truncate(path, int64(cut)); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("trial %d cut %d: Open: %v", trial, cut, err)
		}
		_, recs := replay(t, w2, 0)
		if len(recs) > n {
			t.Fatalf("trial %d: more records than appended", trial)
		}
		w2.Close()
	}
}

func TestFsyncOptionAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(0, rec("a", "1")); err != nil {
		t.Fatal(err)
	}
	if _, recs := replay(t, w, 0); len(recs) != 1 {
		t.Fatalf("records = %+v", recs)
	}
}
