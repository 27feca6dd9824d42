package wal

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
)

func rec(key, value string) encoding.Entry {
	return encoding.Entry{Key: key, Value: []byte(value), Stamp: core.Seed().Update()}
}

func open(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func replay(t *testing.T, w *WAL, shard int) (ckpt []byte, recs []encoding.Entry) {
	t.Helper()
	err := w.ReplayShard(shard,
		func(snap []byte) error { ckpt = append([]byte(nil), snap...); return nil },
		func(e encoding.Entry) error { recs = append(recs, e); return nil })
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
	if len(recs) != 2 || recs[0].Key != "a" || recs[1].Key != "b" {
		t.Fatalf("shard 0 records = %+v", recs)
	}
	if !recs[1].Stamp.Equal(core.Seed().Update()) {
		t.Errorf("stamp did not round-trip: %v", recs[1].Stamp)
	}
	if _, recs := replay(t, w2, 2); len(recs) != 1 || string(recs[0].Value) != "3" {
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
		if len(recs) != 3 || string(recs[2].Value) != "4444" {
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
	if _, recs := replay(t, w2, 1); len(recs) != 1 || recs[0].Key != "other" {
		t.Fatalf("healthy shard 1 records = %+v", recs)
	}
	// The damaged shard reports a *CorruptError naming file+offset,
	// after streaming nothing (the damage is in frame 0).
	var ce *CorruptError
	err = w2.ReplayShard(0, nil, func(encoding.Entry) error { return nil })
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReplayShard(0) = %v, want *CorruptError wrapping ErrCorrupt", err)
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

// TestRetiredResetKindIsCorruption appends a frame whose CRC holds but whose
// payload is {0x02}, the retired stripe-reset kind. No writer produces one,
// so it is damage, not a record: Open quarantines the shard, the other shard
// loads, and the scrub reports the same damage.
func TestRetiredResetKindIsCorruption(t *testing.T) {
	dir := t.TempDir()
	w := open(t, dir)
	path := w.logPath(0)
	for _, k := range []string{"a", "b"} {
		if err := w.Append(0, rec(k, "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(1, rec("other", "ok")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rawFrame([]byte{0x02})); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v, want shard-scoped quarantine", err)
	}
	defer w2.Close()
	q := w2.Quarantined()
	if len(q) != 1 || q[0] == nil {
		t.Fatalf("Quarantined() after Open = %v, want shard 0 only", q)
	}
	if _, recs := replay(t, w2, 1); len(recs) != 1 || recs[0].Key != "other" {
		t.Fatalf("healthy shard 1 records = %+v", recs)
	}
	var ce *CorruptError
	err = w2.ReplayShard(0, nil, nil)
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReplayShard(0) = %v, want *CorruptError wrapping ErrCorrupt", err)
	}
	if ce.Shard != 0 || ce.Path != path || ce.Offset != fi.Size() {
		t.Fatalf("damage report = shard %d path %q offset %d, want shard 0 %q offset %d",
			ce.Shard, ce.Path, ce.Offset, path, fi.Size())
	}
	var vce *CorruptError
	if err := w2.VerifyShard(0); !errors.As(err, &vce) || vce.Path != ce.Path || vce.Offset != ce.Offset {
		t.Fatalf("VerifyShard(0) = %v, want the same damage as replay (%v)", err, ce)
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
	var recs []encoding.Entry
	var ce *CorruptError
	err = w2.ReplayShard(0, nil, func(e encoding.Entry) error { recs = append(recs, e); return nil })
	if !errors.As(err, &ce) {
		t.Fatalf("ReplayShard = %v, want *CorruptError", err)
	}
	if ce.Offset != offs[2] {
		t.Fatalf("damage offset = %d, want %d", ce.Offset, offs[2])
	}
	if len(recs) != 2 || string(recs[0].Value) != "v0" || string(recs[1].Value) != "v1" {
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
			var ce *CorruptError
			err = w2.ReplayShard(0, func([]byte) error {
				t.Fatal("corrupt checkpoint must not reach the callback")
				return nil
			}, nil)
			if !errors.As(err, &ce) || ce.Path != path {
				t.Fatalf("ReplayShard = %v, want *CorruptError for %s", err, path)
			}
			w2.Close()
			// VerifyShard (the scrub) reports the same damage on a live shard.
			w3 := open(t, dir)
			defer w3.Close()
			if err := w3.VerifyShard(0); !errors.As(err, &ce) || ce.Path != path {
				t.Fatalf("VerifyShard = %v, want *CorruptError for %s", err, path)
			}
		})
	}
}

// faultScript is a scripted FaultInjector for regression tests: each queued
// step applies to one Append call, in order; the zero value injects nothing.
type faultScript struct {
	appends []appendFault
	trunc   error
	ckpt    error    // returned by every Checkpoint call
	shown   [][]byte // the bytes each Checkpoint call was shown
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

func (f *faultScript) Truncate(int) error { return f.trunc }
func (f *faultScript) Sync(int) error     { return nil }

func (f *faultScript) Checkpoint(_ int, data []byte) error {
	f.shown = append(f.shown, append([]byte(nil), data...))
	return f.ckpt
}

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
	if len(recs) != 2 || recs[0].Key != "a" || recs[1].Key != "c" {
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
	if string(ckpt) != "healed" || len(recs) != 1 || recs[0].Key != "d" {
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
	if len(recs) != 1 || recs[0].Key != "b" {
		t.Errorf("post-checkpoint records = %+v", recs)
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

func fileBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	return data
}

// TestFold walks the fold contract: nothing to fold into without a
// snapshot, an empty log writes nothing, only each key's last frame lands
// (raw, in key order, exactly the bytes the fault hook was shown), a failed
// fold changes nothing on disk, a fold that would outgrow the snapshot is
// refused, and a Checkpoint drops the folds.
func TestFold(t *testing.T) {
	dir := t.TempDir()
	script := &faultScript{}
	w, err := Open(dir, Options{Fault: script})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ckptPath, logPath := w.ckptPath(0), w.logPath(0)
	if err := w.Append(0, rec("a", "0")); err != nil {
		t.Fatal(err)
	}
	if ok, err := w.Fold(0); ok || err != nil {
		t.Fatalf("Fold without a snapshot = %v, %v; want false, nil", ok, err)
	}
	snapshot := bytes.Repeat([]byte("s"), 300)
	if err := w.Checkpoint(0, snapshot); err != nil {
		t.Fatal(err)
	}
	base := fileBytes(t, ckptPath)
	script.shown = nil
	if ok, err := w.Fold(0); !ok || err != nil {
		t.Fatalf("Fold of an empty log = %v, %v; want true, nil", ok, err)
	}
	if got := fileBytes(t, ckptPath); !bytes.Equal(got, base) || len(script.shown) != 0 {
		t.Fatalf("empty fold wrote %d bytes, showed the hook %d calls", len(got)-len(base), len(script.shown))
	}

	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"a", "3"}, {"c", "4"}, {"b", "5"}} {
		if err := w.Append(0, rec(kv[0], kv[1])); err != nil {
			t.Fatal(err)
		}
	}
	want := unhex(t, frameA3+frameB5+frameC4)
	if ok, err := w.Fold(0); !ok || err != nil {
		t.Fatalf("Fold = %v, %v", ok, err)
	}
	if len(script.shown) != 1 || !bytes.Equal(script.shown[0], want) {
		t.Fatalf("fault hook shown %q, want the three last frames", script.shown)
	}
	got := fileBytes(t, ckptPath)
	h, err := parseHeader(got, int64(len(got)))
	if err != nil || h.folded != int64(len(want)) ||
		!bytes.Equal(got[ckptHeaderLen:], append(append([]byte(nil), base[ckptHeaderLen:]...), want...)) {
		t.Fatalf("checkpoint after fold is %d bytes (header %+v, %v), want snapshot + %d committed fold bytes",
			len(got), h, err, len(want))
	}
	if n := len(fileBytes(t, logPath)); n != 0 {
		t.Fatalf("log holds %d bytes after the fold", n)
	}
	ckpt, recs := replay(t, w, 0)
	if !bytes.Equal(ckpt, snapshot) || len(recs) != 3 ||
		string(recs[0].Value) != "3" || string(recs[1].Value) != "5" || string(recs[2].Value) != "4" {
		t.Fatalf("replay after fold = %d-byte snapshot, %+v", len(ckpt), recs)
	}

	// A failed fold leaves both files as they were.
	if err := w.Append(0, rec("d", "6")); err != nil {
		t.Fatal(err)
	}
	folded, pending := fileBytes(t, ckptPath), fileBytes(t, logPath)
	script.ckpt = errors.New("injected: fold refused")
	if ok, err := w.Fold(0); ok || !errors.Is(err, script.ckpt) {
		t.Fatalf("injected fold failure = %v, %v", ok, err)
	}
	script.ckpt = nil
	if !bytes.Equal(fileBytes(t, ckptPath), folded) || !bytes.Equal(fileBytes(t, logPath), pending) {
		t.Fatal("failed fold changed the checkpoint or the log")
	}

	// Folds may not grow larger than the snapshot they follow.
	for i := 0; i < 12; i++ {
		if err := w.Append(0, rec(fmt.Sprintf("k%02d", i), "0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	pending = fileBytes(t, logPath)
	if ok, err := w.Fold(0); ok || err != nil {
		t.Fatalf("oversized fold = %v, %v; want false, nil", ok, err)
	}
	if !bytes.Equal(fileBytes(t, ckptPath), folded) || !bytes.Equal(fileBytes(t, logPath), pending) {
		t.Fatal("refused fold changed the checkpoint or the log")
	}

	if err := w.Checkpoint(0, snapshot); err != nil {
		t.Fatal(err)
	}
	if ckpt, recs := replay(t, w, 0); !bytes.Equal(ckpt, snapshot) || len(recs) != 0 {
		t.Fatalf("replay after Checkpoint = %d-byte snapshot, %d entries; want the snapshot alone", len(ckpt), len(recs))
	}
}

// foldedShard checkpoints shard 0 and folds three frames (keys a, b, c)
// into it, returning the checkpoint's path and its fold frame offsets.
func foldedShard(t *testing.T, w *WAL) (string, []int64) {
	t.Helper()
	if err := w.Checkpoint(0, bytes.Repeat([]byte("s"), 200)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := w.Append(0, rec(k, k+k)); err != nil {
			t.Fatal(err)
		}
	}
	if ok, err := w.Fold(0); !ok || err != nil {
		t.Fatalf("Fold = %v, %v", ok, err)
	}
	offs, err := FrameOffsets(w.ckptPath(0))
	if err != nil || len(offs) != 3 {
		t.Fatalf("fold FrameOffsets = %v, %v", offs, err)
	}
	return w.ckptPath(0), offs
}

// replayKeys replays shard 0 and returns the keys it streamed, in order.
func replayKeys(t *testing.T, w *WAL) string {
	t.Helper()
	_, recs := replay(t, w, 0)
	var keys string
	for _, r := range recs {
		keys += r.Key
	}
	return keys
}

// TestTornFoldTailTruncated crashes a second fold after every byte of its
// frames, up to all of them written but the header not yet rewritten, with
// the log as it was before the fold. Open truncates the uncommitted bytes
// without quarantine, the committed folds and the log replay, and the next
// fold lands cleanly after them.
func TestTornFoldTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := open(t, dir)
	path, _ := foldedShard(t, w)
	logPath := w.logPath(0)
	for _, k := range []string{"d", "e"} {
		if err := w.Append(0, rec(k, k+k)); err != nil {
			t.Fatal(err)
		}
	}
	pre, preLog := fileBytes(t, path), fileBytes(t, logPath)
	if ok, err := w.Fold(0); !ok || err != nil {
		t.Fatalf("Fold = %v, %v", ok, err)
	}
	full := fileBytes(t, path)
	w.Close()
	for cut := len(pre); cut <= len(full); cut++ {
		// The old header and folds, then what the crash let land of the new
		// fold's frames.
		crashed := append(append([]byte(nil), pre...), full[len(pre):cut]...)
		if err := os.WriteFile(path, crashed, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(logPath, preLog, 0o644); err != nil {
			t.Fatal(err)
		}
		w := open(t, dir)
		if q := w.Quarantined(); len(q) != 0 {
			t.Fatalf("cut at %d: interrupted fold quarantined the shard: %v", cut, q)
		}
		if n := len(fileBytes(t, path)); n != len(pre) {
			t.Fatalf("cut at %d: checkpoint is %d bytes, want the committed %d", cut, n, len(pre))
		}
		if keys := replayKeys(t, w); keys != "abcde" {
			t.Fatalf("cut at %d: replayed %q, want folds abc then log de", cut, keys)
		}
		if err := w.Append(0, rec("f", "ff")); err != nil {
			t.Fatal(err)
		}
		if ok, err := w.Fold(0); !ok || err != nil {
			t.Fatalf("cut at %d: Fold after recovery = %v, %v", cut, ok, err)
		}
		if keys := replayKeys(t, w); keys != "abcdef" {
			t.Fatalf("cut at %d: fold after recovery replays %q", cut, keys)
		}
		w.Close()
	}
}

// TestFoldCorruptionQuarantines flips, one at a time, every header byte and
// every byte of every committed fold frame — the last frame and the length
// prefixes included. None reads as a torn tail. The scrub catches each flip
// on the live shard, at offset 0 for the header or at the damaged frame's
// offset; the next Open quarantines the shard at the same offset; replay
// streams only the folds before the damage and never the log after it; and
// a quarantined shard does not fold.
func TestFoldCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	w := open(t, dir)
	path, offs := foldedShard(t, w)
	if err := w.Append(0, rec("d", "dd")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	clean := fileBytes(t, path)
	for pos := 0; pos < len(clean); pos++ {
		if pos == ckptHeaderLen {
			pos = int(offs[0]) // snapshot flips are TestCheckpointCorruptionDetected's
		}
		want, keys := int64(0), ""
		for i, off := range offs {
			if int64(pos) >= off {
				want, keys = off, "abc"[:i]
			}
		}
		if err := os.WriteFile(path, clean, 0o644); err != nil {
			t.Fatal(err)
		}
		w := open(t, dir)
		data := append([]byte(nil), clean...)
		data[pos] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var live *CorruptError
		if err := w.VerifyShard(0); !errors.As(err, &live) || live.Path != path || live.Offset != want {
			t.Fatalf("byte %d: VerifyShard = %v, want damage at %s+%d", pos, err, path, want)
		}
		w.Close()

		w2 := open(t, dir)
		ce := w2.Quarantined()[0]
		if ce == nil || ce.Path != live.Path || ce.Offset != live.Offset {
			t.Fatalf("byte %d: Open quarantined %v, want the scrub's %v", pos, ce, live)
		}
		if err := w2.VerifyShard(0); !errors.As(err, &ce) || ce.Offset != live.Offset {
			t.Fatalf("byte %d: VerifyShard after Open = %v", pos, err)
		}
		got := ""
		err := w2.ReplayShard(0, nil, func(e encoding.Entry) error { got += e.Key; return nil })
		if !errors.As(err, &ce) || got != keys {
			t.Fatalf("byte %d: ReplayShard = %q then %v; want folds %q, then the damage", pos, got, err, keys)
		}
		if ok, err := w2.Fold(0); ok || err != nil {
			t.Fatalf("byte %d: Fold on a quarantined shard = %v, %v; want false, nil", pos, ok, err)
		}
		w2.Close()
	}
}

// TestVerifyShardAllocsFlat: the scrub checks CRCs and record kinds without
// decoding entries, so a 10 000-frame log costs it no more allocations than
// a 100-frame one.
func TestVerifyShardAllocsFlat(t *testing.T) {
	allocs := func(frames int) float64 {
		w := open(t, t.TempDir())
		defer w.Close()
		for i := 0; i < frames; i++ {
			if err := w.Append(0, rec(fmt.Sprintf("key-%d", i%100), "value")); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if err := w.VerifyShard(0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10_000)
	if large > small+4 {
		t.Fatalf("VerifyShard allocates %.0f times on 10 000 frames, %.0f on 100", large, small)
	}
}

// foldAllocsSlack and foldBytesSlack are how far a warm fold of a 2 000-frame
// log may allocate past one of a 100-frame log, and foldAllocs bounds a warm
// fold of the 100-frame log. Measured: 8 allocations and 520 B at both
// sizes; under -race 8-9 and 540-640 B at either size, with no trend, hence
// 9.
// Opening the log afresh on every fold, instead of reading it through the
// shard's own handle, cost 14 allocations and 784 B; reading the log whole
// and indexing and copying its frames in fresh memory cost 25 allocations
// and 18 kB at 100 frames, 30 and 361 kB at 2 000.
const (
	foldAllocsSlack, foldBytesSlack = 2, 512
	foldAllocs                      = 9
)

// TestFoldAllocsFlat: a warm fold reads the log through the shard's own
// handle and builds its frames in the idle fold scratch, so folding a
// 2 000-frame log allocates what folding a 100-frame one does, in count and
// in bytes, within the race detector's noise, and never more than
// foldAllocs.
func TestFoldAllocsFlat(t *testing.T) {
	es := make([]encoding.Entry, 100)
	for i := range es {
		es[i] = rec(fmt.Sprintf("key-%d", i), "value")
	}
	perFold := func(frames int) (float64, uint64) {
		w := open(t, t.TempDir())
		defer w.Close()
		if err := w.Checkpoint(0, bytes.Repeat([]byte("s"), 1<<20)); err != nil {
			t.Fatal(err)
		}
		fold := func() {
			for i := 0; i < frames; i++ {
				if err := w.Append(0, es[i%len(es)]); err != nil {
					t.Fatal(err)
				}
			}
			if ok, err := w.Fold(0); !ok || err != nil {
				t.Fatalf("Fold = %v, %v", ok, err)
			}
		}
		fold()
		const runs = 10
		allocs := testing.AllocsPerRun(runs, fold)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fold()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := perFold(100)
	largeAllocs, largeBytes := perFold(2000)
	t.Logf("warm fold: %.0f allocs, %d B at 100 frames; %.0f allocs, %d B at 2 000",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	if smallAllocs > foldAllocs {
		t.Errorf("a warm fold allocates %.0f times; budget is %d", smallAllocs, foldAllocs)
	}
	if largeAllocs > smallAllocs+foldAllocsSlack || largeBytes > smallBytes+foldBytesSlack {
		t.Errorf("a fold allocates %.0f times, %d B on 2 000 frames; %.0f, %d B on 100",
			largeAllocs, largeBytes, smallAllocs, smallBytes)
	}
}

// verifyShardPassBytes bounds the bytes a warm VerifyShard pass allocates:
// the two files' handles, their stats and the checkpoint header, whatever
// the files' size. Measured: 960 B (1 080 under -race) on a 100-frame and
// on a 10 000-frame shard alike; reading each file whole cost 5 408 B and
// 418 807 B.
const verifyShardPassBytes = 1200

// TestVerifyShardAllocs: a warm scrub pass streams the checkpoint and the
// log through the idle window, so its allocated bytes are a constant, not
// the files' size.
func TestVerifyShardAllocs(t *testing.T) {
	perPass := func(frames int) (float64, int64) {
		dir := t.TempDir()
		w := open(t, dir)
		defer w.Close()
		if err := w.Checkpoint(0, bytes.Repeat([]byte("s"), 16*frames)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < frames; i++ {
			if err := w.Append(0, rec(fmt.Sprintf("key-%d", i%100), "value")); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.VerifyShard(0); err != nil {
			t.Fatal(err)
		}
		const passes = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			if err := w.VerifyShard(0); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		size := int64(len(fileBytes(t, CheckpointPath(dir, 0))) + len(fileBytes(t, LogPath(dir, 0))))
		return float64(after.TotalAlloc-before.TotalAlloc) / passes, size
	}
	for _, frames := range []int{100, 10_000} {
		got, size := perPass(frames)
		t.Logf("%d frames (%d B on disk): %.0f B per scrub pass", frames, size, got)
		if got > verifyShardPassBytes {
			t.Errorf("%d frames: a scrub pass allocates %.0f B of %d on disk; budget is %d B",
				frames, got, size, verifyShardPassBytes)
		}
	}
}

// TestCheckFramesAtMatchesWholeScan: checking a region a window at a time
// must report exactly what checking it whole does — where the intact
// frames end and the same error — for a clean region, a byte flipped near
// every window boundary and at random, a cut (torn) tail near every
// boundary, a frame longer than the window, a region that starts inside
// the file, and a fold region, which has no torn tail.
func TestCheckFramesAtMatchesWholeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var log []byte
	for i := 0; i < 1500; i++ {
		value := strings.Repeat("v", rng.Intn(200))
		if i == 700 {
			value = strings.Repeat("V", 3*scrubWindow/2)
		}
		log = appendFrame(log, rec(fmt.Sprintf("key-%d", i), value))
	}
	var cuts []int
	for b := scrubWindow; b < len(log); b += scrubWindow {
		for d := -12; d <= 12; d++ {
			cuts = append(cuts, b+d)
		}
	}
	for i := 0; i < 100; i++ {
		cuts = append(cuts, rng.Intn(len(log)))
	}
	const prefix = 100 // the region's offset in the file
	check := func(what string, region []byte) {
		t.Helper()
		file := append(bytes.Repeat([]byte{0xAA}, prefix), region...)
		for _, fold := range []bool{false, true} {
			want, wantErr := checkFrames(region, 0)
			if fold {
				wantErr = foldErr(want, len(region), wantErr)
			}
			win := getScrubWindow()
			got, gotErr := checkFramesAt(bytes.NewReader(file), prefix, int64(len(region)), win, fold)
			putScrubWindow(win)
			if got != int64(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s, fold %v: windowed check = %d, %v; whole = %d, %v", what, fold, got, gotErr, want, wantErr)
			}
		}
	}
	check("clean", log)
	for _, pos := range cuts {
		flipped := slices.Clone(log)
		flipped[pos] ^= 0x5A
		check(fmt.Sprintf("byte %d flipped", pos), flipped)
		check(fmt.Sprintf("cut at %d", pos), log[:pos])
	}
}

// TestScrubWindowReuse: the scrub reads every stripe through one reused
// window, so a pass over a small stripe right after a large one must see
// only the small stripe's bytes. A flipped byte is reported at its frame's
// exact offset, and a torn tail still reads as torn, not as a frame the
// large stripe's stale bytes complete or extend.
func TestScrubWindowReuse(t *testing.T) {
	dir := t.TempDir()
	w := open(t, dir)
	defer w.Close()
	if err := w.Checkpoint(0, bytes.Repeat([]byte("s"), 3*scrubWindow)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := w.Append(0, rec(fmt.Sprintf("large-%d", i), "value")); err != nil {
			t.Fatal(err)
		}
	}
	for _, shard := range []int{1, 2} {
		for i := 0; i < 5; i++ {
			if err := w.Append(shard, rec(fmt.Sprintf("k%d", i), "v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	scrubLarge := func() {
		t.Helper()
		if err := w.VerifyShard(0); err != nil {
			t.Fatalf("large clean stripe: %v", err)
		}
	}

	scrubLarge()
	flipped := LogPath(dir, 1)
	offs, err := FrameOffsets(flipped)
	if err != nil || len(offs) != 5 {
		t.Fatalf("FrameOffsets = %v, %v", offs, err)
	}
	data := fileBytes(t, flipped)
	data[offs[2]+3] ^= 0xFF
	if err := os.WriteFile(flipped, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if err := w.VerifyShard(1); !errors.As(err, &ce) || ce.Path != flipped || ce.Offset != offs[2] {
		t.Fatalf("small stripe with a flipped byte: VerifyShard = %v, want damage at %s+%d", err, flipped, offs[2])
	}

	scrubLarge()
	torn := LogPath(dir, 2)
	data = fileBytes(t, torn)
	if err := os.WriteFile(torn, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := w.VerifyShard(2); err != nil {
		t.Fatalf("small stripe with a torn tail: VerifyShard = %v, want nil", err)
	}
}

// Set frames as the format defines them, byte for byte: any change to how
// a frame is built must leave these bytes alone, or logs written before it
// stop replaying.
const (
	frameA3 = "0b0101610001330202c002c047952e2f" // rec("a", "3")
	frameB5 = "0b0101620001350202c002c03743b5b2" // rec("b", "5")
	frameC4 = "0b0101630001340202c002c02c4d08e3" // rec("c", "4")
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFrameBytesPinned: a live value, an empty value, a tombstone and a
// value above frameKeep encode to the pinned frame bytes, both through
// appendFrame and through an append that reuses the stripe's buffer.
func TestFrameBytesPinned(t *testing.T) {
	_, forked := core.Seed().Fork()
	forked = forked.Update()
	big := bytes.Repeat([]byte("x"), 5000)
	cases := []struct {
		e    encoding.Entry
		want []byte
	}{
		{encoding.Entry{Key: "key", Value: []byte("value"), Stamp: core.Seed().Update()},
			unhex(t, "1101036b6579000576616c75650202c002c0c3e472ef")},
		{encoding.Entry{Key: "empty", Value: []byte{}, Stamp: forked},
			unhex(t, "0e0105656d7074790000020598059820feb3a6")},
		{encoding.Entry{Key: "gone", Deleted: true, Stamp: forked},
			unhex(t, "0c0104676f6e650102059805988392680e")},
		{encoding.Entry{Key: "big", Value: big, Stamp: forked},
			slices.Concat(unhex(t, "95270103626967008827"), big, unhex(t, "0205980598a0e31f39"))},
	}
	dir := t.TempDir()
	w := open(t, dir)
	var log []byte
	for _, c := range cases {
		if got := appendFrame(nil, c.e); !bytes.Equal(got, c.want) {
			t.Errorf("frame of %q:\n got %x\nwant %x", c.e.Key, got, c.want)
		}
		if n := frameLen(c.e); n != len(c.want) {
			t.Errorf("frameLen(%q) = %d, frame is %d bytes", c.e.Key, n, len(c.want))
		}
		if err := w.Append(0, c.e); err != nil {
			t.Fatal(err)
		}
		log = append(log, c.want...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileBytes(t, LogPath(dir, 0)); !bytes.Equal(got, log) {
		t.Fatalf("log holds %d bytes, want the %d pinned frame bytes", len(got), len(log))
	}
}

// TestFrameBufferCapped: a frame above frameKeep is built in a buffer the
// stripe does not keep, and a small frame after it reuses the kept one.
func TestFrameBufferCapped(t *testing.T) {
	w := open(t, t.TempDir())
	defer w.Close()
	if err := w.Append(0, rec("small", "v")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, rec("huge", string(bytes.Repeat([]byte("h"), 1<<20)))); err != nil {
		t.Fatal(err)
	}
	sh := w.shards[0]
	if c := cap(sh.buf); c == 0 || c > frameKeep {
		t.Fatalf("after a 1 MiB append the stripe keeps a %d-byte frame buffer; cap is %d", c, frameKeep)
	}
	_, recs := replay(t, w, 0)
	if len(recs) != 2 || len(recs[1].Value) != 1<<20 {
		t.Fatalf("replay = %d records", len(recs))
	}
}

// TestWALAppendAllocs: a buffered append of a 128-byte value allocates
// nothing — the frame is encoded in the stripe's kept buffer. A lone
// writer's group-commit append allocates nothing either: each window
// reuses the batch, barrier, shard list and functions of the last.
func TestWALAppendAllocs(t *testing.T) {
	e := rec("key-000001", string(bytes.Repeat([]byte("v"), 128)))
	w := open(t, t.TempDir())
	defer w.Close()
	if err := w.Append(0, e); err != nil { // opens the log, sizes the buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Append(0, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("buffered append allocates %.2f/op, want 0", allocs)
	}

	g, err := Open(t.TempDir(), Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Append(0, e); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if err := g.Append(0, e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("group-commit append allocates %.2f/op, want 0", allocs)
	}
}
