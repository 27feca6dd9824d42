package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openGroup(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := Open(dir, Options{GroupCommit: true})
	if err != nil {
		t.Fatalf("Open group: %v", err)
	}
	return w
}

// buildGroupLog appends n acked records to shard 0 of a group-commit WAL
// and returns the raw stripe-log and commit-log bytes at crash time (Close
// releases handles without rotating, so the commit log keeps every frame).
func buildGroupLog(t *testing.T, n int) (stripe, commit []byte) {
	t.Helper()
	dir := t.TempDir()
	w := openGroup(t, dir)
	for i := 0; i < n; i++ {
		if err := w.Append(0, rec("key", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stripe, err := os.ReadFile(LogPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	commit, err = os.ReadFile(filepath.Join(dir, commitLogName))
	if err != nil {
		t.Fatal(err)
	}
	return stripe, commit
}

// crashDir materializes a simulated post-crash directory: a prefix of the
// stripe log (un-fsynced stripe bytes may be lost) alongside a prefix of
// the commit log (fsynced, but the crash may still tear its tail).
func crashDir(t *testing.T, stripe, commit []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(LogPath(dir, 0), stripe, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, commitLogName), commit, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// commitFrame hand-encodes one commit-log frame carrying raw stripe-frame
// bytes destined for (shard, stripeOff) — the format recoverCommitLog
// parses.
func commitFrame(shard int, stripeOff int64, frame []byte) []byte {
	payload := []byte{recCommit}
	payload = binary.AppendUvarint(payload, uint64(shard))
	payload = binary.AppendUvarint(payload, uint64(stripeOff))
	payload = append(payload, frame...)
	return rawFrame(payload)
}

// rawFrame hand-encodes one frame around payload: length prefix, payload,
// CRC — whatever the payload's kind.
func rawFrame(payload []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(payload)))
	out = append(out, payload...)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
}

// TestGroupCommitAckedSurviveStripeLoss is the headline durability claim:
// every acked append lives in the fsynced commit log, so losing ALL
// un-fsynced stripe-file bytes (truncate to zero) loses nothing.
func TestGroupCommitAckedSurviveStripeLoss(t *testing.T) {
	stripe, commit := buildGroupLog(t, 8)
	dir := crashDir(t, nil, commit)
	w := openGroup(t, dir)
	defer w.Close()
	_, recs := replay(t, w, 0)
	if len(recs) != 8 {
		t.Fatalf("recovered %d records, want 8", len(recs))
	}
	for i, r := range recs {
		if want := fmt.Sprintf("v%d", i); string(r.Value) != want {
			t.Fatalf("record %d = %q, want %q", i, r.Value, want)
		}
	}
	// Recovery rebuilt the stripe log byte-for-byte and emptied the commit
	// log, so the stripe file is self-sufficient again.
	got, err := os.ReadFile(LogPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(stripe) {
		t.Fatalf("materialized stripe log differs from the original (%d vs %d bytes)",
			len(got), len(stripe))
	}
	if fi, err := os.Stat(filepath.Join(dir, commitLogName)); err != nil || fi.Size() != 0 {
		t.Fatalf("commit log not drained after recovery: %v, %v", fi, err)
	}
}

// TestGroupCommitConcurrentAcksSurvive drives 32 writers, 8 appends each
// spread over 8 shards, through both modes — the default buffered appends
// (what ring nodes and panasync serve -data-dir run) and shared commit
// windows — then closes and reopens: every acked record must come back.
// Under group commit the stripe files are lost first, so the commit log
// alone has to carry them.
func TestGroupCommitConcurrentAcksSurvive(t *testing.T) {
	const writers, perWriter, shards = 32, 8, 8
	key := func(i, j int) string { return fmt.Sprintf("w%02d-%d", i, j) }
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"buffered", Options{}},
		{"group", Options{GroupCommit: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, writers)
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < perWriter && errs[i] == nil; j++ {
						errs[i] = w.Append(i%shards, rec(key(i, j), "x"))
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("writer %d: %v", i, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.opts.GroupCommit {
				for shard := 0; shard < shards; shard++ {
					if err := os.Truncate(LogPath(dir, shard), 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			w2, err := Open(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			seen := replayedKeys(t, w2, shards)
			for i := 0; i < writers; i++ {
				for j := 0; j < perWriter; j++ {
					if !seen[key(i, j)] {
						t.Fatalf("acked write %s lost (recovered %d records)", key(i, j), len(seen))
					}
				}
			}
		})
	}
}

// replayedKeys replays shards 0..shards-1 and returns the keys seen.
func replayedKeys(t *testing.T, w *WAL, shards int) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	for shard := 0; shard < shards; shard++ {
		_, recs := replay(t, w, shard)
		for _, r := range recs {
			seen[r.Key] = true
		}
	}
	return seen
}

// TestGroupCommitRotatesAtCap shrinks the commit-log cap so the background
// rotation in committer.run fires many times under concurrent writers, and
// checks both halves of its contract: the commit log stays bounded, and no
// acked record is lost across a rotation. A rotation moves durability from
// the commit log to the stripe files it fsyncs, so the crash it must survive
// loses exactly the stripe bytes no fsync covered: each stripe log is cut
// back to the earliest offset the surviving commit log still holds.
func TestGroupCommitRotatesAtCap(t *testing.T) {
	const writers, perWriter, shards, logCap = 16, 128, 8, 1 << 10
	key := func(i, j int) string { return fmt.Sprintf("w%02d-%d", i, j) }
	dir := t.TempDir()
	w := openGroup(t, dir)
	w.group.cap = logCap
	var wg sync.WaitGroup
	errs := make([]error, writers)
	var peak int64 // largest commit-log size any writer saw after an ack; under w.group.mu
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter && errs[i] == nil; j++ {
				wait, err := w.AppendAsync((i+j)%shards, rec(key(i, j), "x"))
				if err == nil {
					err = wait()
				}
				errs[i] = err
				w.group.mu.Lock()
				if w.group.size > peak {
					peak = w.group.size
				}
				w.group.mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Without rotation the commit log would hold more than every stripe log
	// together; with it, a window or two past the cap.
	var written int64
	for shard := 0; shard < shards; shard++ {
		fi, err := os.Stat(LogPath(dir, shard))
		if err != nil {
			t.Fatal(err)
		}
		written += fi.Size()
	}
	const bound = 8 * logCap
	if written < 4*bound {
		t.Fatalf("only %d bytes appended: too few to force rotations past %d", written, bound)
	}
	if peak > bound {
		t.Fatalf("commit log reached %d bytes, cap %d", peak, logCap)
	}

	commit, err := os.ReadFile(filepath.Join(dir, commitLogName))
	if err != nil {
		t.Fatal(err)
	}
	covered := map[int]int64{} // shard -> earliest stripe offset still in the commit log
	if _, err := scanFrames(commit, func(_ int, payload []byte) error {
		shard, n := binary.Uvarint(payload[1:])
		off, _ := binary.Uvarint(payload[1+n:])
		if cur, ok := covered[int(shard)]; !ok || int64(off) < cur {
			covered[int(shard)] = int64(off)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for shard, off := range covered {
		if err := os.Truncate(LogPath(dir, shard), off); err != nil {
			t.Fatal(err)
		}
	}

	w2 := openGroup(t, dir)
	defer w2.Close()
	seen := replayedKeys(t, w2, shards)
	for i := 0; i < writers; i++ {
		for j := 0; j < perWriter; j++ {
			if !seen[key(i, j)] {
				t.Fatalf("acked write %s lost (recovered %d records)", key(i, j), len(seen))
			}
		}
	}
}

// TestGroupCommitStripeCutProperty cuts the stripe log at EVERY byte offset
// while the commit log is intact: no acked write may be lost at any cut,
// and recovery must leave the stripe log identical to the uncut original.
func TestGroupCommitStripeCutProperty(t *testing.T) {
	stripe, commit := buildGroupLog(t, 8)
	for cut := 0; cut <= len(stripe); cut++ {
		dir := crashDir(t, stripe[:cut], commit)
		w, err := Open(dir, Options{GroupCommit: true})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		_, recs := replay(t, w, 0)
		if len(recs) != 8 {
			t.Fatalf("cut at %d: recovered %d records, want 8", cut, len(recs))
		}
		for i, r := range recs {
			if want := fmt.Sprintf("v%d", i); string(r.Value) != want {
				t.Fatalf("cut at %d: record %d = %q, want %q", cut, i, r.Value, want)
			}
		}
		got, err := os.ReadFile(LogPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(stripe) {
			t.Fatalf("cut at %d: stripe log not rebuilt to the original", cut)
		}
		w.Close()
	}
}

// TestGroupCommitCommitCutProperty loses the stripe file entirely AND cuts
// the commit log at every byte offset — the crash landing mid-window, mid
// frame. Recovery must always succeed (a torn commit tail is truncation,
// not corruption) and replay must yield an exact prefix of the append
// sequence: un-acked suffixes may vanish, but nothing reorders and no hole
// opens. The WAL must accept new appends afterwards.
func TestGroupCommitCommitCutProperty(t *testing.T) {
	_, commit := buildGroupLog(t, 8)
	for cut := 0; cut <= len(commit); cut++ {
		dir := crashDir(t, nil, commit[:cut])
		w, err := Open(dir, Options{GroupCommit: true})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		_, recs := replay(t, w, 0)
		for i, r := range recs {
			if want := fmt.Sprintf("v%d", i); string(r.Value) != want {
				t.Fatalf("cut at %d: replay is not an op prefix: record %d = %q, want %q",
					cut, i, r.Value, want)
			}
		}
		if err := w.Append(0, rec("key", "post")); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		_, recs2 := replay(t, w, 0)
		if len(recs2) != len(recs)+1 || string(recs2[len(recs)].Value) != "post" {
			t.Fatalf("cut at %d: post-recovery append lost (%d -> %d records)",
				cut, len(recs), len(recs2))
		}
		w.Close()
	}
}

// TestGroupCommitGarbageTailTolerated appends random garbage to the commit
// log — a crash that tore the tail into nonsense rather than cutting it
// clean. The garbage must be discarded as a torn tail, keeping every acked
// record.
func TestGroupCommitGarbageTailTolerated(t *testing.T) {
	_, commit := buildGroupLog(t, 8)
	garbage := append(append([]byte(nil), commit...),
		0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0xff)
	dir := crashDir(t, nil, garbage)
	w := openGroup(t, dir)
	defer w.Close()
	_, recs := replay(t, w, 0)
	if len(recs) != 8 {
		t.Fatalf("recovered %d records, want 8", len(recs))
	}
}

// TestGroupCommitStaleAndDanglingFramesSkipped exercises recoverCommitLog's
// offset discipline: frames below the stripe log's end are already present
// (stale — skipped), frames beyond it are dangling (their predecessor never
// became durable — skipped), and only a frame at the exact end
// materializes.
func TestGroupCommitStaleAndDanglingFramesSkipped(t *testing.T) {
	stripe, commit := buildGroupLog(t, 3)
	offs, err := FrameOffsets(crashPath(t, stripe))
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 3 {
		t.Fatalf("FrameOffsets = %v", offs)
	}
	frame0 := stripe[offs[0]:offs[1]] // raw first stripe frame ("v0")
	end := int64(len(stripe))

	// Commit log: 3 stale frames (stripe intact, all below end), one
	// dangling frame far past the end, one valid frame at the exact end.
	crafted := append([]byte(nil), commit...)
	crafted = append(crafted, commitFrame(0, end+1000, frame0)...)
	crafted = append(crafted, commitFrame(0, end, frame0)...)

	dir := crashDir(t, stripe, crafted)
	w := openGroup(t, dir)
	defer w.Close()
	_, recs := replay(t, w, 0)
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4 (3 original + 1 materialized)", len(recs))
	}
	for i, want := range []string{"v0", "v1", "v2", "v0"} {
		if string(recs[i].Value) != want {
			t.Fatalf("record %d = %q, want %q", i, recs[i].Value, want)
		}
	}
	if fi, err := os.Stat(LogPath(dir, 0)); err != nil || fi.Size() != end+int64(len(frame0)) {
		t.Fatalf("stripe log size = %v (err %v), want %d", fi.Size(), err, end+int64(len(frame0)))
	}
}

// crashPath writes data to a scratch stripe-log file and returns its path —
// FrameOffsets wants a file, not bytes.
func crashPath(t *testing.T, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "scratch.wal")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// commitFaultScript injects scripted faults into the group-commit pipeline
// while leaving stripe-file operations healthy.
type commitFaultScript struct {
	appendShort int // bytes of the commit batch allowed to land (-1 = all)
	appendErr   error
	syncErr     error
}

func (f *commitFaultScript) Append(_ int, frame []byte) (int, error) { return len(frame), nil }
func (f *commitFaultScript) Truncate(int) error                      { return nil }
func (f *commitFaultScript) Sync(int) error                          { return nil }
func (f *commitFaultScript) Checkpoint(int, []byte) error            { return nil }
func (f *commitFaultScript) CommitAppend(buf []byte) (int, error) {
	if f.appendShort < 0 || f.appendShort > len(buf) {
		return len(buf), f.appendErr
	}
	return f.appendShort, f.appendErr
}
func (f *commitFaultScript) CommitSync() error { return f.syncErr }

// TestGroupCommitNothingAckedBeforeFsync fails the window's single fsync:
// every waiter in the window must see the error — an append is never acked
// until its window's fsync returned. The frames DID land in the commit log,
// so a reopen may legally resurrect the un-acked writes (un-acked writes
// may appear or vanish; they must never corrupt the log).
func TestGroupCommitNothingAckedBeforeFsync(t *testing.T) {
	dir := t.TempDir()
	fs := &commitFaultScript{appendShort: -1, syncErr: errNoSpace}
	w, err := Open(dir, Options{GroupCommit: true, Fault: fs})
	if err != nil {
		t.Fatal(err)
	}
	wait, err := w.AppendAsync(0, rec("a", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := wait(); err == nil {
		t.Fatal("append acked although the commit fsync failed")
	}
	// Heal the disk: the next window must ack cleanly again.
	fs.syncErr = nil
	if err := w.Append(0, rec("b", "2")); err != nil {
		t.Fatalf("append after healed fsync: %v", err)
	}
	w.Close()

	w2 := openGroup(t, dir)
	defer w2.Close()
	_, recs := replay(t, w2, 0)
	if n := len(recs); n != 2 {
		t.Fatalf("recovered %d records, want 2 (un-acked frame landed before the failed fsync)", n)
	}
}

// TestGroupCommitShortBatchRollsBack lands a prefix of the commit batch and
// fails: the partial batch must be truncated away so later windows append
// to a clean commit log, and the failed append must not ack.
func TestGroupCommitShortBatchRollsBack(t *testing.T) {
	dir := t.TempDir()
	fs := &commitFaultScript{appendShort: 5, appendErr: errNoSpace}
	w, err := Open(dir, Options{GroupCommit: true, Fault: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, rec("a", "1")); err == nil {
		t.Fatal("append acked although the commit batch landed short")
	}
	fs.appendShort = -1
	fs.appendErr = nil
	if err := w.Append(0, rec("b", "2")); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	w.Close()

	// The stripe file still holds the un-acked "a" frame (it may legally
	// survive), but the commit log's clean prefix must replay without error
	// and include the acked "b".
	w2 := openGroup(t, dir)
	defer w2.Close()
	_, recs := replay(t, w2, 0)
	keys := map[string]bool{}
	for _, r := range recs {
		keys[r.Key] = true
	}
	if !keys["b"] {
		t.Fatalf("acked record b lost after short-batch rollback: %+v", recs)
	}
}
