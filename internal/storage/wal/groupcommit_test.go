package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"versionstamp/internal/encoding"
)

func openGroup(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := Open(dir, Options{GroupCommit: true})
	if err != nil {
		t.Fatalf("Open group: %v", err)
	}
	return w
}

// shardEntry is one append of a commit window: the entry and its shard.
type shardEntry struct {
	shard int
	e     encoding.Entry
}

// stageWindow stages every entry in ONE commit window and returns the
// window's waits (nil outside group-commit mode). Holding flushMu keeps the
// window open — run takes it before it closes the window — so every
// registration joins the same window, with no timing involved.
func stageWindow(w *WAL, batch ...shardEntry) ([]func() error, error) {
	if w.group != nil {
		w.group.flushMu.Lock()
		defer w.group.flushMu.Unlock()
	}
	waits := make([]func() error, 0, len(batch))
	for _, b := range batch {
		wait, err := w.AppendAsync(b.shard, b.e)
		if err != nil {
			return waits, err
		}
		waits = append(waits, wait)
	}
	return waits, nil
}

// appendWindow appends batch in one commit window and returns each
// append's acknowledgement error.
func appendWindow(t *testing.T, w *WAL, batch ...shardEntry) []error {
	t.Helper()
	waits, err := stageWindow(w, batch...)
	if err != nil {
		t.Fatalf("stage window: %v", err)
	}
	errs := make([]error, len(waits))
	for i, wait := range waits {
		errs[i] = wait()
	}
	return errs
}

// mustWindow is appendWindow failing the test on any unacknowledged append.
func mustWindow(t *testing.T, w *WAL, batch ...shardEntry) {
	t.Helper()
	for i, err := range appendWindow(t, w, batch...) {
		if err != nil {
			t.Fatalf("window append %d: %v", i, err)
		}
	}
}

// buildGroupLog appends n acked records to shard 0 of a group-commit WAL,
// each in a window shared with a record on shard 1 so that it goes through
// the commit log, and returns shard 0's raw stripe-log bytes and the
// commit-log bytes at crash time (Close releases handles without rotating,
// so the commit log keeps every frame).
func buildGroupLog(t *testing.T, n int) (stripe, commit []byte) {
	t.Helper()
	dir := t.TempDir()
	w := openGroup(t, dir)
	for i := 0; i < n; i++ {
		v := fmt.Sprintf("v%d", i)
		mustWindow(t, w, shardEntry{0, rec("key", v)}, shardEntry{1, rec("side", v)})
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

// syncTracker is a CommitFaultInjector that records what the WAL made
// durable: per shard the stripe log's fsync count and its length at the
// last fsync (zero again once a checkpoint or fold truncates the log), and
// the commit log's bytes and fsyncs. Its only fault is syncErr, returned by
// stripe-log Syncs while set.
type syncTracker struct {
	dir string

	mu          sync.Mutex
	syncErr     error
	syncs       map[int]int
	durable     map[int]int64
	commitBytes int
	commitSyncs int
}

func newSyncTracker(dir string) *syncTracker {
	return &syncTracker{dir: dir, syncs: map[int]int{}, durable: map[int]int64{}}
}

func (s *syncTracker) Append(_ int, frame []byte) (int, error) { return len(frame), nil }
func (s *syncTracker) Truncate(int) error                      { return nil }

// Sync runs under the shard's mutex, so the log's length here is exactly
// what the fsync that follows covers.
func (s *syncTracker) Sync(shard int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.syncErr != nil {
		return s.syncErr
	}
	s.syncs[shard]++
	if fi, err := os.Stat(LogPath(s.dir, shard)); err == nil {
		s.durable[shard] = fi.Size()
	}
	return nil
}

// Checkpoint precedes a checkpoint or fold that ends by truncating the log
// and fsyncing the truncation.
func (s *syncTracker) Checkpoint(shard int, _ []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durable[shard] = 0
	return nil
}

func (s *syncTracker) CommitAppend(buf []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitBytes += len(buf)
	return len(buf), nil
}

func (s *syncTracker) CommitSync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitSyncs++
	return nil
}

func (s *syncTracker) setSyncErr(err error) {
	s.mu.Lock()
	s.syncErr = err
	s.mu.Unlock()
}

// durableLen returns the length of the shard's log at its last fsync.
func (s *syncTracker) durableLen(shard int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable[shard]
}

// powerCut simulates a power loss on a closed WAL's directory: every stripe
// log among shards 0..shards-1 loses the bytes no fsync covered.
func (s *syncTracker) powerCut(t *testing.T, shards int) {
	t.Helper()
	for shard := 0; shard < shards; shard++ {
		err := os.Truncate(LogPath(s.dir, shard), s.durableLen(shard))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
	}
}

// openTracked opens a group-commit WAL in a fresh directory under a
// syncTracker.
func openTracked(t *testing.T) (*WAL, *syncTracker) {
	t.Helper()
	tr := newSyncTracker(t.TempDir())
	w, err := Open(tr.dir, Options{GroupCommit: true, Fault: tr})
	if err != nil {
		t.Fatal(err)
	}
	return w, tr
}

// TestGroupCommitAckedSurviveStripeLoss is the headline durability claim:
// every acked append of a multi-stripe window lives in the fsynced commit
// log, so losing ALL un-fsynced stripe-file bytes (truncate to zero) loses
// nothing.
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
// The "mixed" case interleaves every kind of window with rotations: writer
// 0 makes each append alone in its window (a one-stripe window), the others
// alternate plain appends with forced two-stripe windows, and another
// goroutine folds and checkpoints shards throughout.
// Under group commit the power is cut first: each stripe log loses every
// byte no fsync covered, and the commit log has to carry the rest.
func TestGroupCommitConcurrentAcksSurvive(t *testing.T) {
	const writers, perWriter, shards = 32, 8, 8
	key := func(i, j int) string { return fmt.Sprintf("w%02d-%d", i, j) }
	for _, tc := range []struct {
		name         string
		group, mixed bool
	}{
		{"buffered", false, false},
		{"group", true, false},
		{"mixed", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newSyncTracker(t.TempDir())
			w, err := Open(tr.dir, Options{GroupCommit: tc.group, Fault: tr})
			if err != nil {
				t.Fatal(err)
			}
			// locks[s] stands in for the store's stripe lock: a checkpoint
			// snapshots the shard and truncates its log with no append in
			// between. Writers hold it only while staging.
			var locks [shards]sync.RWMutex
			// gate is held shared while staging; writer 0 of the mixed case
			// holds it alone, from before its window opens until it closes.
			var gate sync.RWMutex
			var wg sync.WaitGroup
			errs := make([]error, writers)
			acked := make([][]string, writers)
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					lone := tc.mixed && i == 0
					for j := 0; j < perWriter && errs[i] == nil; j++ {
						a := (i + j) % shards
						batch := []shardEntry{{a, rec(key(i, j), "x")}}
						if tc.mixed && !lone && j%2 == 1 {
							batch = append(batch, shardEntry{(a + 1) % shards, rec(key(i, j)+"+", "x")})
						}
						if lone {
							gate.Lock()
							waitWindowClosed(w)
						} else {
							gate.RLock()
						}
						for _, s := range stripeOrder(batch) {
							locks[s].RLock()
						}
						waits, err := stageWindow(w, batch...)
						for _, s := range stripeOrder(batch) {
							locks[s].RUnlock()
						}
						if !lone {
							gate.RUnlock()
						}
						for _, wait := range waits {
							if err == nil && wait != nil {
								err = wait()
							}
						}
						if lone {
							gate.Unlock()
						}
						if errs[i] = err; err == nil {
							for _, b := range batch {
								acked[i] = append(acked[i], b.e.Key)
							}
						}
					}
				}(i)
			}
			stop := make(chan struct{})
			var ckptErr error
			var ckptWG sync.WaitGroup
			if tc.mixed {
				ckptWG.Add(1)
				go func() {
					defer ckptWG.Done()
					for s := 0; ckptErr == nil; s++ {
						select {
						case <-stop:
							return
						default:
						}
						ckptErr = foldOrCheckpoint(w, s%shards, &locks[s%shards], s%3 == 0)
					}
				}()
			}
			wg.Wait()
			close(stop)
			ckptWG.Wait()
			if ckptErr != nil {
				t.Fatalf("fold/checkpoint: %v", ckptErr)
			}
			for i, err := range errs {
				if err != nil {
					t.Fatalf("writer %d: %v", i, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.group {
				t.Logf("stripe fsyncs %v, commit fsyncs %d", tr.syncs, tr.commitSyncs)
				tr.powerCut(t, shards)
			}
			w2, err := Open(tr.dir, Options{GroupCommit: tc.group})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			seen := replayedKeys(t, w2, shards)
			for i := range acked {
				if len(acked[i]) < perWriter {
					t.Fatalf("writer %d acked %d appends, want at least %d", i, len(acked[i]), perWriter)
				}
				for _, k := range acked[i] {
					if !seen[k] {
						t.Fatalf("acked write %s lost (recovered %d records)", k, len(seen))
					}
				}
			}
		})
	}
}

// waitWindowClosed yields until no commit window is open. The caller has
// stopped new registrations, so an open window closes within its deadline.
func waitWindowClosed(w *WAL) {
	for {
		w.group.mu.Lock()
		open := w.group.cur != nil
		w.group.mu.Unlock()
		if !open {
			return
		}
		runtime.Gosched()
	}
}

// stripeOrder returns the shards of batch in ascending order, the order
// their locks are taken.
func stripeOrder(batch []shardEntry) []int {
	out := make([]int, len(batch))
	for i, b := range batch {
		out[i] = b.shard
	}
	slices.Sort(out)
	return out
}

// foldOrCheckpoint folds the shard's log into its checkpoint or, when
// checkpoint is set or the fold refuses, rewrites the checkpoint from the
// shard's replayed state under lock, encoded as frames (which
// replayEntries decodes).
func foldOrCheckpoint(w *WAL, shard int, lock *sync.RWMutex, checkpoint bool) error {
	if !checkpoint {
		if ok, err := w.Fold(shard); ok || err != nil {
			return err
		}
	}
	lock.Lock()
	defer lock.Unlock()
	var snap []byte
	err := w.ReplayShard(shard,
		func(s []byte) error {
			_, err := scanLog(s, func(_ int, e encoding.Entry) error {
				snap = appendFrame(snap, e)
				return nil
			})
			return err
		},
		func(e encoding.Entry) error { snap = appendFrame(snap, e); return nil })
	if err != nil {
		return err
	}
	return w.Checkpoint(shard, snap)
}

// replayedKeys replays shards 0..shards-1 and returns the keys seen. A
// checkpoint snapshot is read as frames, the encoding foldOrCheckpoint
// writes.
func replayedKeys(t *testing.T, w *WAL, shards int) map[string]bool {
	t.Helper()
	seen := map[string]bool{}
	for shard := 0; shard < shards; shard++ {
		snap, recs := replay(t, w, shard)
		if _, err := scanLog(snap, func(_ int, e encoding.Entry) error {
			seen[e.Key] = true
			return nil
		}); err != nil {
			t.Fatalf("shard %d snapshot: %v", shard, err)
		}
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
// back to its length at its last fsync.
func TestGroupCommitRotatesAtCap(t *testing.T) {
	const writers, perWriter, shards, logCap = 16, 128, 8, 1 << 10
	key := func(i, j int) string { return fmt.Sprintf("w%02d-%d", i, j) }
	w, tr := openTracked(t)
	dir := tr.dir
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

	tr.powerCut(t, shards)
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

// TestGroupCommitNothingAckedBeforeFsync fails a multi-stripe window's
// single commit-log fsync: every waiter in the window must see the error —
// an append is never acked until its window's fsync returned. The frames
// DID land in the commit log, so a reopen may legally resurrect the
// un-acked writes (un-acked writes may appear or vanish; they must never
// corrupt the log).
func TestGroupCommitNothingAckedBeforeFsync(t *testing.T) {
	dir := t.TempDir()
	fs := &commitFaultScript{appendShort: -1, syncErr: errNoSpace}
	w, err := Open(dir, Options{GroupCommit: true, Fault: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range appendWindow(t, w, shardEntry{0, rec("a", "1")}, shardEntry{1, rec("c", "1")}) {
		if err == nil {
			t.Fatalf("append %d acked although the commit fsync failed", i)
		}
	}
	// Heal the disk: the next window must ack cleanly again.
	fs.syncErr = nil
	mustWindow(t, w, shardEntry{0, rec("b", "2")}, shardEntry{1, rec("d", "2")})
	w.Close()

	w2 := openGroup(t, dir)
	defer w2.Close()
	_, recs := replay(t, w2, 0)
	if n := len(recs); n != 2 {
		t.Fatalf("recovered %d records, want 2 (un-acked frame landed before the failed fsync)", n)
	}
}

// TestGroupCommitShortBatchRollsBack lands a prefix of a multi-stripe
// window's commit batch and fails: the partial batch must be truncated away
// so later windows append to a clean commit log, and the failed appends
// must not ack.
func TestGroupCommitShortBatchRollsBack(t *testing.T) {
	dir := t.TempDir()
	fs := &commitFaultScript{appendShort: 5, appendErr: errNoSpace}
	w, err := Open(dir, Options{GroupCommit: true, Fault: fs})
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range appendWindow(t, w, shardEntry{0, rec("a", "1")}, shardEntry{1, rec("c", "1")}) {
		if err == nil {
			t.Fatalf("append %d acked although the commit batch landed short", i)
		}
	}
	fs.appendShort = -1
	fs.appendErr = nil
	mustWindow(t, w, shardEntry{0, rec("b", "2")}, shardEntry{1, rec("d", "2")})
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

// TestGroupCommitFoldRotatesFirst: a fold rotates the commit log before it
// truncates the stripe log, so no commit frame from before the fold can
// materialize against the emptied log. Losing every un-fsynced stripe byte
// afterwards still recovers the folds plus the appends made since.
func TestGroupCommitFoldRotatesFirst(t *testing.T) {
	dir := t.TempDir()
	w := openGroup(t, dir)
	if err := w.Checkpoint(0, make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustWindow(t, w, shardEntry{0, rec(fmt.Sprintf("k%d", i%2), fmt.Sprintf("v%d", i))},
			shardEntry{1, rec("side", fmt.Sprintf("v%d", i))})
	}
	if ok, err := w.Fold(0); !ok || err != nil {
		t.Fatalf("Fold = %v, %v", ok, err)
	}
	if fi, err := os.Stat(filepath.Join(dir, commitLogName)); err != nil || fi.Size() != 0 {
		t.Fatalf("commit log after the fold: %v, %v; want empty", fi, err)
	}
	mustWindow(t, w, shardEntry{0, rec("k2", "v4")}, shardEntry{1, rec("side", "v4")})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(LogPath(dir, 0), 0); err != nil {
		t.Fatal(err)
	}
	w2 := openGroup(t, dir)
	defer w2.Close()
	_, recs := replay(t, w2, 0)
	var got []string
	for _, r := range recs {
		got = append(got, r.Key+"="+string(r.Value))
	}
	if fmt.Sprint(got) != "[k0=v2 k1=v3 k2=v4]" {
		t.Fatalf("recovered %v, want the folds k0=v2 k1=v3 then k2=v4", got)
	}
}

// TestGroupCommitLoneWriterSkipsCommitLog: a lone writer's window touches
// one stripe, so it fsyncs that stripe log once and writes nothing to the
// commit log.
func TestGroupCommitLoneWriterSkipsCommitLog(t *testing.T) {
	w, tr := openTracked(t)
	defer w.Close()
	if err := w.Append(3, rec("a", "1")); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tr.syncs) != "map[3:1]" || tr.commitBytes != 0 || tr.commitSyncs != 0 {
		t.Fatalf("stripe fsyncs %v, commit log %d bytes / %d fsyncs; want map[3:1], 0, 0",
			tr.syncs, tr.commitBytes, tr.commitSyncs)
	}
	if fi, err := os.Stat(filepath.Join(tr.dir, commitLogName)); err == nil && fi.Size() != 0 {
		t.Fatalf("commit log holds %d bytes after a lone append", fi.Size())
	}
	if fi, err := os.Stat(LogPath(tr.dir, 3)); err != nil || tr.durableLen(3) != fi.Size() {
		t.Fatalf("stripe log fsynced at %d bytes, holds %v (%v)", tr.durableLen(3), fi, err)
	}
}

// TestGroupCommitLoneSyncFaultFailsAppend fails a one-stripe window's
// stripe-log fsync: the append must not ack, and the shard must accept and
// ack writes once the disk heals.
func TestGroupCommitLoneSyncFaultFailsAppend(t *testing.T) {
	w, tr := openTracked(t)
	tr.setSyncErr(errNoSpace)
	if err := w.Append(0, rec("a", "1")); !errors.Is(err, errNoSpace) {
		t.Fatalf("append with a failed stripe fsync = %v, want %v", err, errNoSpace)
	}
	tr.setSyncErr(nil)
	if err := w.Append(0, rec("b", "2")); err != nil {
		t.Fatalf("append after the fsync fault healed: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr.powerCut(t, 1)
	w2 := openGroup(t, tr.dir)
	defer w2.Close()
	_, recs := replay(t, w2, 0)
	if n := len(recs); n != 2 || recs[1].Key != "b" {
		t.Fatalf("recovered %+v, want the un-acked a (it landed) then the acked b", recs)
	}
}

// TestGroupCommitLoneCutProperty: acked lone appends, then appends whose
// stripe fsync fails (never acked), then a power cut at EVERY byte at or
// past the log's last fsynced length. Every acked record comes back in
// order, and what follows is a prefix of the un-acked ones.
func TestGroupCommitLoneCutProperty(t *testing.T) {
	w, tr := openTracked(t)
	for i := 0; i < 8; i++ {
		if err := w.Append(0, rec("key", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	synced := tr.durableLen(0)
	tr.setSyncErr(errNoSpace)
	for i := 0; i < 3; i++ {
		if err := w.Append(0, rec("key", fmt.Sprintf("u%d", i))); err == nil {
			t.Fatal("append acked although its stripe fsync failed")
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stripe := fileBytes(t, LogPath(tr.dir, 0))
	if synced == 0 || synced >= int64(len(stripe)) {
		t.Fatalf("fsynced length %d of a %d-byte log: nothing to cut", synced, len(stripe))
	}
	want := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "u0", "u1", "u2"}
	for cut := synced; cut <= int64(len(stripe)); cut++ {
		dir := crashDir(t, stripe[:cut], nil)
		w, err := Open(dir, Options{GroupCommit: true})
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		_, recs := replay(t, w, 0)
		if len(recs) < 8 {
			t.Fatalf("cut at %d: recovered %d records, want at least the 8 acked", cut, len(recs))
		}
		for i, r := range recs {
			if string(r.Value) != want[i] {
				t.Fatalf("cut at %d: record %d = %q, want %q", cut, i, r.Value, want[i])
			}
		}
		w.Close()
	}
}

// TestGroupCommitLoneThenSharedWindowOrder: a one-stripe window fsyncs
// stripe 0's first frame, then a multi-stripe window carries stripe 0's
// next frame through the commit log. A power cut that drops every stripe
// byte no fsync covered leaves stripe 0 ending exactly where that commit
// frame begins, so both acked frames recover, in order.
func TestGroupCommitLoneThenSharedWindowOrder(t *testing.T) {
	w, tr := openTracked(t)
	if err := w.Append(0, rec("a", "1")); err != nil {
		t.Fatal(err)
	}
	mustWindow(t, w, shardEntry{0, rec("b", "2")}, shardEntry{1, rec("c", "3")})
	if tr.syncs[0] != 1 || tr.commitSyncs != 1 {
		t.Fatalf("stripe fsyncs %v, commit fsyncs %d; want one of each", tr.syncs, tr.commitSyncs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if full := int64(len(fileBytes(t, LogPath(tr.dir, 0)))); tr.durableLen(0) >= full {
		t.Fatalf("stripe 0 fsynced through %d of %d bytes: the cut drops nothing", tr.durableLen(0), full)
	}
	tr.powerCut(t, 2)
	w2 := openGroup(t, tr.dir)
	defer w2.Close()
	for shard, want := range []string{"[a b]", "[c]"} {
		_, recs := replay(t, w2, shard)
		var got []string
		for _, r := range recs {
			got = append(got, r.Key)
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("shard %d recovered %v, want %s", shard, got, want)
		}
	}
}
