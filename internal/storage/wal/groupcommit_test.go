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
	"strings"
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

// crashDir materializes a simulated post-crash directory holding logs[i]
// as stripe i's log.
func crashDir(t *testing.T, logs ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	for shard, data := range logs {
		if err := os.WriteFile(LogPath(dir, shard), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// rawFrame hand-encodes one frame around payload: length prefix, payload,
// CRC — whatever the payload's kind.
func rawFrame(payload []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(payload)))
	out = append(out, payload...)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, crcTable))
}

// syncTracker is a FaultInjector that records what the WAL made durable:
// per shard the stripe log's fsync count and its length at the last fsync
// (zero again once a checkpoint or fold truncates the log), and the order
// of all fsyncs. Its only fault is syncErr, returned by the stripe-log
// Syncs of the shards in failOn (of every shard when failOn is empty)
// while set.
type syncTracker struct {
	dir string

	mu      sync.Mutex
	syncErr error
	failOn  []int
	syncs   map[int]int
	order   []int
	durable map[int]int64
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
	if s.syncErr != nil && (len(s.failOn) == 0 || slices.Contains(s.failOn, shard)) {
		return s.syncErr
	}
	s.syncs[shard]++
	s.order = append(s.order, shard)
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

// setSyncErr makes the stripe-log Syncs of shards — of every shard when
// none is named — fail with err; nil heals them all.
func (s *syncTracker) setSyncErr(err error, shards ...int) {
	s.mu.Lock()
	s.syncErr, s.failOn = err, shards
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

// TestGroupCommitConcurrentAcksSurvive drives 32 writers, 8 appends each
// spread over 8 shards, through both modes — the default buffered appends
// (what ring nodes and panasync serve -data-dir run) and shared commit
// windows — then closes and reopens: every acked record must come back.
// The "mixed" case interleaves one-stripe and multi-stripe windows with
// folds and checkpoints: writer 0 makes each append alone in its window (a
// one-stripe window), the others alternate plain appends with forced
// two-stripe windows, and another goroutine folds and checkpoints shards
// throughout. Under group commit the power is cut first: each stripe log
// loses every byte no fsync covered.
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
				t.Logf("stripe fsyncs %v", tr.syncs)
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

// TestGroupCommitStripeCutProperty interleaves one-stripe and multi-stripe
// windows over three stripes, then stages one more window whose fsyncs all
// fail, so its frames land but are never acked. A power cut leaves each
// stripe log anywhere at or past its last fsync: each stripe in turn is cut
// at every such byte, the others at their fsynced length. Every acked frame
// must come back, in order, followed by a prefix of the un-acked ones.
func TestGroupCommitStripeCutProperty(t *testing.T) {
	const stripes = 3
	w, tr := openTracked(t)
	// The last acked window touches every stripe, stripe 2 first: a flush
	// that fsynced only part of a window would lose acked frames below.
	windows := [][]int{{0}, {0, 1}, {1}, {2, 0}, {0}, {1, 2, 1}, {2}, {2, 0, 1}}
	var acked, unacked [stripes][]string
	entries := func(i int, shards []int) []shardEntry {
		batch := make([]shardEntry, len(shards))
		for j, s := range shards {
			batch[j] = shardEntry{s, rec(fmt.Sprintf("s%d", s), fmt.Sprintf("w%d.%d", i, j))}
		}
		return batch
	}
	for i, shards := range windows {
		batch := entries(i, shards)
		mustWindow(t, w, batch...)
		for _, b := range batch {
			acked[b.shard] = append(acked[b.shard], string(b.e.Value))
		}
	}
	tr.setSyncErr(errNoSpace)
	batch := entries(len(windows), []int{1, 0, 2, 1})
	for i, err := range appendWindow(t, w, batch...) {
		if !errors.Is(err, errNoSpace) {
			t.Fatalf("append %d of a window whose fsyncs fail = %v, want %v", i, err, errNoSpace)
		}
	}
	for _, b := range batch {
		unacked[b.shard] = append(unacked[b.shard], string(b.e.Value))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var full, synced [stripes][]byte
	for s := range full {
		full[s] = fileBytes(t, LogPath(tr.dir, s))
		synced[s] = full[s][:tr.durableLen(s)]
	}
	for s := 0; s < stripes; s++ {
		if len(synced[s]) == len(full[s]) {
			t.Fatalf("stripe %d fsynced through all %d bytes: nothing to cut", s, len(full[s]))
		}
		for cut := len(synced[s]); cut <= len(full[s]); cut++ {
			logs := synced
			logs[s] = full[s][:cut]
			w, err := Open(crashDir(t, logs[:]...), Options{GroupCommit: true})
			if err != nil {
				t.Fatalf("stripe %d cut at %d: Open: %v", s, cut, err)
			}
			for shard := 0; shard < stripes; shard++ {
				_, recs := replay(t, w, shard)
				want := append(slices.Clone(acked[shard]), unacked[shard]...)
				if len(recs) < len(acked[shard]) || len(recs) > len(want) {
					t.Fatalf("stripe %d cut at %d: shard %d recovered %d records, want %d to %d",
						s, cut, shard, len(recs), len(acked[shard]), len(want))
				}
				for i, r := range recs {
					if string(r.Value) != want[i] {
						t.Fatalf("stripe %d cut at %d: shard %d record %d = %q, want %q",
							s, cut, shard, i, r.Value, want[i])
					}
				}
			}
			w.Close()
		}
	}
}

// TestGroupCommitLoneThenSharedWindowOrder: a one-stripe window fsyncs
// stripe 0's first frame, then a multi-stripe window appends stripe 0's
// next frame and fsyncs stripes 0 and 1 through every byte it wrote. A
// power cut that drops every stripe byte no fsync covered drops nothing
// acked, so both of stripe 0's frames recover, in order.
func TestGroupCommitLoneThenSharedWindowOrder(t *testing.T) {
	w, tr := openTracked(t)
	if err := w.Append(0, rec("a", "1")); err != nil {
		t.Fatal(err)
	}
	mustWindow(t, w, shardEntry{0, rec("b", "2")}, shardEntry{1, rec("c", "3")})
	if tr.syncs[0] != 2 || tr.syncs[1] != 1 {
		t.Fatalf("stripe fsyncs %v; want two of stripe 0 and one of stripe 1", tr.syncs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < 2; shard++ {
		if full := int64(len(fileBytes(t, LogPath(tr.dir, shard)))); tr.durableLen(shard) != full {
			t.Fatalf("stripe %d fsynced through %d of %d acked bytes", shard, tr.durableLen(shard), full)
		}
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

// TestGroupCommitWindowSyncsEachStripeOnce: a window over stripes {0, 1, 2}
// fsyncs each of them exactly once, in the order the window first touched
// them, through every byte the window wrote, however many of its frames
// each stripe holds.
func TestGroupCommitWindowSyncsEachStripeOnce(t *testing.T) {
	w, tr := openTracked(t)
	defer w.Close()
	mustWindow(t, w, shardEntry{2, rec("a", "1")}, shardEntry{0, rec("b", "1")},
		shardEntry{2, rec("c", "1")}, shardEntry{1, rec("d", "1")}, shardEntry{0, rec("e", "1")})
	if fmt.Sprint(tr.order) != "[2 0 1]" {
		t.Fatalf("stripe fsyncs in order %v, want [2 0 1]", tr.order)
	}
	for shard := 0; shard < 3; shard++ {
		if fi, err := os.Stat(LogPath(tr.dir, shard)); err != nil || tr.durableLen(shard) != fi.Size() {
			t.Fatalf("stripe %d fsynced at %d bytes, holds %v (%v)", shard, tr.durableLen(shard), fi, err)
		}
	}
}

// TestGroupCommitNothingAckedBeforeFsync fails the second of a three-stripe
// window's stripe fsyncs: every waiter in the window must see the error,
// although the first stripe's fsync succeeded — an append is never acked
// until every fsync of its window returned. Once the disk heals the next
// window acks, and a power cut keeps what it acked.
func TestGroupCommitNothingAckedBeforeFsync(t *testing.T) {
	w, tr := openTracked(t)
	window := func(v string) []shardEntry {
		return []shardEntry{{0, rec("a", v)}, {1, rec("b", v)}, {2, rec("c", v)}}
	}
	tr.setSyncErr(errNoSpace, 1)
	for i, err := range appendWindow(t, w, window("1")...) {
		if !errors.Is(err, errNoSpace) {
			t.Fatalf("append %d = %v although stripe 1's fsync failed, want %v", i, err, errNoSpace)
		}
	}
	if tr.syncs[0] != 1 {
		t.Fatalf("stripe fsyncs %v; want stripe 0 fsynced before stripe 1 failed", tr.syncs)
	}
	tr.setSyncErr(nil)
	mustWindow(t, w, window("2")...)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr.powerCut(t, 3)
	w2 := openGroup(t, tr.dir)
	defer w2.Close()
	for shard := 0; shard < 3; shard++ {
		_, recs := replay(t, w2, shard)
		var got []string
		for _, r := range recs {
			got = append(got, string(r.Value))
		}
		if fmt.Sprint(got) != "[1 2]" {
			t.Fatalf("shard %d recovered %v, want the un-acked 1 (it landed) then the acked 2", shard, got)
		}
	}
}

// TestGroupCommitFoldSurvivesPowerCut folds a stripe between group-commit
// windows. The fold keeps each key's last frame durable in the checkpoint
// and fsyncs the log's truncation, and the next window fsyncs the log
// again, so a power cut that drops every stripe byte no fsync covered —
// here an append whose fsync failed — recovers the folds and then the
// acked append made since.
func TestGroupCommitFoldSurvivesPowerCut(t *testing.T) {
	w, tr := openTracked(t)
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
	if fi, err := os.Stat(LogPath(tr.dir, 0)); err != nil || fi.Size() != 0 {
		t.Fatalf("stripe log after the fold: %v, %v; want empty", fi, err)
	}
	mustWindow(t, w, shardEntry{0, rec("k2", "v4")}, shardEntry{1, rec("side", "v4")})
	tr.setSyncErr(errNoSpace)
	if err := w.Append(0, rec("k3", "v5")); !errors.Is(err, errNoSpace) {
		t.Fatalf("append with a failed fsync = %v, want %v", err, errNoSpace)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr.powerCut(t, 2)
	w2 := openGroup(t, tr.dir)
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

// freeBatches returns the committer's free list of reusable windows.
func freeBatches(w *WAL) []*commitBatch {
	w.group.mu.Lock()
	defer w.group.mu.Unlock()
	return slices.Clone(w.group.free)
}

// TestGroupCommitBatchReuse pins the recycling of commit windows, one
// window at a time:
//   - a window whose fsync fails fails every one of its waiters, and its
//     batch goes back on the free list once the last of them returns;
//   - the next window reuses that batch (it leaves the free list while the
//     window is in use and is the only batch there after) and acks every
//     waiter: no stale error leaks into it;
//   - a window with a wait never called stays off the free list, so the
//     window after it runs on a new batch;
//   - a window over sixteen stripes fsyncs each once, releases every
//     waiter and is recycled like any other.
func TestGroupCommitBatchReuse(t *testing.T) {
	w, tr := openTracked(t)
	defer w.Close()
	window := func(v string, shards ...int) []shardEntry {
		batch := make([]shardEntry, len(shards))
		for i, s := range shards {
			batch[i] = shardEntry{s, rec(fmt.Sprintf("k%d", s), v)}
		}
		return batch
	}
	requireFree := func(step string, want ...*commitBatch) {
		t.Helper()
		if got := freeBatches(w); !slices.Equal(got, want) {
			t.Fatalf("%s: free list %p, want %p", step, got, want)
		}
	}

	tr.setSyncErr(errNoSpace, 1)
	for i, err := range appendWindow(t, w, window("a", 0, 1, 2, 1)...) {
		if !errors.Is(err, errNoSpace) {
			t.Fatalf("failed window: waiter %d = %v, want %v", i, err, errNoSpace)
		}
	}
	tr.setSyncErr(nil)
	free := freeBatches(w)
	if len(free) != 1 {
		t.Fatalf("failed window: free list holds %d batches, want its 1", len(free))
	}
	a := free[0]

	before := len(tr.order)
	waits, err := stageWindow(w, window("b", 2, 0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	requireFree("reusing window staged")
	for i, wait := range waits {
		if err := wait(); err != nil {
			t.Fatalf("window after a failed one: waiter %d = %v, want nil", i, err)
		}
	}
	requireFree("reusing window acked", a)
	if got := tr.order[before:]; fmt.Sprint(got) != "[2 0 1]" {
		t.Fatalf("reusing window fsynced stripes %v, want its own [2 0 1]", got)
	}

	waits, err = stageWindow(w, window("c", 0, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := waits[0](); err != nil {
		t.Fatalf("window with an uncalled wait: waiter 0 = %v", err)
	}
	requireFree("window with an uncalled wait")

	shards := make([]int, 0, 20)
	for s := 15; s >= 0; s-- {
		shards = append(shards, s)
	}
	shards = append(shards, 15, 0, 7, 8)
	before = len(tr.order)
	for i, err := range appendWindow(t, w, window("d", shards...)...) {
		if err != nil {
			t.Fatalf("sixteen-stripe window: waiter %d = %v", i, err)
		}
	}
	if got := tr.order[before:]; !slices.Equal(got, shards[:16]) {
		t.Fatalf("sixteen-stripe window fsynced stripes %v, want %v", got, shards[:16])
	}
	free = freeBatches(w)
	if len(free) != 1 || free[0] == a {
		t.Fatalf("sixteen-stripe window: free list %p, want one new batch (%p was never returned)", free, a)
	}
}

// TestGroupCommitLoneWriterSkipsCommitLog: a lone writer's window touches
// one stripe, so it fsyncs that stripe log once, through its last byte, and
// writes no other file — no shared commit log appears.
func TestGroupCommitLoneWriterSkipsCommitLog(t *testing.T) {
	w, tr := openTracked(t)
	defer w.Close()
	if err := w.Append(3, rec("a", "1")); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(tr.syncs) != "map[3:1]" {
		t.Fatalf("stripe fsyncs %v; want map[3:1]", tr.syncs)
	}
	if _, err := os.Stat(filepath.Join(tr.dir, legacyCommitLog)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a commit log exists after a lone append: %v", err)
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
		dir := crashDir(t, stripe[:cut])
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

// TestOpenRefusesLegacyCommitLog: a non-empty commit log left by the
// earlier group-commit format may hold acked frames its stripe logs lack,
// so Open refuses the directory in either mode, naming the file, and
// leaves the log as it found it.
func TestOpenRefusesLegacyCommitLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, legacyCommitLog)
	if err := os.WriteFile(path, rawFrame([]byte{0x03, 0, 0}), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, group := range []bool{false, true} {
		w, err := Open(dir, Options{GroupCommit: group})
		if err == nil {
			w.Close()
			t.Fatalf("Open(GroupCommit: %v) accepted a directory holding a non-empty %s", group, legacyCommitLog)
		}
		if !strings.Contains(err.Error(), path) {
			t.Fatalf("Open(GroupCommit: %v) = %v; want the error to name %s", group, err, path)
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("refused Open changed the commit log: %v, %v", fi, err)
	}
}

// TestOpenRemovesEmptyLegacyCommitLog: an empty commit log of the earlier
// format holds nothing to lose, so Open deletes it and opens the directory.
func TestOpenRemovesEmptyLegacyCommitLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, legacyCommitLog)
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openGroup(t, dir)
	defer w.Close()
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty commit log still present after Open: %v", err)
	}
}
