package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"versionstamp/internal/storage/faultfs"
	"versionstamp/internal/storage/wal"
)

// stateOf fingerprints a replica's full stored state — every key including
// tombstones, values and deletion flags, stamps excluded (stamps are
// compared via Sync convergence, not byte equality).
func stateOf(r *Replica) map[string]string {
	out := make(map[string]string)
	for _, k := range r.Keys() {
		v, ok := r.Version(k)
		if !ok {
			continue
		}
		if v.Deleted {
			out[k] = "\x00tombstone"
		} else {
			out[k] = string(v.Value)
		}
	}
	return out
}

func sameState(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// requireEqualStamps asserts two replicas carry identical state including
// stamps — the restart-must-resume-exactly contract.
func requireEqualStamps(t *testing.T, a, b *Replica) {
	t.Helper()
	ka, kb := a.Keys(), b.Keys()
	if len(ka) != len(kb) {
		t.Fatalf("key counts differ: %d vs %d", len(ka), len(kb))
	}
	for _, k := range ka {
		va, _ := a.Version(k)
		vb, ok := b.Version(k)
		if !ok {
			t.Fatalf("key %q missing after reopen", k)
		}
		if va.Deleted != vb.Deleted || string(va.Value) != string(vb.Value) {
			t.Fatalf("key %q state differs: %+v vs %+v", k, va, vb)
		}
		if !va.Stamp.Equal(vb.Stamp) {
			t.Fatalf("key %q stamp differs after reopen: %v vs %v", k, va.Stamp, vb.Stamp)
		}
	}
}

func TestOpenReopenPreservesStateAndStamps(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Label: "durable", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.Put("a", []byte("1"))
	r.Put("b", []byte("2"))
	r.Put("a", []byte("3"))
	r.Delete("b")
	r.PutBatch(map[string][]byte{"c": []byte("4"), "d": []byte("5")})
	r.Delete("d")
	r.Delete("never-seen")

	// Crash path: abandon (no checkpoint) and reopen — everything must come
	// back from the log alone.
	if err := r.Abandon(); err != nil {
		t.Fatal(err)
	}
	crashed, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	requireEqualStamps(t, r, crashed)
	if crashed.Label() != "durable" || crashed.Shards() != 4 {
		t.Errorf("metadata lost: label %q, %d shards", crashed.Label(), crashed.Shards())
	}

	// Graceful path: Close checkpoints; reopening replays no log.
	if err := crashed.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", i)))
		if err == nil && fi.Size() != 0 {
			t.Errorf("shard %d log not truncated by Close: %d bytes", i, fi.Size())
		}
	}
	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireEqualStamps(t, r, reopened)
}

// TestOpenRejectsSecondOwner: two live owners of one data directory would
// interleave appends and truncate each other's logs, so the second Open
// must fail fast; Abandon (a "crash") releases the directory.
func TestOpenRejectsSecondOwner(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a live directory must fail")
	}
	if err := r.Abandon(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after abandon: %v", err)
	}
	_ = r2.Close()
}

func TestOpenRejectsLayoutChange(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	r.Put("k", []byte("v"))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Shards: 16}); err == nil {
		t.Fatal("reopening with a different stripe count must fail")
	}
	if _, err := Open(dir, Options{Shards: 8}); err != nil {
		t.Fatalf("reopening with the recorded stripe count: %v", err)
	}
}

// TestCrashRecoveryProperty is the satellite crash property: a random op
// sequence against a single-stripe durable replica, with one full
// checkpoint partway through and one fold a few ops later, then a crash
// whose cut falls on one of two places. Either the log is hard-cut at a
// random byte offset, or the fold is cut, with the log as it was before the
// fold put back: the checkpoint holds the old file plus a random part of
// the fold's frames (a crash before the header rewrite), or the whole new
// file (a crash between the header rewrite and the log truncation). The
// reopened store must equal the state
// after some prefix of the applied ops — never a mix, never garbage, and
// never short of what the fold made durable — and still converge with a
// live peer through tier-1 Sync.
func TestCrashRecoveryProperty(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(trial) * 7919))
			dir := t.TempDir()
			// The long label pads the snapshot, so a fold of a few ops never
			// outgrows it and is never refused.
			r, err := Open(dir, Options{Label: strings.Repeat("crash", 40), Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			logPath := filepath.Join(dir, "shard-0000.wal")
			ckptPath := filepath.Join(dir, "shard-0000.ckpt")

			key := func() string { return fmt.Sprintf("key-%d", rng.Intn(12)) }
			// prefixes[i] is the state after i ops.
			prefixes := []map[string]string{stateOf(r)}
			var peer *Replica
			nOps := 10 + rng.Intn(40)
			// A full checkpoint after op ckptAt, a fold after op foldAt.
			ckptAt := nOps/3 + rng.Intn(nOps/3)
			foldAt := ckptAt + 1 + rng.Intn(3)
			cloneAt := rng.Intn(nOps)
			if cloneAt > ckptAt && cloneAt <= foldAt {
				cloneAt = ckptAt // a clone forks every key: too much to fold
			}
			var preFoldLog, preFoldCkpt []byte
			for i := 0; i < nOps; i++ {
				if i == cloneAt {
					peer = r.Clone("peer") // stamp forks hit the log too
				}
				if rng.Intn(4) == 0 {
					r.Delete(key())
				} else {
					r.Put(key(), []byte(fmt.Sprintf("v%d-%d", trial, i)))
				}
				prefixes = append(prefixes, stateOf(r))
				if i == foldAt {
					if preFoldLog, err = os.ReadFile(logPath); err != nil {
						t.Fatal(err)
					}
					if preFoldCkpt, err = os.ReadFile(ckptPath); err != nil {
						t.Fatal(err)
					}
				}
				if i == ckptAt || i == foldAt {
					if err := r.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				if i == foldAt {
					// A fold commits frames after the old end of the file; a
					// rewrite leaves no fold frames at all.
					folds, err := wal.FrameOffsets(ckptPath)
					if err != nil {
						t.Fatal(err)
					}
					log, err := os.ReadFile(logPath)
					if err != nil || len(folds) == 0 || folds[len(folds)-1] < int64(len(preFoldCkpt)) || len(log) != 0 {
						t.Fatalf("checkpoint after op %d did not fold (%v)", i, err)
					}
				}
			}
			if err := r.PersistErr(); err != nil {
				t.Fatal(err)
			}
			if err := r.Abandon(); err != nil { // crash: no checkpoint
				t.Fatal(err)
			}

			// Everything up to the fold is durable whatever the log cut; a
			// crash mid-fold must leave exactly the state the fold began at.
			path, hi := logPath, len(prefixes)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Intn(len(data) + 1)
			crashed := data[:cut]
			if rng.Intn(2) == 0 {
				// Some of the fold's frames land after the old file; only the
				// whole new file carries the header rewrite that commits them.
				path, hi = ckptPath, foldAt+2
				if data, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
				cut = len(preFoldCkpt) + rng.Intn(len(data)-len(preFoldCkpt)+1)
				crashed = append(append([]byte(nil), preFoldCkpt...), data[len(preFoldCkpt):cut]...)
				if cut == len(data) {
					crashed = data
				}
				if err := os.WriteFile(logPath, preFoldLog, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(path, crashed, 0o644); err != nil {
				t.Fatal(err)
			}

			reopened, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after cut at %s+%d/%d: %v", filepath.Base(path), cut, len(data), err)
			}
			defer reopened.Close()
			got := stateOf(reopened)
			matched := -1
			for i := foldAt + 1; i < hi && matched < 0; i++ {
				if sameState(got, prefixes[i]) {
					matched = i
				}
			}
			if matched < 0 {
				t.Fatalf("cut at %s+%d/%d: reopened state %v is no prefix of ops [%d, %d)",
					filepath.Base(path), cut, len(data), got, foldAt+1, hi)
			}

			// The survivor still speaks anti-entropy: sync with the live peer
			// converges, and a second round proves quiescence.
			if peer == nil {
				return
			}
			if _, err := Sync(reopened, peer, KeepBoth([]byte("|"))); err != nil {
				t.Fatalf("sync after recovery: %v", err)
			}
			if !sameState(stateOf(reopened), stateOf(peer)) {
				t.Fatal("replicas did not converge after recovery sync")
			}
			res, err := Sync(reopened, peer, KeepBoth([]byte("|")))
			if err != nil {
				t.Fatal(err)
			}
			if res.Transferred+res.Reconciled+res.Merged+len(res.Conflicts) != 0 {
				t.Fatalf("second sync not quiescent: %+v", res)
			}
		})
	}
}

// TestWALReplay10k is the CI durability smoke: open → 10k writes → kill
// (no Close) → reopen replays the full log → verify. Runs under -short.
func TestWALReplay10k(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Label: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	const ops = 10000
	for i := 0; i < ops; i++ {
		r.Put(fmt.Sprintf("key-%05d", i%2500), []byte(fmt.Sprintf("value-%d", i)))
	}
	if err := r.PersistErr(); err != nil {
		t.Fatal(err)
	}
	if err := r.Abandon(); err != nil { // kill: no checkpoint
		t.Fatal(err)
	}
	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireEqualStamps(t, r, reopened)
	if reopened.Len() != 2500 {
		t.Fatalf("reopened Len = %d, want 2500", reopened.Len())
	}
}

func TestCheckpointBoundsReplayAndKeepsWrites(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Put(fmt.Sprintf("k%d", i), []byte("before"))
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", i)))
		if err == nil && fi.Size() != 0 {
			t.Errorf("shard %d log not truncated by checkpoint", i)
		}
	}
	for i := 0; i < 10; i++ {
		r.Put(fmt.Sprintf("k%d", i), []byte("after"))
	}
	if err := r.Abandon(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireEqualStamps(t, r, reopened)
}

// TestSyncMutationsAreDurable drives the in-process Sync write path (which
// bypasses Put/Delete) between two durable replicas and asserts both sides'
// logs captured the reconciliation.
func TestSyncMutationsAreDurable(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a, err := Open(dirA, Options{Label: "a", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(dirB, Options{Label: "b", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	a.Put("only-a", []byte("1"))
	a.Put("shared", []byte("base"))
	// First sync transfers both keys to b, forking a's stamps — mutations on
	// both replicas that only the sync path logs.
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	// Diverge and reconcile: dominance on "shared", a transfer of "only-b".
	a.Put("shared", []byte("a-side"))
	b.Put("only-b", []byte("2"))
	if _, err := Sync(a, b, KeepBoth([]byte("|"))); err != nil {
		t.Fatal(err)
	}

	if err := a.Abandon(); err != nil {
		t.Fatal(err)
	}
	if err := b.Abandon(); err != nil {
		t.Fatal(err)
	}
	reA, err := Open(dirA, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reA.Close()
	reB, err := Open(dirB, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reB.Close()
	requireEqualStamps(t, a, reA)
	requireEqualStamps(t, b, reB)
	if !sameState(stateOf(reA), stateOf(reB)) {
		t.Fatal("reopened replicas do not agree after sync")
	}
}

// TestRemovalForcesFullCheckpoint: a fold replays the log over the old
// snapshot and cannot say a key is gone, so once DiscardTombstones has
// removed a key the next checkpoint rewrites the stripe. Put k, checkpoint,
// delete k, checkpoint (a fold), discard k's tombstone, checkpoint, crash:
// k must come back as neither a value nor a tombstone.
func TestRemovalForcesFullCheckpoint(t *testing.T) {
	t.Run("wal", func(t *testing.T) {
		dir := t.TempDir()
		be, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenBackend(be, "removal", 1)
		if err != nil {
			t.Fatal(err)
		}
		// Other keys give the snapshot room for the folds.
		for i := 0; i < 20; i++ {
			r.Put(fmt.Sprintf("other-%02d", i), []byte("0123456789"))
		}
		r.Put("k", []byte("v"))
		checkpoint := func() {
			t.Helper()
			if err := r.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		checkpoint()
		r.Delete("k")
		checkpoint()
		if n := r.DiscardTombstones(0, r.Tombstones(0)); n != 1 {
			t.Fatalf("DiscardTombstones dropped %d tombstones, want 1", n)
		}
		checkpoint()
		if err := r.Abandon(); err != nil {
			t.Fatal(err)
		}

		if be, err = wal.Open(dir, wal.Options{}); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenBackend(be, "removal", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Abandon()
		if v, ok := reopened.Version("k"); ok {
			t.Fatalf("discarded key came back after reopen: %+v", v)
		}
		requireEqualStamps(t, r, reopened)
	})
}

// TestPersistErrForcesFullCheckpoint: a write whose append failed is in
// memory but not in the log, so a fold would drop it. While PersistErr is
// set the next checkpoint rewrites every stripe instead, which heals
// PersistErr, and the write survives a crash.
func TestPersistErrForcesFullCheckpoint(t *testing.T) {
	dir := t.TempDir()
	in := faultfs.New(1, faultfs.Faults{})
	open := func() *Replica {
		t.Helper()
		be, err := wal.Open(dir, wal.Options{Fault: in})
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenBackend(be, "persist", 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r := open()
	for i := 0; i < 20; i++ {
		r.Put(fmt.Sprintf("other-%02d", i), []byte("0123456789"))
	}
	r.Put("k", []byte("v1"))
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	in.SetFaults(faultfs.Faults{AppendErrProb: 1})
	r.Put("k", []byte("v2"))
	in.SetFaults(faultfs.Faults{})
	if r.PersistErr() == nil {
		t.Fatal("failed append left PersistErr nil")
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the failed append: %v", err)
	}
	if err := r.PersistErr(); err != nil {
		t.Fatalf("PersistErr after a full checkpoint pass: %v", err)
	}
	if err := r.Abandon(); err != nil {
		t.Fatal(err)
	}
	reopened := open()
	defer reopened.Abandon()
	if v, ok := reopened.Get("k"); !ok || string(v) != "v2" {
		t.Fatalf("k after reopen = %q, %v; want the write whose append failed, v2", v, ok)
	}
}

// TestConcurrentFoldsKeepAckedWrites races writers against a checkpoint
// loop on a group-commit replica — folds, and full rewrites once the folds
// outgrow a snapshot — then crashes and reopens: every key must come back
// with its last value and stamp.
func TestConcurrentFoldsKeepAckedWrites(t *testing.T) {
	dir := t.TempDir()
	be, err := wal.Open(dir, wal.Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenBackend(be, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r.Put(fmt.Sprintf("base-%03d", i), []byte("0123456789abcdef"))
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Put(fmt.Sprintf("w%d-%d", g, i%10), []byte(fmt.Sprint(i)))
			}
		}(g)
	}
	stop, ckptErr := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				ckptErr <- nil
				return
			default:
				if err := r.Checkpoint(); err != nil {
					ckptErr <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-ckptErr; err != nil {
		t.Fatal(err)
	}
	if err := r.PersistErr(); err != nil {
		t.Fatal(err)
	}
	if err := r.Abandon(); err != nil {
		t.Fatal(err)
	}
	if be, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenBackend(be, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	requireEqualStamps(t, r, reopened)
}

// TestGroupCommitPutAllocs is the counted gate of the durable write path:
// on a group-commit replica a Put of an existing key allocates only its
// value copy — the commit window, its wait function and the replica's
// barrier queue are all reused — and a Delete of a live key allocates
// nothing. The Delete is measured as a Put+Delete pair, so every Delete
// finds its key live.
func TestGroupCommitPutAllocs(t *testing.T) {
	be, err := wal.Open(t.TempDir(), wal.Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenBackend(be, "r", 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	value := make([]byte, 128)
	r.Put("k", value) // creates the key, opens its stripe log, sizes the queues
	put := testing.AllocsPerRun(200, func() { r.Put("k", value) })
	pair := testing.AllocsPerRun(200, func() {
		r.Put("k", value)
		if !r.Delete("k") {
			t.Fatal("Delete of a live key reported no key")
		}
	})
	if err := r.PersistErr(); err != nil {
		t.Fatal(err)
	}
	t.Logf("durable Put %.2f allocs, Put+Delete %.2f", put, pair)
	if put != 1 {
		t.Errorf("durable Put allocates %.2f/op, want 1 (its value copy)", put)
	}
	if pair != put {
		t.Errorf("durable Delete allocates %.2f/op, want 0", pair-put)
	}
}

// durableTracker is a wal.FaultInjector that records, per stripe, the
// log's length at its last fsync. Sync is consulted under the stripe log's
// mutex just before the fsync, so that length is exactly what it covers.
type durableTracker struct {
	dir     string
	mu      sync.Mutex
	durable map[int]int64
}

func (d *durableTracker) Append(_ int, frame []byte) (int, error) { return len(frame), nil }
func (d *durableTracker) Truncate(int) error                      { return nil }
func (d *durableTracker) Checkpoint(int, []byte) error            { return nil }

func (d *durableTracker) Sync(shard int) error {
	fi, err := os.Stat(wal.LogPath(d.dir, shard))
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.durable[shard] = fi.Size()
	d.mu.Unlock()
	return nil
}

// fsynced reports whether key's frame lies in the fsynced prefix of its
// stripe log. Keys are written once each, so finding the key is finding
// its frame.
func (d *durableTracker) fsynced(key string, shards int) (bool, error) {
	shard := ShardIndex(key, shards)
	d.mu.Lock()
	n := d.durable[shard]
	d.mu.Unlock()
	data, err := os.ReadFile(wal.LogPath(d.dir, shard))
	if err != nil || int64(len(data)) < n {
		return false, err
	}
	return bytes.Contains(data[:n], []byte(key)), nil
}

// TestGroupCommitAcksAfterFsync races writers on one group-commit replica,
// each Put or PutBatch (every fourth op, eight keys over the stripes)
// sharing windows and barrier queue with the others. A mutator must not
// return before the window holding each of its frames has fsynced, even
// when another mutator's drain took its barriers; every waiter of a
// many-stripe window is released, and PersistErr stays nil.
func TestGroupCommitAcksAfterFsync(t *testing.T) {
	const shards, writers, ops = 8, 8, 40
	tr := &durableTracker{dir: t.TempDir(), durable: map[int]int64{}}
	be, err := wal.Open(tr.dir, wal.Options{GroupCommit: true, Fault: tr})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenBackend(be, "r", shards)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				var keys []string
				if j%4 == 3 {
					batch := map[string][]byte{}
					for b := 0; b < 8; b++ {
						k := fmt.Sprintf("w%02d-op%03d-b%d", i, j, b)
						batch[k], keys = []byte("v"), append(keys, k)
					}
					r.PutBatch(batch)
				} else {
					k := fmt.Sprintf("w%02d-op%03d", i, j)
					r.Put(k, []byte("v"))
					keys = append(keys, k)
				}
				for _, k := range keys {
					if ok, err := tr.fsynced(k, shards); !ok || err != nil {
						t.Errorf("write of %s returned before its frame was fsynced (%v)", k, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if err := r.PersistErr(); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineAndRepair corrupts one stripe's WAL at rest and walks the
// self-healing contract end to end: reopen loads the healthy stripes and
// quarantines the damaged one, empty; PersistErr reports it, writes to the
// stripe stay in memory without touching the latched log, and RepairStripe
// (standing in for the anti-entropy rebuild) re-checkpoints, clears the
// quarantine and PersistErr, and the next reopen is clean.
func TestQuarantineAndRepair(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Label: "n", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Find keys for two distinct stripes.
	var hot, other string
	for i := 0; hot == "" || other == ""; i++ {
		k := fmt.Sprintf("key-%d", i)
		switch ShardIndex(k, 4) {
		case 1:
			if hot == "" {
				hot = k
			}
		case 2:
			if other == "" {
				other = k
			}
		}
	}
	for i := 0; i < 5; i++ {
		r.Put(hot, []byte(fmt.Sprintf("v%d", i)))
	}
	r.Put(other, []byte("safe"))
	if err := r.Abandon(); err != nil { // crash: logs stay, no checkpoint
		t.Fatal(err)
	}

	if _, err := faultfs.FlipLogByte(dir, 1, 77); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open with corrupt stripe: %v", err)
	}
	if q := r2.Quarantined(); len(q) != 1 || q[0] != 1 {
		t.Fatalf("Quarantined = %v, want [1]", q)
	}
	if r2.PersistErr() == nil {
		t.Fatal("PersistErr must report the quarantine")
	}
	var ce *wal.CorruptError
	if err := r2.QuarantineErr(1); !errors.As(err, &ce) {
		t.Fatalf("QuarantineErr(1) = %v, want *wal.CorruptError", err)
	}
	// The damaged stripe comes up empty. Whatever prefix of hot's rewrites
	// replayed is a rollback — an older version under a stamp id the key has
	// since forked away — and must reach neither a reader nor a peer.
	if v, ok := r2.Version(hot); ok {
		t.Fatalf("rolled-back %s = %q under %v is observable", hot, v.Value, v.Stamp)
	}
	for _, d := range r2.Digest() {
		if d.Key == hot {
			t.Fatalf("rolled-back %s under %v would be sent in a digest", hot, d.Stamp)
		}
	}
	// The healthy stripe is intact and writable.
	if v, ok := r2.Get(other); !ok || string(v) != "safe" {
		t.Fatalf("healthy stripe lost data: %q %v", v, ok)
	}
	// Checkpoint skips the quarantined stripe and keeps the report.
	if err := r2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(r2.Quarantined()) != 1 || r2.PersistErr() == nil {
		t.Fatal("Checkpoint must not clear a quarantine")
	}
	// Rebuild the stripe state (a peer sync would do this) and repair.
	r2.Put(hot, []byte("rebuilt"))
	if err := r2.RepairStripe(1); err != nil {
		t.Fatal(err)
	}
	if len(r2.Quarantined()) != 0 {
		t.Fatal("quarantine did not clear after repair")
	}
	if err := r2.PersistErr(); err != nil {
		t.Fatalf("PersistErr after repair = %v", err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}

	r3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	defer r3.Close()
	if v, ok := r3.Get(hot); !ok || string(v) != "rebuilt" {
		t.Fatalf("repaired stripe = %q %v, want rebuilt", v, ok)
	}
	if len(r3.Quarantined()) != 0 {
		t.Fatal("quarantine resurrected after reopen")
	}
}

// TestScrubDemotesLiveStripe damages a live replica's checkpoint behind its
// back and asserts the incremental scrubber quarantines the stripe.
func TestScrubDemotesLiveStripe(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Label: "n", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 20; i++ {
		r.Put(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A clean scrub pass finds nothing.
	for i := 0; i < 4; i++ {
		if si, err := r.ScrubNext(); err != nil {
			t.Fatalf("clean scrub stripe %d: %v", si, err)
		}
	}
	// Rot a checkpoint at rest, then scrub until the cursor comes around.
	if _, err := faultfs.CorruptCheckpoint(dir, 2, 9); err != nil {
		t.Fatal(err)
	}
	var caught error
	for i := 0; i < 4; i++ {
		if si, err := r.ScrubNext(); err != nil && si == 2 {
			caught = err
		}
	}
	if caught == nil {
		t.Fatal("scrub missed the rotted checkpoint")
	}
	if !r.StripeQuarantined(2) {
		t.Fatal("scrub did not quarantine the damaged stripe")
	}
}
