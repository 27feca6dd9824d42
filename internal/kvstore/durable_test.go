package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"versionstamp/internal/storage"
	"versionstamp/internal/storage/faultfs"
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
	r.DeleteBatch([]string{"d", "never-seen"})

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
// sequence against a single-stripe durable replica, the WAL hard-cut at a
// random byte offset, and the reopened store must equal the state after
// some prefix of the applied ops — never a mix, never garbage — and still
// converge with a live peer through tier-1 Sync.
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
			r, err := Open(dir, Options{Label: "crash", Shards: 1})
			if err != nil {
				t.Fatal(err)
			}

			key := func() string { return fmt.Sprintf("key-%d", rng.Intn(12)) }
			// prefixes[i] is the state after i ops.
			prefixes := []map[string]string{stateOf(r)}
			var peer *Replica
			nOps := 10 + rng.Intn(40)
			cloneAt := rng.Intn(nOps)
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
			}
			if err := r.PersistErr(); err != nil {
				t.Fatal(err)
			}
			if err := r.Abandon(); err != nil { // crash: no checkpoint
				t.Fatal(err)
			}

			// Hard-cut the single stripe's log at a random offset.
			path := filepath.Join(dir, "shard-0000.wal")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Intn(len(data) + 1)
			if err := os.Truncate(path, int64(cut)); err != nil {
				t.Fatal(err)
			}

			reopened, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after cut at %d/%d: %v", cut, len(data), err)
			}
			defer reopened.Close()
			got := stateOf(reopened)
			matched := -1
			for i, want := range prefixes {
				if sameState(got, want) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Fatalf("cut at %d/%d: reopened state %v is no prefix of the op sequence",
					cut, len(data), got)
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

// TestAdoptDurable covers the wholesale path: Adopt must persist the
// replacement, including the implied clearing of dropped keys.
func TestAdoptDurable(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	r.Put("stale", []byte("x"))

	donor := NewReplicaShards("donor", 4)
	donor.Put("fresh", []byte("y"))
	snap, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Adopt(snap); err != nil {
		t.Fatal(err)
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
	if _, ok := reopened.Get("stale"); ok {
		t.Fatal("adopt-dropped key survived restart")
	}
	if _, ok := reopened.Get("fresh"); !ok {
		t.Fatal("adopted key lost on restart")
	}
}

// TestMemoryBackendMatchesWAL runs the same mutations against a Memory
// backend to keep both implementations honest about the Backend contract.
func TestMemoryBackendMatchesWAL(t *testing.T) {
	be := storage.NewMemory()
	r, err := OpenBackend(be, "mem", 4)
	if err != nil {
		t.Fatal(err)
	}
	r.Put("a", []byte("1"))
	r.Delete("a")
	r.Put("b", []byte("2"))
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r.Put("c", []byte("3"))

	reopened, err := OpenBackend(be, "mem", 4)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualStamps(t, r, reopened)
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
	var ce *storage.CorruptError
	if err := r2.QuarantineErr(1); !errors.As(err, &ce) {
		t.Fatalf("QuarantineErr(1) = %v, want *storage.CorruptError", err)
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
