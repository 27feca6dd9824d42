package faultfs

import (
	"errors"
	"os"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/storage/wal"
)

func rec(key, value string) encoding.Entry {
	return encoding.Entry{Key: key, Value: []byte(value), Stamp: core.Seed().Update()}
}

// TestDeterministicDecisions runs the same fault schedule twice and demands
// an identical ledger — the chaosnet property, on disk.
func TestDeterministicDecisions(t *testing.T) {
	run := func() Stats {
		in := New(42, Faults{AppendErrProb: 0.2, ShortWriteProb: 0.1, SyncErrProb: 0.05, CheckpointErrProb: 0.3})
		frame := make([]byte, 48)
		for shard := 0; shard < 4; shard++ {
			for i := 0; i < 200; i++ {
				_, _ = in.Append(shard, frame)
				_ = in.Sync(shard)
			}
			_ = in.Checkpoint(shard, nil)
		}
		return in.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different ledgers:\n%+v\n%+v", a, b)
	}
	if a.AppendErrs == 0 || a.ShortWrites == 0 || a.SyncErrs == 0 {
		t.Fatalf("schedule injected nothing: %+v", a)
	}
	c := New(43, Faults{AppendErrProb: 0.2, ShortWriteProb: 0.1})
	frame := make([]byte, 48)
	diff := false
	inA := New(42, Faults{AppendErrProb: 0.2, ShortWriteProb: 0.1})
	for i := 0; i < 100; i++ {
		na, ea := inA.Append(0, frame)
		nc, ec := c.Append(0, frame)
		if na != nc || (ea == nil) != (ec == nil) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// TestShardStreamsIndependent checks a shard's fault stream does not depend
// on how often other shards were consulted — the per-(shard,op) sequence
// counters at work.
func TestShardStreamsIndependent(t *testing.T) {
	frame := make([]byte, 32)
	solo := New(7, Faults{AppendErrProb: 0.3})
	var a []bool
	for i := 0; i < 50; i++ {
		_, err := solo.Append(1, frame)
		a = append(a, err != nil)
	}
	mixed := New(7, Faults{AppendErrProb: 0.3})
	var b []bool
	for i := 0; i < 50; i++ {
		_, _ = mixed.Append(0, frame) // interleaved traffic on another shard
		_, err := mixed.Append(1, frame)
		b = append(b, err != nil)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard 1 decision %d changed with shard 0 traffic", i)
		}
	}
}

// TestNoSpaceBudget exhausts the byte budget and asserts ErrNoSpace.
func TestNoSpaceBudget(t *testing.T) {
	in := New(1, Faults{NoSpaceAfterBytes: 100})
	frame := make([]byte, 40)
	if _, err := in.Append(0, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Append(0, frame); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Append(0, frame); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-budget append = %v, want ErrNoSpace", err)
	}
	if !errors.Is(ErrNoSpace, ErrInjected) {
		t.Fatal("ErrNoSpace must wrap ErrInjected")
	}
	in.SetFaults(Faults{}) // budget lifted: appends flow again
	if _, err := in.Append(0, frame); err != nil {
		t.Fatalf("post-heal append = %v", err)
	}
}

// TestInjectedNoSpaceRollsBackWAL is the satellite regression: an injected
// ENOSPC short write against a real WAL must trigger the rollback, leave
// the log clean, and a truncation failure must latch the shard until a
// checkpoint heals it.
func TestInjectedNoSpaceRollsBackWAL(t *testing.T) {
	dir := t.TempDir()
	in := New(99, Faults{ShortWriteProb: 1}) // every append lands short
	w, err := wal.Open(dir, wal.Options{Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, rec("a", "1")); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append under full disk = %v, want ErrNoSpace", err)
	}
	if in.Stats().ShortWrites == 0 {
		t.Fatal("short write not recorded")
	}
	// Disk pressure clears: the rolled-back log must accept clean appends.
	in.SetFaults(Faults{})
	if err := w.Append(0, rec("a", "2")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen after rollback: %v", err)
	}
	var recs []encoding.Entry
	if err := w2.ReplayShard(0, nil, func(e encoding.Entry) error { recs = append(recs, e); return nil }); err != nil {
		t.Fatalf("replay after rollback: %v", err)
	}
	if len(recs) != 1 || string(recs[0].Value) != "2" {
		t.Fatalf("records after rollback = %+v, want just value 2", recs)
	}
	w2.Close()

	// Now the unremovable case: short write AND failed rollback latch the
	// shard; a later checkpoint heals the latch.
	dir2 := t.TempDir()
	in2 := New(99, Faults{ShortWriteProb: 1, TruncFailProb: 1})
	w3, err := wal.Open(dir2, wal.Options{Fault: in2})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if err := w3.Append(0, rec("a", "1")); err == nil {
		t.Fatal("short write with failed rollback must error")
	}
	in2.SetFaults(Faults{})
	if err := w3.Append(0, rec("a", "2")); err == nil {
		t.Fatal("latched shard accepted an append")
	}
	if err := w3.Checkpoint(0, []byte("healed")); err != nil {
		t.Fatal(err)
	}
	if err := w3.Append(0, rec("a", "3")); err != nil {
		t.Fatalf("append after healing checkpoint: %v", err)
	}
}

// TestFlipLogByteQuarantines corrupts a frame at rest and asserts the next
// open quarantines exactly that shard at the flipped offset.
func TestFlipLogByteQuarantines(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(3, rec("k", "vvvv")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(1, rec("other", "x")); err != nil {
		t.Fatal(err)
	}
	w.Close()

	off1, err := FlipLogByte(dir, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if shard, ok := BusiestShard(dir, 8); !ok || shard != 3 {
		t.Fatalf("BusiestShard = %d,%v, want 3", shard, ok)
	}

	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("open after flip: %v", err)
	}
	q := w2.Quarantined()
	ce := q[3]
	if len(q) != 1 || ce == nil {
		t.Fatalf("Quarantined = %v, want shard 3 only", q)
	}
	if ce.Path != wal.LogPath(dir, 3) || ce.Offset < 0 || ce.Offset > off1 {
		t.Fatalf("damage report %+v does not cover flipped offset %d", ce, off1)
	}
	// Healthy shard unaffected.
	if err := w2.VerifyShard(1); err != nil {
		t.Fatalf("VerifyShard(1) = %v", err)
	}
	w2.Close()

	// Determinism: the same seed flips the same byte in a fresh copy.
	dir2 := t.TempDir()
	w3, err := wal.Open(dir2, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w3.Append(3, rec("k", "vvvv")); err != nil {
			t.Fatal(err)
		}
	}
	w3.Close()
	off2, err := FlipLogByte(dir2, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != off2 {
		t.Fatalf("same seed flipped different offsets: %d vs %d", off1, off2)
	}
}

// TestCorruptCheckpointDetected damages a checkpoint at rest — a bare
// snapshot, and one followed by two folds — and asserts the scrub catches
// every seed's flip, wherever it lands: header, snapshot, or any byte of
// any fold frame, the last one included.
func TestCorruptCheckpointDetected(t *testing.T) {
	for _, folds := range []int{0, 2} {
		dir := t.TempDir()
		w, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Checkpoint(2, make([]byte, 300)); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < folds; f++ {
			for _, k := range []string{"a", "b", "c"} {
				if err := w.Append(2, rec(k, "vvvv")); err != nil {
					t.Fatal(err)
				}
			}
			if ok, err := w.Fold(2); !ok || err != nil {
				t.Fatalf("Fold = %v, %v", ok, err)
			}
		}
		w.Close()
		clean, err := os.ReadFile(wal.CheckpointPath(dir, 2))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 80; seed++ {
			if err := os.WriteFile(wal.CheckpointPath(dir, 2), clean, 0o644); err != nil {
				t.Fatal(err)
			}
			off, err := CorruptCheckpoint(dir, 2, seed)
			if err != nil {
				t.Fatal(err)
			}
			w, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var ce *wal.CorruptError
			if err := w.VerifyShard(2); !errors.As(err, &ce) || ce.Shard != 2 {
				t.Fatalf("%d folds, seed %d, byte %d: VerifyShard = %v, want *wal.CorruptError for shard 2",
					folds, seed, off, err)
			}
			w.Close()
		}
	}
}
