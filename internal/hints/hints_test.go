package hints

import (
	"path/filepath"
	"reflect"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/storage"
	"versionstamp/internal/storage/wal"
)

func mkHint(target, key, val string) Hint {
	return Hint{Target: target, Key: key, Value: []byte(val), Stamp: core.Seed().Update()}
}

func TestAddTakeFIFO(t *testing.T) {
	q, err := Open(storage.NewMemory(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []Hint{mkHint("b", "k1", "v1"), mkHint("b", "k2", "v2"), mkHint("c", "k3", "v3")} {
		if err := q.Add(h); err != nil {
			t.Fatal(err)
		}
	}
	if q.Len() != 3 || q.Pending("b") != 2 || q.Pending("c") != 1 {
		t.Fatalf("Len=%d Pending(b)=%d Pending(c)=%d", q.Len(), q.Pending("b"), q.Pending("c"))
	}
	if got := q.Targets(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("Targets = %v", got)
	}
	hs, err := q.Take("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 2 || hs[0].Key != "k1" || hs[1].Key != "k2" {
		t.Fatalf("Take(b) = %+v", hs)
	}
	if q.Len() != 1 || q.Pending("b") != 0 {
		t.Fatalf("after take: Len=%d Pending(b)=%d", q.Len(), q.Pending("b"))
	}
	if hs, _ := q.Take("b"); hs != nil {
		t.Fatalf("second take returned %v", hs)
	}
}

func TestAddValidation(t *testing.T) {
	q, _ := Open(storage.NewMemory(), Options{})
	if err := q.Add(Hint{Target: "", Key: "k"}); err == nil {
		t.Fatal("empty target should error")
	}
	if err := q.Add(Hint{Target: "a\x00b", Key: "k"}); err == nil {
		t.Fatal("NUL in target should error")
	}
	if err := q.Add(Hint{Target: "a", Key: "k\x00x"}); err == nil {
		t.Fatal("NUL in key should error")
	}
}

func TestRequeue(t *testing.T) {
	q, _ := Open(storage.NewMemory(), Options{})
	h := mkHint("b", "k", "v")
	if err := q.Add(h); err != nil {
		t.Fatal(err)
	}
	hs, err := q.Take("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Requeue(hs); err != nil {
		t.Fatal(err)
	}
	if q.Pending("b") != 1 {
		t.Fatalf("Pending(b) = %d after requeue", q.Pending("b"))
	}
}

// A queue over the WAL backend survives close/reopen with hints, stamps and
// order intact, and a Take's checkpoint is equally durable.
func TestDurableAcrossReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hints")
	open := func() *Queue {
		be, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		q, err := Open(be, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	q := open()
	stamps := make(map[string]core.Stamp)
	for _, h := range []Hint{mkHint("b", "k1", "v1"), mkHint("c", "k2", "v2"), mkHint("b", "k3", "v3")} {
		stamps[h.Key] = h.Stamp
		if err := q.Add(h); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstone hint too.
	if err := q.Add(Hint{Target: "b", Key: "k4", Deleted: true, Stamp: core.Seed().Update()}); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q = open()
	if q.Len() != 4 || q.Pending("b") != 3 || q.Pending("c") != 1 {
		t.Fatalf("after reopen: Len=%d b=%d c=%d", q.Len(), q.Pending("b"), q.Pending("c"))
	}
	hs, err := q.Take("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 3 || hs[0].Key != "k1" || hs[1].Key != "k3" || !hs[2].Deleted {
		t.Fatalf("Take(b) after reopen = %+v", hs)
	}
	for _, h := range hs[:2] {
		if core.Compare(h.Stamp, stamps[h.Key]) != core.Equal {
			t.Fatalf("stamp of %s changed across reopen", h.Key)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// The drain checkpointed: reopening must not resurrect b's hints.
	q = open()
	if q.Pending("b") != 0 || q.Pending("c") != 1 {
		t.Fatalf("after drain+reopen: b=%d c=%d", q.Pending("b"), q.Pending("c"))
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCapDropsOldest(t *testing.T) {
	q, err := Open(storage.NewMemory(), Options{CapPerTarget: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := q.Add(mkHint("b", string(rune('a'+i)), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if q.Pending("b") != 3 || q.Len() != 3 {
		t.Fatalf("Pending(b)=%d Len=%d, want 3", q.Pending("b"), q.Len())
	}
	if q.Dropped() != 7 {
		t.Fatalf("Dropped=%d, want 7", q.Dropped())
	}
	hs, err := q.Take("b")
	if err != nil {
		t.Fatal(err)
	}
	// The newest 3 survive, in Add order.
	if len(hs) != 3 || hs[0].Key != "h" || hs[1].Key != "i" || hs[2].Key != "j" {
		t.Fatalf("Take(b) = %+v", hs)
	}
	// Other targets are unaffected by b's overflow.
	if err := q.Add(mkHint("c", "x", "v")); err != nil {
		t.Fatal(err)
	}
	if q.Pending("c") != 1 {
		t.Fatalf("Pending(c)=%d", q.Pending("c"))
	}
}

func TestCapAppliesOnReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hints")
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := Open(w, Options{}) // unbounded writer
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := q.Add(mkHint("b", string(rune('a'+i)), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen capped: replay must trim to the newest 4.
	w, err = wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, err = Open(w, Options{CapPerTarget: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.Pending("b") != 4 {
		t.Fatalf("Pending(b)=%d after capped replay, want 4", q.Pending("b"))
	}
	hs, err := q.Take("b")
	if err != nil {
		t.Fatal(err)
	}
	if hs[0].Key != "g" || hs[3].Key != "j" {
		t.Fatalf("capped replay kept %+v", hs)
	}
}
