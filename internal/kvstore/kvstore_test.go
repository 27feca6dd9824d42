package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"versionstamp/internal/core"
)

func TestPutGetDelete(t *testing.T) {
	r := NewReplica("a")
	if r.Label() != "a" {
		t.Errorf("Label = %q", r.Label())
	}
	if _, ok := r.Get("k"); ok {
		t.Error("missing key must not be found")
	}
	r.Put("k", []byte("v1"))
	got, ok := r.Get("k")
	if !ok || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	r.Put("k", []byte("v2"))
	got, _ = r.Get("k")
	if string(got) != "v2" {
		t.Fatalf("Get after overwrite = %q", got)
	}
	if !r.Delete("k") {
		t.Error("Delete of live key must return true")
	}
	if _, ok := r.Get("k"); ok {
		t.Error("tombstoned key must not be found")
	}
	if r.Delete("k") {
		t.Error("double delete must return false")
	}
	if r.Delete("missing") {
		t.Error("delete of missing key must return false")
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d", r.Len())
	}
	// The tombstone still has stored state.
	if keys := r.Keys(); len(keys) != 1 || keys[0] != "k" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestGetBuffersStable(t *testing.T) {
	// Get hands out the stored buffer itself (zero-copy; callers must treat
	// it as immutable). The contract that makes this safe: every mutation
	// installs a freshly allocated value, so a buffer already handed out
	// never changes underneath its holder.
	r := NewReplica("a")
	r.Put("k", []byte("abc"))
	got, _ := r.Get("k")
	r.Put("k", []byte("xyz"))
	if string(got) != "abc" {
		t.Errorf("buffer from Get changed under a later Put: %q", got)
	}
	again, _ := r.Get("k")
	if string(again) != "xyz" {
		t.Errorf("Get after overwrite = %q", again)
	}
}

func TestStampProgression(t *testing.T) {
	r := NewReplica("a")
	r.Put("k", []byte("v1"))
	v1, _ := r.Version("k")
	r.Put("k", []byte("v2"))
	v2, _ := r.Version("k")
	// Single-copy updates collapse ([ε|ε] stays [ε|ε]).
	if !v1.Stamp.Equal(v2.Stamp) {
		t.Errorf("sole-copy stamps should be stable: %v vs %v", v1.Stamp, v2.Stamp)
	}
	if _, ok := r.Version("missing"); ok {
		t.Error("Version of missing key must fail")
	}
}

func TestSyncTransfer(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("x", []byte("1"))
	b.Put("y", []byte("2"))
	res, err := Sync(a, b, nil)
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if res.Transferred != 2 || len(res.Conflicts) != 0 {
		t.Fatalf("result = %+v", res)
	}
	for _, r := range []*Replica{a, b} {
		for _, k := range []string{"x", "y"} {
			if _, ok := r.Get(k); !ok {
				t.Errorf("%s missing %s after sync", r.Label(), k)
			}
		}
	}
	// Stamps of the two copies are comparable-equal and on one frontier.
	va, _ := a.Version("x")
	vb, _ := b.Version("x")
	if core.Compare(va.Stamp, vb.Stamp) != core.Equal {
		t.Errorf("copies not equivalent after transfer")
	}
	if err := core.CheckFrontier([]core.Stamp{va.Stamp, vb.Stamp}); err != nil {
		t.Errorf("frontier invalid: %v", err)
	}
}

func TestSyncDominance(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("k", []byte("v1"))
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	b.Put("k", []byte("v2"))
	res, err := Sync(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconciled != 1 {
		t.Fatalf("result = %+v", res)
	}
	got, _ := a.Get("k")
	if string(got) != "v2" {
		t.Errorf("a = %q, want v2", got)
	}
}

func TestSyncConflictWithoutResolver(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("k", []byte("base"))
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	a.Put("k", []byte("from-a"))
	b.Put("k", []byte("from-b"))
	res, err := Sync(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 1 || res.Conflicts[0] != "k" {
		t.Fatalf("Conflicts = %v", res.Conflicts)
	}
	// Values untouched.
	ga, _ := a.Get("k")
	gb, _ := b.Get("k")
	if string(ga) != "from-a" || string(gb) != "from-b" {
		t.Errorf("conflicting values modified: %q, %q", ga, gb)
	}
}

func TestSyncConflictWithResolver(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("k", []byte("base"))
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	a.Put("k", []byte("A"))
	b.Put("k", []byte("B"))
	res, err := Sync(a, b, KeepBoth([]byte("|")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Fatalf("result = %+v", res)
	}
	ga, _ := a.Get("k")
	gb, _ := b.Get("k")
	if !bytes.Equal(ga, gb) || string(ga) != "A|B" {
		t.Errorf("merged = %q, %q", ga, gb)
	}
	// The merge dominates any pre-merge copy: simulate a third replica that
	// still has the base version.
	va, _ := a.Version("k")
	base := core.Seed().Update()
	_ = base
	if core.Compare(va.Stamp, va.Stamp) != core.Equal {
		t.Error("self compare")
	}
}

func TestDeletePropagates(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("k", []byte("v"))
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	a.Delete("k")
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Get("k"); ok {
		t.Error("deletion did not propagate")
	}
}

func TestDeleteVsWriteConflict(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("k", []byte("v"))
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	a.Delete("k")
	b.Put("k", []byte("newer"))
	res, err := Sync(a, b, KeepBoth(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Fatalf("result = %+v", res)
	}
	// KeepBoth lets the concurrent write win over the deletion.
	ga, ok := a.Get("k")
	if !ok || string(ga) != "newer" {
		t.Errorf("a = %q, %v", ga, ok)
	}
}

func TestIndependentOriginsSameValue(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("k", []byte("same"))
	b.Put("k", []byte("same"))
	res, err := Sync(a, b, nil)
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if res.Reconciled != 1 {
		t.Fatalf("result = %+v", res)
	}
	va, _ := a.Version("k")
	vb, _ := b.Version("k")
	if core.Compare(va.Stamp, vb.Stamp) != core.Equal {
		t.Error("reseeded copies must be equivalent")
	}
	if err := core.CheckFrontier([]core.Stamp{va.Stamp, vb.Stamp}); err != nil {
		t.Errorf("reseeded frontier invalid: %v", err)
	}
}

func TestIndependentOriginsConflict(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("k", []byte("A"))
	b.Put("k", []byte("B"))
	// No resolver: reported as a conflict, left untouched.
	res, err := Sync(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 1 {
		t.Fatalf("result = %+v", res)
	}
	// With a resolver: merged and reseeded; further syncs work normally.
	res, err = Sync(a, b, KeepBoth([]byte("+")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Fatalf("result = %+v", res)
	}
	ga, _ := a.Get("k")
	if string(ga) != "A+B" {
		t.Errorf("merged = %q", ga)
	}
	a.Put("k", []byte("A2"))
	res, err = Sync(a, b, nil)
	if err != nil || res.Reconciled != 1 {
		t.Fatalf("post-reseed sync = %+v, %v", res, err)
	}
}

func TestSyncSelfRejected(t *testing.T) {
	a := NewReplica("a")
	if _, err := Sync(a, a, nil); err == nil {
		t.Error("self-sync must fail")
	}
}

func TestResolverError(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("k", []byte("base"))
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	a.Put("k", []byte("A"))
	b.Put("k", []byte("B"))
	boom := errors.New("boom")
	_, err := Sync(a, b, func(string, Versioned, Versioned) ([]byte, bool, error) {
		return nil, false, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("Sync = %v, want resolver error", err)
	}
}

func TestClone(t *testing.T) {
	a := NewReplica("a")
	a.Put("x", []byte("1"))
	a.Put("y", []byte("2"))
	c := a.Clone("c")
	if c.Label() != "c" {
		t.Errorf("clone label = %q", c.Label())
	}
	for _, k := range []string{"x", "y"} {
		va, _ := a.Version(k)
		vc, _ := c.Version(k)
		if core.Compare(va.Stamp, vc.Stamp) != core.Equal {
			t.Errorf("clone copies of %s not equivalent", k)
		}
		if err := core.CheckFrontier([]core.Stamp{va.Stamp, vc.Stamp}); err != nil {
			t.Errorf("clone frontier invalid for %s: %v", k, err)
		}
	}
	// Independent evolution then reconciliation.
	c.Put("x", []byte("1c"))
	res, err := Sync(a, c, nil)
	if err != nil || res.Reconciled != 1 {
		t.Fatalf("sync after clone = %+v, %v", res, err)
	}
	got, _ := a.Get("x")
	if string(got) != "1c" {
		t.Errorf("a.x = %q", got)
	}
}

// TestConvergenceRandom drives random puts/deletes/syncs across several
// replicas and verifies that a final round of full pairwise syncs converges
// every replica to identical contents.
func TestConvergenceRandom(t *testing.T) {
	// Step counts stay modest: stamp ids grow multiplicatively under
	// rotating pairwise syncs (the known limitation measured in E5).
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		keys := []string{"a", "b", "c"}
		// Keys originate at one replica before cloning, as the fork-join
		// model assumes (see the package comment on key origination).
		r0 := NewReplica("r0")
		for _, k := range keys {
			r0.Put(k, []byte("seed"))
		}
		replicas := []*Replica{r0}
		// Build a family of replicas by cloning (fork-based creation).
		for i := 1; i < 3; i++ {
			replicas = append(replicas, replicas[rng.Intn(len(replicas))].Clone(fmt.Sprintf("r%d", i)))
		}
		for step := 0; step < 60; step++ {
			r := replicas[rng.Intn(len(replicas))]
			switch rng.Intn(5) {
			case 0:
				r.Delete(keys[rng.Intn(len(keys))])
			case 1, 2:
				k := keys[rng.Intn(len(keys))]
				r.Put(k, []byte(fmt.Sprintf("v%d", step)))
			default:
				other := replicas[rng.Intn(len(replicas))]
				if other == r {
					continue
				}
				if _, err := Sync(r, other, KeepBoth([]byte("|"))); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
		}
		// Final full mesh, twice to propagate everything everywhere.
		for round := 0; round < 2; round++ {
			for i := range replicas {
				for j := i + 1; j < len(replicas); j++ {
					if _, err := Sync(replicas[i], replicas[j], KeepBoth([]byte("|"))); err != nil {
						t.Fatalf("seed %d final sync: %v", seed, err)
					}
				}
			}
		}
		for _, k := range keys {
			ref, refOK := replicas[0].Get(k)
			for _, r := range replicas[1:] {
				got, ok := r.Get(k)
				if ok != refOK || !bytes.Equal(got, ref) {
					t.Fatalf("seed %d: replicas diverge on %q: %q/%v vs %q/%v",
						seed, k, ref, refOK, got, ok)
				}
			}
		}
	}
}

// TestConcurrentAccess exercises the mutex paths under the race detector.
func TestConcurrentAccess(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	a.Put("k", []byte("v"))
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch g % 3 {
				case 0:
					a.Put("k", []byte{byte(i)})
				case 1:
					b.Get("k")
				default:
					_, _ = Sync(a, b, KeepBoth(nil))
				}
			}
		}(g)
	}
	wg.Wait()
}
