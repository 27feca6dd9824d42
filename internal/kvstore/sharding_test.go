package kvstore

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"versionstamp/internal/core"
)

func TestShardIndexStable(t *testing.T) {
	for _, n := range []int{1, 2, 8, 32} {
		for _, k := range []string{"", "a", "cart:42", "some/long/path.txt"} {
			i := ShardIndex(k, n)
			if i < 0 || i >= n {
				t.Fatalf("ShardIndex(%q, %d) = %d out of range", k, n, i)
			}
			if j := ShardIndex(k, n); j != i {
				t.Fatalf("ShardIndex(%q, %d) unstable: %d then %d", k, n, i, j)
			}
		}
	}
	if ShardIndex("k", 0) != 0 || ShardIndex("k", -3) != 0 {
		t.Error("degenerate shard counts must map to shard 0")
	}
	// The partition is FNV-1a 32 modulo n, and a key's bytes land where the
	// key does.
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%d/%x", i, i*7919)
		h := fnv.New32a()
		_, _ = h.Write([]byte(k))
		for _, n := range []int{2, 7, 32} {
			want := int(h.Sum32() % uint32(n))
			if got := ShardIndex(k, n); got != want {
				t.Fatalf("ShardIndex(%q, %d) = %d, want FNV-1a's %d", k, n, got, want)
			}
			if got := ShardIndex([]byte(k), n); got != want {
				t.Fatalf("ShardIndex([]byte(%q), %d) = %d, want %d", k, n, got, want)
			}
		}
	}
}

func TestNewReplicaShardsClamps(t *testing.T) {
	r := NewReplicaShards("r", 0)
	if r.Shards() != 1 {
		t.Fatalf("Shards() = %d, want clamp to 1", r.Shards())
	}
	r.Put("k", []byte("v"))
	if got, ok := r.Get("k"); !ok || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

func TestBatchOps(t *testing.T) {
	r := NewReplicaShards("r", 8)
	entries := map[string][]byte{}
	keys := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		entries[k] = []byte(fmt.Sprintf("val-%d", i))
		keys = append(keys, k)
	}
	r.PutBatch(entries)
	if r.Len() != 100 {
		t.Fatalf("Len = %d after PutBatch", r.Len())
	}
	for k, v := range entries {
		if got, ok := r.Get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %q, %v; want %q", k, got, ok, v)
		}
	}
	if got, ok := r.Get("missing"); ok {
		t.Fatalf("Get(missing) = %q, true", got)
	}
	// Read buffers are immutable views: a later overwrite installs a fresh
	// buffer rather than mutating the handed-out one.
	before, _ := r.Get(keys[0])
	r.Put(keys[0], []byte("overwritten"))
	if !bytes.Equal(before, entries[keys[0]]) {
		t.Error("Get buffer changed under a later Put")
	}
	r.Put(keys[0], entries[keys[0]])
	deleted := func() (n int) {
		for _, k := range keys[:40] {
			if r.Delete(k) {
				n++
			}
		}
		return n
	}
	if n := deleted(); n != 40 {
		t.Fatalf("deleted %d keys, want 40", n)
	}
	if n := deleted(); n != 0 {
		t.Fatalf("repeated deletes hit %d keys, want 0", n)
	}
	if r.Len() != 60 {
		t.Fatalf("Len = %d after deletes", r.Len())
	}
	// Batched writes carry stamps exactly like point writes.
	v, ok := r.Version(keys[50])
	if !ok || v.Stamp.IsZero() {
		t.Fatalf("Version after PutBatch = %+v, %v", v, ok)
	}
}

func TestPutVersionStoresVerbatim(t *testing.T) {
	r := NewReplica("r")
	st := core.Seed().Update()
	r.PutVersion("k", Versioned{Value: []byte("v"), Stamp: st})
	v, ok := r.Version("k")
	if !ok || !v.Stamp.Equal(st) || string(v.Value) != "v" {
		t.Fatalf("Version = %+v, %v", v, ok)
	}
}

// applyScript drives an identical randomized workload (batched and point
// puts, deletes, syncs) against one pair of replicas. Keys originate at a
// before the first sync, as the fork-join model assumes.
func applyScript(t *testing.T, seed int64, a, b *Replica) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, 12)
	seedBatch := map[string][]byte{}
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		seedBatch[keys[i]] = []byte("seed")
	}
	a.PutBatch(seedBatch)
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 80; step++ {
		r := a
		if rng.Intn(2) == 1 {
			r = b
		}
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(6) {
		case 0:
			r.Delete(k)
		case 1:
			r.Delete(k)
			r.Delete(keys[rng.Intn(len(keys))])
		case 2:
			r.PutBatch(map[string][]byte{k: []byte(fmt.Sprintf("b%d", step))})
		case 3, 4:
			r.Put(k, []byte(fmt.Sprintf("v%d", step)))
		default:
			if _, err := Sync(a, b, KeepBoth([]byte("|"))); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}
	}
	for round := 0; round < 2; round++ {
		if _, err := Sync(a, b, KeepBoth([]byte("|"))); err != nil {
			t.Fatalf("seed %d final sync: %v", seed, err)
		}
	}
}

// TestShardedMatchesSingleLockReference is the property test for the
// striped engine: the same randomized workload run against a sharded pair
// and against a single-shard pair (the seed's one-lock design) must
// converge to identical contents — sharding changes locking granularity,
// never merge semantics.
func TestShardedMatchesSingleLockReference(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		sa, sb := NewReplicaShards("sa", 8), NewReplicaShards("sb", 8)
		ra, rb := NewReplicaShards("ra", 1), NewReplicaShards("rb", 1)
		applyScript(t, seed, sa, sb)
		applyScript(t, seed, ra, rb)

		refKeys := ra.Keys()
		gotKeys := sa.Keys()
		if fmt.Sprint(refKeys) != fmt.Sprint(gotKeys) {
			t.Fatalf("seed %d: key sets differ: %v vs %v", seed, refKeys, gotKeys)
		}
		for _, k := range refKeys {
			ref, refOK := ra.Get(k)
			got, gotOK := sa.Get(k)
			if refOK != gotOK || !bytes.Equal(ref, got) {
				t.Fatalf("seed %d key %q: sharded %q/%v vs reference %q/%v",
					seed, k, got, gotOK, ref, refOK)
			}
			// And the sharded pair itself converged.
			gb, okB := sb.Get(k)
			if okB != gotOK || !bytes.Equal(gb, got) {
				t.Fatalf("seed %d key %q: sharded pair diverged: %q/%v vs %q/%v",
					seed, k, got, gotOK, gb, okB)
			}
		}
	}
}

// TestSyncMixedShardCounts: Sync refuses replicas with different stripe
// counts, and neither side changes.
func TestSyncMixedShardCounts(t *testing.T) {
	a, b := NewReplicaShards("a", 8), NewReplicaShards("b", 3)
	for i := 0; i < 40; i++ {
		a.Put(fmt.Sprintf("key-%02d", i), []byte("v"))
	}
	b.Put("key-00", []byte("newer"))
	b.Put("only-b", []byte("x"))
	beforeA, beforeB := storedCopies(a), storedCopies(b)
	for _, pair := range [][2]*Replica{{a, b}, {b, a}} {
		res, err := Sync(pair[0], pair[1], KeepBoth(nil))
		if err == nil {
			t.Fatalf("Sync(%s, %s) across stripe layouts succeeded: %+v", pair[0].Label(), pair[1].Label(), res)
		}
		for _, n := range []string{"8", "3"} {
			if !strings.Contains(err.Error(), n) {
				t.Errorf("error %q does not name the stripe count %s", err, n)
			}
		}
	}
	if !sameCopies(storedCopies(a), beforeA) || !sameCopies(storedCopies(b), beforeB) {
		t.Fatal("a refused Sync changed a replica")
	}
}

// storedCopies captures every copy r stores, tombstones included: value,
// tombstone flag and full stamp, by key.
func storedCopies(r *Replica) map[string]Versioned {
	out := make(map[string]Versioned)
	for _, k := range r.Keys() {
		if v, ok := r.Version(k); ok {
			out[k] = v
		}
	}
	return out
}

// sameCopies reports whether two captures hold the same keys with the same
// values, tombstone flags and stamps — the same ids, not merely stamps that
// compare Equal.
func sameCopies(a, b map[string]Versioned) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.Deleted != vb.Deleted || !bytes.Equal(va.Value, vb.Value) || !va.Stamp.Equal(vb.Stamp) {
			return false
		}
	}
	return true
}

// TestConcurrentShardedAccess hammers every public operation — point ops,
// batches, whole-replica reads and striped syncs — from parallel goroutines
// under the race detector.
func TestConcurrentShardedAccess(t *testing.T) {
	a, b := NewReplica("a"), NewReplica("b")
	seedBatch := map[string][]byte{}
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		seedBatch[keys[i]] = []byte("seed")
	}
	a.PutBatch(seedBatch)
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				k := keys[rng.Intn(len(keys))]
				switch g % 6 {
				case 0:
					a.Put(k, []byte{byte(i)})
				case 1:
					b.PutBatch(map[string][]byte{k: {byte(i)}, keys[rng.Intn(len(keys))]: {1}})
				case 2:
					for _, k := range keys {
						a.Get(k)
					}
					b.Get(k)
				case 3:
					a.Delete(k)
					b.Delete(keys[0])
					b.Delete(keys[1])
				case 4:
					storedCopies(a)
					a.Len()
					b.Keys()
				default:
					if _, err := Sync(a, b, KeepBoth(nil)); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// The stores are still coherent: a final resolved sync converges them.
	for round := 0; round < 2; round++ {
		if _, err := Sync(a, b, KeepBoth(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range a.Keys() {
		va, okA := a.Get(k)
		vb, okB := b.Get(k)
		if okA != okB || !bytes.Equal(va, vb) {
			t.Fatalf("diverged on %q after concurrent traffic", k)
		}
	}
}

// TestConcurrentOverlappingSyncs runs striped syncs of overlapping replica
// pairs in parallel, in both argument orders — the deadlock scenario the
// global lock order exists for.
func TestConcurrentOverlappingSyncs(t *testing.T) {
	r0 := NewReplica("r0")
	for i := 0; i < 20; i++ {
		r0.Put(fmt.Sprintf("key-%02d", i), []byte("seed"))
	}
	r1 := r0.Clone("r1")
	r2 := r0.Clone("r2")
	pairs := [][2]*Replica{{r0, r1}, {r1, r2}, {r2, r0}, {r1, r0}, {r0, r2}}
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := pairs[(g+i)%len(pairs)]
				if _, err := Sync(p[0], p[1], KeepBoth(nil)); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
}
