package kvstore

import (
	"fmt"
	"testing"

	"versionstamp/internal/encoding"
)

// Performance acceptance for the interned stamp kernel on the store's
// hottest read path, the digest diff (DiffRanges). Its first implementation
// built two maps per call and compared slice-backed stamps; measured on the same converged
// 1000-key workload it cost 10 allocs/op and ~202 KB/op. The batched
// implementation over interned handles must beat that by at least 5x.

// preInterningDiffAllocs is the recorded pre-PR baseline: allocs/op of the
// digest diff over a converged 1000-key replica pair (go test -bench,
// 2026-07, this repository at PR 3).
const preInterningDiffAllocs = 10

// convergedDiffPair builds a server and, stripe by stripe, the digests of a
// converged clone.
func convergedDiffPair(tb testing.TB, keys int) (*Replica, [][]encoding.Digest) {
	server := NewReplica("server")
	for i := 0; i < keys; i++ {
		server.Put(fmt.Sprintf("key-%06d", i), []byte("value-with-some-padding"))
	}
	client := server.Clone("client")
	return server, stripeRuns(tb, client)
}

func TestDiffAgainstAllocBudget(t *testing.T) {
	server, digests := convergedDiffPair(t, 1000)
	if _, err := diffStripes(server, digests); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		d, err := diffStripes(server, digests)
		if err != nil || len(d.Need) != 0 || d.Equivalent != 1000 {
			t.Fatalf("diff = %+v, err %v", d, err)
		}
	})
	budget := float64(preInterningDiffAllocs) / 5
	if allocs > budget {
		t.Errorf("converged DiffRanges allocates %.1f/op; budget is %.1f (pre-interning baseline %d / 5)",
			allocs, budget, preInterningDiffAllocs)
	}
	t.Logf("converged 1000-key DiffRanges: %.1f allocs/op (pre-interning baseline %d)",
		allocs, preInterningDiffAllocs)
}

func BenchmarkDiffAgainstConverged(b *testing.B) {
	server, digests := convergedDiffPair(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diffStripes(server, digests); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffAgainstDivergent(b *testing.B) {
	server, digests := convergedDiffPair(b, 1000)
	for i := 0; i < 1000; i += 100 {
		server.Put(fmt.Sprintf("key-%06d", i), []byte("edited"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diffStripes(server, digests); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDiffAgainstDuplicateDigestKeys: a malformed peer digest listing a key
// twice must not duplicate it in Need (nor corrupt the counters).
func TestDiffAgainstDuplicateDigestKeys(t *testing.T) {
	server := NewReplica("server")
	server.Put("known", []byte("v"))
	client := server.Clone("client")
	client.Put("known", []byte("edited")) // client dominates
	digest := client.Digest()
	dup := append(append([]encoding.Digest(nil), digest...), digest...)
	dup = append(dup, encoding.Digest{Key: "unknown", Stamp: digest[0].Stamp})
	dup = append(dup, encoding.Digest{Key: "unknown", Stamp: digest[0].Stamp})
	byStripe := make([][]encoding.Digest, server.Shards())
	for _, d := range dup {
		i := ShardIndex(d.Key, server.Shards())
		byStripe[i] = append(byStripe[i], d)
	}
	d, err := diffStripes(server, byStripe)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Need) != 2 || d.Need[0] != "known" || d.Need[1] != "unknown" {
		t.Errorf("Need = %v, want [known unknown] exactly once each", d.Need)
	}
	if d.LocalOnly != 0 {
		t.Errorf("LocalOnly = %d, want 0", d.LocalOnly)
	}
}

// warmedSingleStripe builds a one-stripe replica of n forked keys (so every
// first Put of a key moves its update component) whose digest tree has been
// asked for once, and returns it with its keys.
func warmedSingleStripe(tb testing.TB, n int) (*Replica, []string) {
	tb.Helper()
	r := NewReplicaShards("r", 1)
	keys := make([]string, n)
	batch := make(map[string][]byte, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%07d", i)
		batch[keys[i]] = []byte("value")
	}
	r.PutBatch(batch)
	_ = r.Clone("peer")
	if _, err := r.StripeTree(0); err != nil {
		tb.Fatal(err)
	}
	return r, keys
}

// stripeTreeAfterOneWriteBudget bounds the allocations of one Put plus the
// tree request that folds it in: the value copy and dirty note of the Put,
// then one leaf run, one child slice per level of the path and the new tree
// header. A constant: what it must never be is proportional to the stripe.
const stripeTreeAfterOneWriteBudget = 16

// TestStripeTreeAfterOneWriteAllocBudget is the counted gate for "O(dirty),
// not O(stripe)": the same budget holds at 10 000 and at 100 000 keys.
func TestStripeTreeAfterOneWriteAllocBudget(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		r, keys := warmedSingleStripe(t, n)
		value := []byte("edited")
		next := 0
		allocs := testing.AllocsPerRun(50, func() {
			r.Put(keys[next], value)
			next += 97
			before := r.shards[0].tree
			tr, err := r.StripeTree(0)
			if err != nil || tr == before || tr.leafHashes != before.leafHashes+1 {
				t.Fatalf("one Put: tree %p (was %p), err %v", tr, before, err)
			}
		})
		t.Logf("%d keys, depth %d: one Put + StripeTree = %.1f allocs", n, r.shards[0].tree.Depth(), allocs)
		if allocs > stripeTreeAfterOneWriteBudget {
			t.Errorf("%d keys: one Put + StripeTree allocates %.1f/op; budget is %d",
				n, allocs, stripeTreeAfterOneWriteBudget)
		}
	}
}

// BenchmarkStripeTreeAfterOneWrite records what a root check costs a 100k-key
// stripe after a single write — the hot1 round's store half. Not gated.
func BenchmarkStripeTreeAfterOneWrite(b *testing.B) {
	r, keys := warmedSingleStripe(b, 100_000)
	value := []byte("edited")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Put(keys[i%len(keys)], value)
		if _, err := r.StripeTree(0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSyncKeyConvergedAllocs: a SyncKey over a key both replicas already hold
// equivalent copies of — what each owner of each quorum write sees once the
// key has propagated — takes two stripe locks in replica order, compares two
// stamps and allocates nothing; ordering the locks must not cost a formatted
// pointer.
func TestSyncKeyConvergedAllocs(t *testing.T) {
	a := NewReplica("a")
	a.Put("k", []byte("v"))
	b := a.Clone("b")
	for _, pair := range [][2]*Replica{{a, b}, {b, a}} {
		allocs := testing.AllocsPerRun(100, func() {
			res, err := SyncKey(pair[0], pair[1], "k", nil)
			if err != nil || res.Transferred+res.Reconciled+res.Merged != 0 {
				t.Fatalf("converged SyncKey: %+v, %v", res, err)
			}
		})
		if allocs != 0 {
			t.Errorf("converged SyncKey(%s, %s) allocates %.1f/op, want 0",
				pair[0].Label(), pair[1].Label(), allocs)
		}
	}
}

// deltaPairOneKeyBudget bounds one leaf phase over a one-key divergence: the
// peer's write and the leaf run it ships, DiffRanges, ApplyDeltaRanges (the
// reconcile, its log record and reply entry) and the tree patch that follows.
// A constant: the walk takes the in-range keys off the stripe's digest tree,
// so nothing in it may grow with the stripe.
const deltaPairOneKeyBudget = 40

// TestDeltaPairOneKeyAllocBudget is the counted gate for "the store side of
// a round scans only the divergent ranges": the same budget holds at 10 000
// and at 100 000 keys.
func TestDeltaPairOneKeyAllocBudget(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		a, keys := warmedSingleStripe(t, n)
		b := a.Clone("peer")
		next := 0
		allocs := testing.AllocsPerRun(50, func() {
			k := keys[next]
			next += 97
			b.Put(k, []byte("edited"))
			tb, err := b.StripeTree(0)
			if err != nil {
				t.Fatal(err)
			}
			shift := uint(64 - tb.Depth()*encoding.TreeFanoutBits(tb.Fanout()))
			rg := NodeRange(tb.Fanout(), tb.Depth(), encoding.TreePos(k)>>shift)
			ranges := []TreeRange{rg}
			digest := tb.RunRange(rg)
			diff, err := a.DiffRanges(digest, 0, ranges)
			if err != nil || len(diff.Need) != 1 {
				t.Fatalf("diff over one written key: %+v, %v", diff, err)
			}
			v, _ := b.Version(k)
			entries := []encoding.Entry{{Key: k, Value: v.Value, Stamp: v.Stamp}}
			reply, res, err := a.ApplyDeltaRanges(DeltaReply{}, digest, entries, nil, 0, ranges)
			if err != nil || res.Reconciled != 1 || reply.Len() != 1 {
				t.Fatalf("apply over one written key: %+v, %d reply copies, %v", res, reply.Len(), err)
			}
		})
		t.Logf("%d keys: one-key DiffRanges + ApplyDeltaRanges = %.1f allocs", n, allocs)
		if allocs > deltaPairOneKeyBudget {
			t.Errorf("%d keys: one-key leaf phase allocates %.1f/op; budget is %d",
				n, allocs, deltaPairOneKeyBudget)
		}
	}
}
