package kvstore

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"versionstamp/internal/encoding"
	"versionstamp/internal/storage/wal"
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

// TestDiffAgainstDuplicateDigestKeys: the delta calls take a peer's runs in
// strict tree order, as the wire decoder delivers them, and refuse anything
// else: a key twice, digests or entries out of tree order, runs out of
// position order.
func TestDiffAgainstDuplicateDigestKeys(t *testing.T) {
	server := NewReplicaShards("server", 1)
	server.Put("known", []byte("v"))
	server.Put("other", []byte("v"))
	client := server.Clone("client")
	client.Put("known", []byte("edited")) // client dominates
	digest := stripeTreeRun(t, client, 0)
	entries := entriesFor(client, []string{digest[0].Key, digest[1].Key})
	for name, ds := range map[string][]encoding.Digest{
		"a key twice":         {digest[0], digest[0], digest[1]},
		"out of tree order":   {digest[1], digest[0]},
		"a key twice, at end": {digest[0], digest[1], digest[1]},
	} {
		if d, err := server.DiffRanges(wholeStripe(ds), 0); err == nil {
			t.Errorf("%s: DiffRanges accepted the run: %+v", name, d)
		}
		if _, _, err := server.ApplyDeltaRanges(DeltaReply{}, wholeStripe(ds), nil, nil, 0); err == nil {
			t.Errorf("%s: ApplyDeltaRanges accepted the run", name)
		}
	}
	twice := []encoding.Entry{entries[0], entries[0]}
	if _, _, err := server.ApplyDeltaRanges(DeltaReply{}, wholeStripe(digest), twice, nil, 0); err == nil {
		t.Error("ApplyDeltaRanges accepted an entry twice")
	}
	// Runs must come in position order.
	if _, err := server.DiffRanges([]DigestRun{{Range: NodeRange(1, 1)}, {Range: NodeRange(1, 0)}}, 0); err == nil {
		t.Error("DiffRanges accepted runs out of position order")
	}
	d, err := server.DiffRanges(wholeStripe(digest), 0)
	if err != nil || len(d.Need) != 1 || d.Need[0] != "known" || d.LocalOnly != 0 {
		t.Errorf("the run in tree order: %+v, %v; want Need [known]", d, err)
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
	r.ReleaseStripeTree(0)
	return r, keys
}

// stripeTreeAfterOneWriteBudget bounds the allocations of one Put plus the
// tree request after it, while no tree is held: the Put's value copy, and
// nothing for writing the key's base slot and tree path in place, nor for
// the request, which finds the tree current. Measured: 1, with and without
// -race.
const stripeTreeAfterOneWriteBudget = 1

// stripeTreeAfterOneWriteHeldBudget is the same bound while an earlier tree
// is held: the Put then lands in the overlay, and the request copies the
// stripe (its base's two arrays, the tree header, its hash and leaf-end
// arrays) before it merges the write in, so that the held tree never moves.
// Measured: 6 at depth 3, with and without -race, as the path copies of the
// tree it replaced measured.
const stripeTreeAfterOneWriteHeldBudget = 8

// TestStripeTreeAfterOneWriteAllocBudget is the counted gate for "a write
// costs O(1) allocations, not O(stripe)": the same budgets hold at 10 000 and
// at 100 000 keys. The released variant releases its tree every iteration,
// so every write goes in place; the held variant keeps a snapshot it checks
// never moves, so every request copies the stripe.
func TestStripeTreeAfterOneWriteAllocBudget(t *testing.T) {
	for _, held := range []bool{false, true} {
		for _, n := range []int{10_000, 100_000} {
			r, keys := warmedSingleStripe(t, n)
			var snap, frozen *DigestTree
			budget := stripeTreeAfterOneWriteBudget
			if held {
				snap, _ = r.StripeTree(0)
				frozen = buildDigestTree(stripeKeys(r, 0), snap.Depth())
				budget = stripeTreeAfterOneWriteHeldBudget
			}
			value := []byte("edited")
			next := 0
			scratch := make([]uint64, 0, encoding.TreeFanout)
			allocs := testing.AllocsPerRun(50, func() {
				// The patch XORs one term delta into every node of the
				// written key's path: the root and the key's leaf move by
				// the same delta.
				before, depth := r.shards[0].tree, r.shards[0].tree.Depth()
				leaf := encoding.TreePos(keys[next]) >> (64 - depth*encoding.TreeFanoutBits)
				root0, leaf0 := before.Root(), nodeHash(before, depth, leaf, scratch)
				r.Put(keys[next], value)
				next += 97
				tr, err := r.StripeTree(0)
				if err != nil || (tr == before) == held || tr.Root() == root0 ||
					tr.Root()^root0 != nodeHash(tr, depth, leaf, scratch)^leaf0 {
					t.Fatalf("one Put, held %v: tree %p (was %p), root %x (was %x), err %v",
						held, tr, before, tr.Root(), root0, err)
				}
				r.ReleaseStripeTree(0)
			})
			t.Logf("%d keys, depth %d, held %v: one Put + StripeTree = %.1f allocs",
				n, r.shards[0].tree.Depth(), held, allocs)
			if allocs > float64(budget) {
				t.Errorf("%d keys, held %v: one Put + StripeTree allocates %.1f/op; budget is %d",
					n, held, allocs, budget)
			}
			if held {
				requireSameTree(t, "held snapshot", snap, frozen)
				r.ReleaseStripeTree(0)
			}
		}
	}
}

// nodeHash returns the hash of the node at (level, path) of tr, or 0 if it is
// absent, read off its parent's children into scratch.
func nodeHash(tr *DigestTree, level int, path uint64, scratch []uint64) uint64 {
	if level == 0 {
		return tr.Root()
	}
	bm, hashes := tr.Children(scratch[:0], level-1, path>>encoding.TreeFanoutBits)
	bit := uint16(1) << (path & (encoding.TreeFanout - 1))
	if bm&bit == 0 {
		return 0
	}
	return hashes[bits.OnesCount16(bm&(bit-1))]
}

// stripeTreeBurstFoldAllocs and stripeTreeBurstFoldBytes bound what the
// tree request after a 64-key burst of writes to an unheld stripe
// allocates: nothing, as the writes went into their base slots and tree
// paths in place, with one allocation's room for a stray runtime one.
// Measured: 0 allocs and 0 B, with and without -race; while a fold patched
// a tree from a dirty-key set, 1.0 allocs and 48 B.
const (
	stripeTreeBurstFoldAllocs = 1
	stripeTreeBurstFoldBytes  = 64
)

// TestStripeTreeBurstFoldAllocs: a burst of writes to keys the base holds
// leaves the tree request after it nothing to fold.
func TestStripeTreeBurstFoldAllocs(t *testing.T) {
	r, keys := warmedSingleStripe(t, 10_000)
	value := []byte("edited")
	next := 0
	burstAndFold := func() (allocs, bytes uint64) {
		for i := 0; i < 64; i++ {
			r.Put(keys[next%len(keys)], value)
			next += 97
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := r.StripeRoot(0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	// Warm-up bursts settle anything a first burst allocates once.
	for i := 0; i < 4; i++ {
		burstAndFold()
	}
	const runs = 20
	var allocs, bytes uint64
	for i := 0; i < runs; i++ {
		a, b := burstAndFold()
		allocs, bytes = allocs+a, bytes+b
	}
	perAllocs, perBytes := float64(allocs)/runs, float64(bytes)/runs
	t.Logf("64-key burst fold: %.1f allocs, %.0f B", perAllocs, perBytes)
	if perAllocs > stripeTreeBurstFoldAllocs || perBytes > stripeTreeBurstFoldBytes {
		t.Errorf("folding a 64-key burst allocates %.1f times, %.0f B; budget is %d, %d B",
			perAllocs, perBytes, stripeTreeBurstFoldAllocs, stripeTreeBurstFoldBytes)
	}
	requireTreesMatchOracle(t, "after the bursts", r)
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
		r.ReleaseStripeTree(0)
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
// so nothing in it may grow with the stripe. Measured: 7, with and without
// -race. Before both trees were released and folded in place, and the apply
// took the peer's value instead of copying it, 24 against a budget of 40.
const deltaPairOneKeyBudget = 7

// TestDeltaPairOneKeyAllocBudget is the counted gate for "the store side of
// a round scans only the divergent ranges": the same budget holds at 10 000
// and at 100 000 keys.
func TestDeltaPairOneKeyAllocBudget(t *testing.T) {
	for _, n := range []int{10_000, 100_000} {
		a, keys := warmedSingleStripe(t, n)
		b := a.Clone("peer")
		next := 0
		digest := make([]encoding.Digest, 0, 4*treeLeafTarget)
		allocs := testing.AllocsPerRun(50, func() {
			k := keys[next]
			next += 97
			b.Put(k, []byte("edited"))
			tb, err := b.StripeTree(0)
			if err != nil {
				t.Fatal(err)
			}
			shift := uint(64 - tb.Depth()*encoding.TreeFanoutBits)
			rg := NodeRange(tb.Depth(), encoding.TreePos(k)>>shift)
			digest = digest[:0]
			for _, tk := range tb.RunRange(rg) {
				digest = append(digest, tk.Digest)
			}
			runs := []DigestRun{{Range: rg, Digests: digest}}
			diff, err := a.DiffRanges(runs, 0)
			if err != nil || len(diff.Need) != 1 {
				t.Fatalf("diff over one written key: %+v, %v", diff, err)
			}
			v, _ := b.Version(k)
			entries := []encoding.Entry{{Key: k, Value: v.Value, Stamp: v.Stamp}}
			reply, res, err := a.ApplyDeltaRanges(DeltaReply{}, runs, entries, nil, 0)
			if err != nil || res.Reconciled != 1 || reply.Len() != 1 {
				t.Fatalf("apply over one written key: %+v, %d reply copies, %v", res, reply.Len(), err)
			}
			b.ReleaseStripeTree(0)
		})
		t.Logf("%d keys: one-key DiffRanges + ApplyDeltaRanges = %.1f allocs", n, allocs)
		if allocs > deltaPairOneKeyBudget {
			t.Errorf("%d keys: one-key leaf phase allocates %.1f/op; budget is %d",
				n, allocs, deltaPairOneKeyBudget)
		}
	}
}

// residentKeys is the key count TestStripeResidentBytes measures at: 4 000
// keys a stripe over 8 stripes, depth-2 trees.
const residentKeys, residentStripes = 32_000, 8

// Resident metadata per key, value bytes excluded, the bound of
// TestStripeResidentBytes: a hot replica's with every stripe's tree built
// (measured 82.9 B: the base's 80 B of key, stamp, term, tree position,
// value slice and tombstone flag, and under 3 B of tree and stripe), and a
// paged replica's after Checkpoint (measured 53.3-53.5 B: the cold index's
// packed key, offset, stamp, flags and value location). Each is its
// measurement plus under 5 %. Before the base, the same hot replica
// measured 193.8 B — each stripe's map, and the built tree's leaf runs —
// and the paged one 53.4 B.
const (
	hotResidentBytes   = 87
	pagedResidentBytes = 55
)

// residentBytes returns the heap bytes per key that build leaves reachable
// through what it returns, each side measured after two collections.
func residentBytes(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / residentKeys
}

// TestStripeResidentBytes bounds what a key costs a replica beside its
// value: a hot replica's with its trees built, and a paged replica's after a
// checkpoint has paged every value out.
func TestStripeResidentBytes(t *testing.T) {
	keys := make([]string, residentKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%07d", i)
	}
	batch := make(map[string][]byte, len(keys))
	for _, k := range keys {
		batch[k] = nil // empty values: what stays is metadata
	}
	hot := residentBytes(func() any {
		r := NewReplicaShards("hot", residentStripes)
		r.PutBatch(batch)
		for i := 0; i < residentStripes; i++ {
			if _, err := r.StripeRoot(i); err != nil {
				t.Fatal(err)
			}
		}
		return r
	})

	be, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenBackendPaged(be, "paged", residentStripes, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	value := []byte("paged-out value")
	for k := range batch {
		batch[k] = value
	}
	paged := residentBytes(func() any {
		r.PutBatch(batch)
		if err := r.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return r
	})
	runtime.KeepAlive(keys) // live across both measurements, so neither counts them freed
	runtime.KeepAlive(batch)
	t.Logf("resident per key: hot %.1f B with trees built, paged %.1f B after Checkpoint", hot, paged)
	if hot > hotResidentBytes {
		t.Errorf("a hot key costs %.1f B resident; budget is %d B", hot, hotResidentBytes)
	}
	if paged > pagedResidentBytes {
		t.Errorf("a paged key costs %.1f B resident after Checkpoint; budget is %d B", paged, pagedResidentBytes)
	}
}

// TestCloneKeepsTrees: a clone takes its source's terms and tree hashes with
// its base, a fork moving ids only, which no term covers. So on every stripe
// the clone's root equals the source's, and the first tree request at
// either end after the Clone hashes nothing and allocates nothing — also on
// the stripes that had no tree before it, whose tree the Clone built once
// for both.
func TestCloneKeepsTrees(t *testing.T) {
	const stripes = 8
	a := NewReplicaShards("a", stripes)
	batch := make(map[string][]byte)
	for i := 0; i < 4000; i++ {
		batch[fmt.Sprintf("key-%05d", i)] = fmt.Appendf(nil, "value %d", i)
	}
	a.PutBatch(batch)
	if _, err := a.StripeRoot(0); err != nil { // stripe 0 alone has a tree
		t.Fatal(err)
	}
	b := a.Clone("b")
	for i := 0; i < stripes; i++ {
		var ra, rb uint64
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if ra, err = a.StripeRoot(i); err == nil {
			rb, err = b.StripeRoot(i)
		}
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Errorf("stripe %d: the clone roots at %x, its source at %x", i, rb, ra)
		}
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("stripe %d: the first folds after a Clone allocate %d times, want 0", i, n)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < stripes; i++ {
			_, _ = b.StripeRoot(i)
		}
	}); allocs != 0 {
		t.Errorf("the clone's folds allocate %.1f/op, want 0", allocs)
	}
	requireTreesMatchOracle(t, "source after Clone", a)
	requireTreesMatchOracle(t, "clone", b)
}
