package kvstore

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/storage/wal"
)

func TestTreeDepth(t *testing.T) {
	cases := []struct{ n, depth int }{
		{0, 1}, {1, 1}, {32, 1}, {512, 1}, // ≤ 16 leaves of ≤ 32 keys
		{513, 2}, {8192, 2}, // up to 256 leaves
		{8193, 3}, {31250, 3}, // a 1M-key store's per-stripe count
		{1 << 30, 7},
		{1 << 40, encoding.MaxTreeDepth}, // capped
	}
	for _, c := range cases {
		depth := TreeDepth(c.n)
		if depth != c.depth {
			t.Errorf("TreeDepth(%d) = %d, want %d", c.n, depth, c.depth)
		}
		if !encoding.ValidTreeDepth(depth) {
			t.Errorf("TreeDepth(%d) = %d: invalid on the wire", c.n, depth)
		}
	}
}

func TestNodeRange(t *testing.T) {
	if rg := NodeRange(0, 0); rg.Lo != 0 || rg.Hi != 0 {
		t.Fatalf("level-0 range = %+v, want the whole space", rg)
	}
	// A level's node ranges must partition the space: each position falls in
	// exactly the range of its own path.
	for _, p := range []uint64{0, 1, 1 << 60, ^uint64(0)} {
		for level := 1; level <= 3; level++ {
			path := p >> (64 - 4*level)
			for cand := uint64(0); cand < 1<<(4*level); cand += 7 {
				in := NodeRange(level, cand).Contains(p)
				if in != (cand == path) {
					t.Fatalf("pos %x level %d path %x: Contains = %v", p, level, cand, in)
				}
			}
		}
	}
}

// buildDigestTree arranges keys (any order, left alone) into a tree of the
// given depth: the fresh build the maintained tree is checked against.
func buildDigestTree(keys []encoding.Termed, depth int) *DigestTree {
	ups := treeUpdates(keys)
	slices.SortFunc(ups, cmpUpdates)
	return levelSorted(ups, depth)
}

// treeKeys builds n distinct tree keys, each with its term, for tree tests.
func treeKeys(t *testing.T, n int) []encoding.Termed {
	t.Helper()
	r := NewReplicaShards("t", 1)
	for i := 0; i < n; i++ {
		r.Put(fmt.Sprintf("key-%d", i), []byte("v"))
	}
	return stripeKeys(r, 0)
}

// xorTerms returns the XOR of ks's terms: the hash of a node over them.
func xorTerms(ks []encoding.Termed) uint64 {
	var h uint64
	for _, k := range ks {
		h ^= k.Term
	}
	return h
}

// digestsOf returns the digests of ks, without their terms.
func digestsOf(ks []encoding.Termed) []encoding.Digest {
	ds := make([]encoding.Digest, len(ks))
	for i, k := range ks {
		ds[i] = k.Digest
	}
	return ds
}

func TestDigestTreeStructure(t *testing.T) {
	ds := treeKeys(t, 500)
	tr := buildDigestTree(ds, 2)

	if tr.Len() != 500 || tr.Depth() != 2 {
		t.Fatalf("shape: len=%d depth=%d", tr.Len(), tr.Depth())
	}
	if tr.Root() == 0 || tr.Root() != xorTerms(ds) {
		t.Fatalf("root %x, want the XOR of every term, %x", tr.Root(), xorTerms(ds))
	}
	// Descending every child from the root must reach all digests exactly
	// once, each inside its node's position range, and every leaf hash must
	// equal the XOR of its run's terms — the invariant the wire descent
	// relies on to stop at matching subtrees.
	total := 0
	bm, _ := tr.Children(nil, 0, 0)
	for c := 0; c < 16; c++ {
		if bm&(1<<c) == 0 {
			continue
		}
		run := tr.Run(1, uint64(c))
		total += len(run)
		for _, d := range run {
			if !NodeRange(1, uint64(c)).Contains(encoding.TreePos(d.Key)) {
				t.Fatalf("digest %q leaked outside child %d", d.Key, c)
			}
		}
		lbm, lhashes := tr.Children(nil, 1, uint64(c))
		li := 0
		for l := 0; l < 16; l++ {
			if lbm&(1<<l) == 0 {
				continue
			}
			leafPath := uint64(c)<<4 | uint64(l)
			leafRun := tr.Run(2, leafPath)
			if len(leafRun) == 0 {
				t.Fatalf("leaf %x flagged non-empty with an empty run", leafPath)
			}
			if lhashes[li] != xorTerms(leafRun) {
				t.Fatalf("leaf %x hash != XOR of its run's terms", leafPath)
			}
			li++
		}
	}
	if total != 500 {
		t.Fatalf("children partition %d of 500 digests", total)
	}
	// Equal digest sets, any input order, build identical trees.
	rev := make([]encoding.Termed, len(ds))
	for i, d := range ds {
		rev[len(ds)-1-i] = d
	}
	if got := buildDigestTree(rev, 2).Root(); got != tr.Root() {
		t.Fatal("input order changed the root")
	}
	// A different digest set roots differently.
	other := encoding.Digest{Key: "other", Stamp: ds[0].Stamp}
	ds2 := append(slices.Clone(ds[:499]), encoding.Termed{Digest: other,
		Term: encoding.DigestTerm(other, encoding.ContentHash(false, []byte("v")))})
	if buildDigestTree(ds2, 2).Root() == tr.Root() {
		t.Fatal("different digest sets share a root")
	}
	// The same set at another depth roots alike: a hash covers the keys
	// under it, not the tree's shape.
	if buildDigestTree(ds, 3).Root() != tr.Root() {
		t.Fatal("depth 2 and depth 3 trees root apart")
	}
}

// TestRunRangeUnaligned: ranges that cut through leaves, wrap to the top of
// the space or are empty must select exactly the digests Contains selects,
// in tree order.
func TestRunRangeUnaligned(t *testing.T) {
	tr := buildDigestTree(treeKeys(t, 500), 2)
	all := tr.RunRange(TreeRange{})
	if len(all) != 500 {
		t.Fatalf("whole range holds %d digests", len(all))
	}
	mid := encoding.TreePos(all[250].Key)
	for _, rg := range []TreeRange{
		{Lo: encoding.TreePos(all[3].Key), Hi: mid}, {Lo: mid, Hi: 0}, {Lo: 0, Hi: mid + 1},
		{Lo: mid, Hi: mid + 1}, {Lo: mid, Hi: mid}, {Lo: mid + 1, Hi: mid},
	} {
		var want []string
		for _, d := range all {
			if rg.Contains(encoding.TreePos(d.Key)) {
				want = append(want, d.Key)
			}
		}
		var got []string
		for _, d := range tr.RunRange(rg) {
			got = append(got, d.Key)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("RunRange(%+v) = %d digests, want %d", rg, len(got), len(want))
		}
		if n := tr.rangeLen(rg); n != len(want) {
			t.Fatalf("rangeLen(%+v) = %d, want %d", rg, n, len(want))
		}
	}
	// A range inside one leaf is that leaf's run, sliced rather than copied,
	// and costs nothing.
	leaf := tr.Run(2, mid>>56)
	part := tr.RunRange(TreeRange{Lo: mid, Hi: mid + 1})
	i := slices.IndexFunc(leaf, func(k encoding.Termed) bool { return k.Key == all[250].Key })
	if len(part) == 0 || i < 0 || &part[0] != &leaf[i] || cap(part) != len(part) {
		t.Fatal("a range inside one leaf was not served as a capped subslice of its run")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = tr.Run(2, mid>>56) }); allocs != 0 {
		t.Errorf("a one-leaf run allocates %.2f/op, want 0", allocs)
	}
}

func TestDigestTreeEmpty(t *testing.T) {
	tr := buildDigestTree(nil, 2)
	if tr.Root() != 0 {
		t.Fatal("empty tree must root at 0")
	}
	bm, hashes := tr.Children(nil, 0, 0)
	if bm != 0 {
		t.Fatal("empty tree has children")
	}
	if len(hashes) != 0 {
		t.Fatal("empty tree has child hashes")
	}
	if len(tr.Run(2, 0)) != 0 {
		t.Fatal("empty tree has a digest run")
	}
}

func TestStripeTreeCacheAndInvalidation(t *testing.T) {
	r := NewReplicaShards("a", 2)
	for i := 0; i < 100; i++ {
		r.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	t1, err := r.StripeTree(0)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := r.StripeTree(0)
	if t1 != t2 {
		t.Fatal("quiet stripe rebuilt its tree")
	}
	// Insert a key into stripe 0: the cache must refresh and the root move.
	for i := 100; ; i++ {
		k := fmt.Sprintf("k%d", i)
		if ShardIndex(k, 2) == 0 {
			r.Put(k, []byte("v"))
			break
		}
	}
	t3, _ := r.StripeTree(0)
	if t3 == t1 {
		t.Fatal("mutated stripe served the stale tree")
	}
	if t3.Root() == t1.Root() {
		t.Fatal("insert left the root unchanged")
	}
}

func TestStripeTreeRebalance(t *testing.T) {
	r := NewReplicaShards("a", 1)
	for i := 0; i < 100; i++ {
		r.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	t1, _ := r.StripeTree(0)
	if t1.Depth() != 1 {
		t.Fatalf("100 keys: depth %d, want 1", t1.Depth())
	}
	for i := 100; i < 1000; i++ {
		r.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	t2, _ := r.StripeTree(0)
	if t2.Depth() != 2 {
		t.Fatalf("1000 keys: depth %d, want 2 (rebalanced)", t2.Depth())
	}
	if t2.Len() != 1000 {
		t.Fatalf("rebalanced tree spans %d keys", t2.Len())
	}
	// Converged replicas with equal counts agree on depth across the
	// rebalance threshold.
	o := NewReplicaShards("b", 1)
	for i := 0; i < 1000; i++ {
		o.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	// Different stamps, same keys: roots differ (stamps are hashed) but the
	// depths agree.
	t3, _ := o.StripeTree(0)
	if t3.Depth() != t2.Depth() {
		t.Fatal("equal counts picked different depths")
	}
}

// TestTreeHashesIgnoreDepth: one key set built at depths 1–4 answers every
// node alike, so a peer of any depth compares with a tree node for node:
// every (level, path) child bitmap and hash, read at or below a tree's own
// leaves as above them, and every leaf range's keys and terms.
func TestTreeHashesIgnoreDepth(t *testing.T) {
	ks := treeKeys(t, 700)
	var trees []*DigestTree
	for depth := 1; depth <= 4; depth++ {
		trees = append(trees, buildDigestTree(ks, depth))
	}
	if xorTerms(ks) != trees[0].Root() {
		t.Fatal("the root is not the XOR of the terms")
	}
	reached := 0 // keys under the deepest nodes walked
	var walk func(level int, path uint64)
	walk = func(level int, path uint64) {
		wbm, wh := trees[0].Children(nil, level, path)
		want := trees[0].Run(level, path)
		for _, tr := range trees[1:] {
			if bm, h := tr.Children(nil, level, path); bm != wbm || !slices.Equal(h, wh) {
				t.Fatalf("node (%d,%x): depth %d reads %x %x, depth 1 %x %x", level, path, tr.Depth(), bm, h, wbm, wh)
			}
			if run := tr.Run(level, path); !slices.EqualFunc(run, want, func(a, b encoding.Termed) bool {
				return a.Key == b.Key && a.Term == b.Term && a.Stamp.Equal(b.Stamp)
			}) {
				t.Fatalf("range (%d,%x): depth %d holds %d keys, depth 1 %d", level, path, tr.Depth(), len(run), len(want))
			}
		}
		if level == 4 {
			reached += len(want)
			return
		}
		for c := 0; c < encoding.TreeFanout; c++ {
			if wbm&(1<<c) != 0 {
				walk(level+1, path<<encoding.TreeFanoutBits|uint64(c))
			}
		}
	}
	walk(0, 0)
	if reached != len(ks) {
		t.Fatalf("the walk reached %d of %d keys at level 4", reached, len(ks))
	}
}

// stripeKeys collects stripe i's keys straight off the stripe, each with the
// term of its stored copy — the fresh collection the maintained tree is
// checked against.
func stripeKeys(r *Replica, i int) []encoding.Termed {
	sh := &r.shards[i]
	var keys []string
	sh.mu.RLock()
	sh.eachLocked(func(k string, _ Versioned, _ int) { keys = append(keys, strings.Clone(k)) })
	sh.mu.RUnlock()
	ks := make([]encoding.Termed, len(keys))
	for j, k := range keys {
		v, _ := r.Stored(k)
		ks[j].Digest = encoding.Digest{Key: k, Stamp: v.Stamp}
		ks[j].Term = encoding.DigestTerm(ks[j].Digest, encoding.ContentHash(v.Deleted, v.Value))
	}
	return ks
}

// requireSameTree fails unless got answers exactly as want does: length,
// root, every node's Children at every level, every leaf's Run (keys, terms
// and full stamps, ids included) and the whole-tree run.
func requireSameTree(t *testing.T, what string, got, want *DigestTree) {
	t.Helper()
	if got.Depth() != want.Depth() || got.Len() != want.Len() {
		t.Fatalf("%s: depth %d over %d digests, want %d over %d", what,
			got.Depth(), got.Len(), want.Depth(), want.Len())
	}
	if got.Root() != want.Root() {
		t.Fatalf("%s: root %x, want %x", what, got.Root(), want.Root())
	}
	sameRun := func(where string, g, w []encoding.Termed) {
		if len(g) != len(w) {
			t.Fatalf("%s: %s holds %d digests, want %d", what, where, len(g), len(w))
		}
		for i := range w {
			if g[i].Key != w[i].Key || g[i].Term != w[i].Term || !g[i].Stamp.Equal(w[i].Stamp) {
				t.Fatalf("%s: %s[%d] = %q %v, want %q %v", what, where, i,
					g[i].Key, g[i].Stamp, w[i].Key, w[i].Stamp)
			}
		}
	}
	var walk func(level int, path uint64)
	walk = func(level int, path uint64) {
		where := fmt.Sprintf("node (%d,%x)", level, path)
		if level == want.Depth() {
			sameRun(where, got.Run(level, path), want.Run(level, path))
			return
		}
		gbm, gh := got.Children(nil, level, path)
		wbm, wh := want.Children(nil, level, path)
		if gbm != wbm || !slices.Equal(gh, wh) {
			t.Fatalf("%s: %s children %x %x, want %x %x", what, where, gbm, gh, wbm, wh)
		}
		for c := 0; c < encoding.TreeFanout; c++ {
			if wbm&(1<<c) != 0 {
				walk(level+1, path<<encoding.TreeFanoutBits|uint64(c))
			}
		}
	}
	walk(0, 0)
	sameRun("whole run", got.RunRange(TreeRange{}), want.RunRange(TreeRange{}))
}

// requireTreesMatchOracle checks every stripe's maintained tree against
// buildDigestTree over a fresh collection at the stripe's own depth, and
// returns the depths it saw. It releases every tree it takes.
func requireTreesMatchOracle(t *testing.T, what string, r *Replica) []int {
	t.Helper()
	depths := make([]int, r.Shards())
	for i := 0; i < r.Shards(); i++ {
		_, want := foldAgainstOracle(t, what, r, i)
		r.ReleaseStripeTree(i)
		depths[i] = want.Depth()
	}
	return depths
}

// foldAgainstOracle takes stripe i's tree, which folds in the stripe's
// pending writes, and fails unless it equals a fresh build at the stripe's
// own depth. It returns the tree, held, and the build.
func foldAgainstOracle(t *testing.T, what string, r *Replica, i int) (got, want *DigestTree) {
	t.Helper()
	got, err := r.StripeTree(i)
	if err != nil {
		t.Fatal(err)
	}
	ks := stripeKeys(r, i)
	want = buildDigestTree(ks, TreeDepth(len(ks)))
	requireSameTree(t, fmt.Sprintf("%s: %s stripe %d", what, r.Label(), i), got, want)
	return got, want
}

// heldTree is a tree a test holds, and the fresh build of its moment that it
// must keep equalling until it is released.
type heldTree struct {
	r          *Replica
	idx        int
	tree, want *DigestTree
}

// TestMaintainedTreeMatchesFreshBuild is the differential property of the
// maintained tree: after every step of a seeded random sequence over every
// mutation path, each stripe's patched tree must equal a from-scratch build
// — over in-memory, durable and paged replicas, across a dirty-set overflow
// and across the TreeShape depth threshold in both directions. Holds are
// taken and released at random between the steps, so folds run both in
// place (no hold out) and on a copy (some hold out), and every held tree
// must keep equalling the build of the moment it was taken until it is
// released.
func TestMaintainedTreeMatchesFreshBuild(t *testing.T) {
	const shards = 2
	kinds := map[string]func(t *testing.T, label string) *Replica{
		"memory": func(_ *testing.T, label string) *Replica { return NewReplicaShards(label, shards) },
		"durable": func(t *testing.T, label string) *Replica {
			r, err := Open(t.TempDir(), Options{Label: label, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = r.Close() })
			return r
		},
		"paged": func(t *testing.T, label string) *Replica {
			be, err := wal.Open(t.TempDir(), wal.Options{GroupCommit: true})
			if err != nil {
				t.Fatal(err)
			}
			r, err := OpenBackendPaged(be, label, shards, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = r.Close() })
			return r
		},
	}
	steps := 240
	if testing.Short() {
		steps = 90
	}
	for kind, open := range kinds {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20021001))
			a, b := open(t, "a"), open(t, "b")
			pair := [2]*Replica{a, b}
			// 800 keys over 2 stripes: depth 1, a batch away from the
			// 512-key threshold.
			key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
			seedKeys := make(map[string][]byte)
			for i := 0; i < 800; i++ {
				seedKeys[key(i)] = []byte("v0")
			}
			a.PutBatch(seedKeys)
			if _, err := Sync(a, b, nil); err != nil {
				t.Fatal(err)
			}
			resolve := KeepBoth([]byte("|"))
			sawDepth := map[int]bool{}
			holdRng := rand.New(rand.NewSource(19700101))
			var held []heldTree
			inPlace, copied := 0, 0
			check := func(what string) {
				t.Helper()
				for _, h := range held {
					requireSameTree(t, fmt.Sprintf("%s: %s stripe %d held", what, h.r.Label(), h.idx), h.tree, h.want)
				}
				for _, r := range pair {
					for i := 0; i < r.Shards(); i++ {
						sh := &r.shards[i]
						before, folds := sh.tree, sh.tree != nil && sh.dirtyCap > 0 && len(sh.dirty) > 0
						holding := sh.holds > 0
						got, want := foldAgainstOracle(t, what, r, i)
						switch {
						case folds && !holding && got != before && got.Depth() == before.Depth():
							t.Fatalf("%s: %s stripe %d: a fold with no hold out copied the tree", what, r.Label(), i)
						case folds && holding && got == before:
							t.Fatalf("%s: %s stripe %d: a fold under a hold patched the held tree", what, r.Label(), i)
						case folds && !holding:
							inPlace++
						case folds && got.Depth() == before.Depth():
							copied++
						}
						sawDepth[want.Depth()] = true
						if len(held) < 4 && holdRng.Intn(8) == 0 {
							held = append(held, heldTree{r, i, got, want})
						} else {
							r.ReleaseStripeTree(i)
						}
					}
				}
				for j := 0; j < len(held); j++ {
					if holdRng.Intn(2) == 0 {
						held[j].r.ReleaseStripeTree(held[j].idx)
						held = slices.Delete(held, j, j+1)
						j--
					}
				}
			}
			check("seed")
			someKeys := func(n, universe int) []string {
				ks := make([]string, n)
				for i := range ks {
					ks[i] = key(rng.Intn(universe))
				}
				return ks
			}
			for step := 0; step < steps; step++ {
				r, o := pair[rng.Intn(2)], pair[0]
				if r == o {
					o = pair[1]
				}
				var what string
				switch op := rng.Intn(11); {
				case step == steps/3:
					// Grow both stripes past the depth threshold in one
					// batch big enough to overflow the dirty set.
					what = "grow"
					grow := make(map[string][]byte)
					for i := 800; i < 1400; i++ {
						grow[key(i)] = []byte("grown")
					}
					r.PutBatch(grow)
				case step == 2*steps/3:
					// Shrink back under it: delete most keys everywhere, then
					// discard the tombstones on one side.
					what = "shrink"
					var doomed []string
					for i := 300; i < 1400; i++ {
						doomed = append(doomed, key(i))
					}
					for _, k := range doomed {
						r.Delete(k)
					}
					if _, err := Sync(r, o, resolve); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < shards; i++ {
						r.DiscardTombstones(i, r.Tombstones(i, nil))
					}
				case op == 0:
					what = "Put"
					r.Put(key(rng.Intn(1000)), []byte(fmt.Sprintf("v%d", step)))
				case op == 1:
					what = "Delete"
					r.Delete(key(rng.Intn(1000)))
				case op == 2:
					what = "PutBatch"
					batch := make(map[string][]byte)
					for _, k := range someKeys(1+rng.Intn(40), 1000) {
						batch[k] = []byte(fmt.Sprintf("b%d", step))
					}
					r.PutBatch(batch)
				case op == 3:
					what = "Delete loop"
					for _, k := range someKeys(1+rng.Intn(20), 1000) {
						r.Delete(k)
					}
				case op == 4:
					what = "SyncKey"
					if _, err := SyncKey(r, o, key(rng.Intn(1000)), resolve); err != nil {
						t.Fatal(err)
					}
				case op == 5:
					what = "ConvergeKey write"
					w := KeyWrite{Value: []byte(fmt.Sprintf("c%d", step))}
					if _, err := ConvergeKey([]*Replica{r, o}, key(rng.Intn(1000)), &w, nil, resolve); err != nil {
						t.Fatal(err)
					}
				case op == 6:
					what = "Sync"
					if _, err := Sync(r, o, resolve); err != nil {
						t.Fatal(err)
					}
				case op == 7:
					what = "ApplyDelta+ApplyDeltaReply"
					deltaRound(t, r, o, resolve)
				case op == 8:
					what = "DiscardTombstones"
					idx := rng.Intn(shards)
					r.DiscardTombstones(idx, r.Tombstones(idx, nil))
				case op == 9:
					what = "Checkpoint"
					if err := r.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				default:
					what = "hint slot+MergeVersioned"
					k := key(rng.Intn(1000))
					if cp, ok := forkCopy(t, r, k); ok {
						if _, err := o.MergeVersioned(k, cp, resolve); err != nil {
							t.Fatal(err)
						}
					}
				}
				check(fmt.Sprintf("step %d (%s)", step, what))
			}
			if !sawDepth[1] || !sawDepth[2] {
				t.Fatalf("sequence never crossed the depth threshold: depths seen %v", sawDepth)
			}
			if inPlace == 0 || copied == 0 {
				t.Fatalf("folds in place %d, on a copy %d: the sequence must take both paths", inPlace, copied)
			}
			t.Logf("folds in place %d, on a copy %d", inPlace, copied)
		})
	}
}

// TestMaintainedTreeUnderRace: writers hammer one stripe while one reader
// walks a descent snapshot taken before they started — which must keep
// answering exactly as it did then — and another polls the current root.
// Once the writers quiesce the maintained tree must equal a fresh build.
// Run with -race.
func TestMaintainedTreeUnderRace(t *testing.T) {
	r := NewReplicaShards("r", 1)
	seed := make(map[string][]byte)
	for i := 0; i < 2000; i++ {
		seed[fmt.Sprintf("key-%04d", i)] = []byte("v")
	}
	r.PutBatch(seed)
	_ = r.Clone("peer") // forked stamps: every later Put moves an update component
	snap, _ := r.StripeTree(0)
	frozen := buildDigestTree(stripeKeys(r, 0), snap.Depth())

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key-%04d", rng.Intn(2400))
				if i%5 == 4 {
					r.Delete(k)
				} else {
					r.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				}
			}
		}(w)
	}
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if snap.Root() != frozen.Root() || snap.Len() != frozen.Len() {
				t.Error("descent snapshot moved under its holder")
				return
			}
			bm, hashes := snap.Children(nil, 0, 0)
			wbm, whashes := frozen.Children(nil, 0, 0)
			if bm != wbm || !slices.Equal(hashes, whashes) {
				t.Error("descent snapshot's children moved under its holder")
				return
			}
			for c := 0; c < encoding.TreeFanout; c++ {
				run, want := snap.Run(1, uint64(c)), frozen.Run(1, uint64(c))
				if len(run) != len(want) {
					t.Error("descent snapshot's runs moved under its holder")
					return
				}
				for i := range run {
					if run[i].Key != want[i].Key || run[i].Term != want[i].Term || !run[i].Stamp.Equal(want[i].Stamp) {
						t.Error("descent snapshot's digests moved under its holder")
						return
					}
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur, err := r.StripeTree(0)
			if err != nil || cur.Root() == 0 {
				t.Errorf("polled root: tree %v, err %v", cur, err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	requireSameTree(t, "snapshot after the writers", snap, frozen)
	requireTreesMatchOracle(t, "after the writers", r)
}

// TestParallelTreeFoldsMatchFreshBuild: every fold borrows its scratch from
// slots all stripes of all replicas share, so folds of many stripes at
// once, on two replicas with writers running, must each get a scratch no
// other fold is using. Folders fold in place, fold under a hold and read
// the held tree at a foreign depth, below its own leaves; once the writers
// stop, every stripe's tree must equal a fresh build. Run with -race
// -count=10.
func TestParallelTreeFoldsMatchFreshBuild(t *testing.T) {
	const stripes, keys = 16, 3000
	a := NewReplicaShards("a", stripes)
	seed := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		seed[fmt.Sprintf("key-%05d", i)] = []byte("v")
	}
	a.PutBatch(seed)
	reps := []*Replica{a, a.Clone("b")}
	for _, r := range reps {
		requireTreesMatchOracle(t, "before the writers", r)
	}
	var writers, folders sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 600; i++ {
				r, k := reps[rng.Intn(len(reps))], fmt.Sprintf("key-%05d", rng.Intn(keys*6/5))
				if i%7 == 6 {
					r.Delete(k)
				} else {
					r.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				}
			}
		}(w)
	}
	for f := 0; f < 4; f++ {
		folders.Add(1)
		go func(f int) {
			defer folders.Done()
			for n := 0; ; n++ {
				if n >= 200 {
					select {
					case <-stop:
						return
					default:
					}
				}
				r, i := reps[(f+n)%len(reps)], (f*5+n)%stripes
				var err error
				switch n % 3 {
				case 0:
					_, err = r.StripeRoot(i)
				case 1:
					var tr *DigestTree
					if tr, err = r.StripeTree(i); err == nil {
						_ = tr.RunRange(TreeRange{})
						r.ReleaseStripeTree(i)
					}
				default:
					var tr *DigestTree
					if tr, err = r.StripeTree(i); err == nil {
						for level := tr.Depth(); level < tr.Depth()+2; level++ {
							bm, hashes := tr.Children(nil, level, 0)
							if bits.OnesCount16(bm) != len(hashes) {
								t.Errorf("folder %d: stripe %d node (%d,0): bitmap %x with %d hashes", f, i, level, bm, len(hashes))
							}
						}
						r.ReleaseStripeTree(i)
					}
				}
				if err != nil {
					t.Errorf("folder %d: stripe %d: %v", f, i, err)
					return
				}
			}
		}(f)
	}
	writers.Wait()
	close(stop)
	folders.Wait()
	for _, r := range reps {
		requireTreesMatchOracle(t, "after the writers", r)
	}
}

// TestIDOnlyChangeRehashesNothing: the source side of a SyncKey transfer
// only forks its stamp. The tree must ship the new stamp from its leaf run
// and move no hash to get there — the fork leaves the key's term as it was —
// and the tree handed out before keeps the stamp it was built with. A write
// of a new value then moves exactly the hashes on its key's path.
func TestIDOnlyChangeRehashesNothing(t *testing.T) {
	a, b := NewReplicaShards("a", 1), NewReplicaShards("b", 1)
	for i := 0; i < 600; i++ {
		a.Put(fmt.Sprintf("key-%03d", i), []byte("v"))
	}
	before, _ := a.StripeTree(0)
	old, _ := a.Version("key-007")
	if res, err := SyncKey(a, b, "key-007", nil); err != nil || res.Transferred != 1 {
		t.Fatalf("SyncKey: %+v, %v", res, err)
	}
	cur, _ := a.Version("key-007")
	if cur.Stamp.Equal(old.Stamp) {
		t.Fatal("transfer did not fork the source stamp")
	}
	after, _ := a.StripeTree(0)
	if moved := movedNodes(before, after); len(moved) != 0 {
		t.Fatalf("an id-only change moved the hashes of nodes %v", moved)
	}
	stampIn := func(tr *DigestTree) core.Stamp {
		for _, d := range tr.RunRange(TreeRange{}) {
			if d.Key == "key-007" {
				return d.Stamp
			}
		}
		t.Fatal("key-007 missing from the tree")
		return core.Stamp{}
	}
	if !stampIn(after).Equal(cur.Stamp) {
		t.Fatal("the tree still ships the pre-fork stamp")
	}
	if !stampIn(before).Equal(old.Stamp) {
		t.Fatal("the tree handed out earlier was modified")
	}
	requireTreesMatchOracle(t, "after the transfer", a)

	a.Put("key-007", []byte("edited"))
	edited, _ := a.StripeTree(0)
	pos, want := encoding.TreePos("key-007"), []string{"(0,0)"}
	for level := 1; level <= edited.Depth(); level++ {
		want = append(want, fmt.Sprintf("(%d,%x)", level, pos>>(64-level*encoding.TreeFanoutBits)))
	}
	if moved := movedNodes(after, edited); !slices.Equal(moved, want) {
		t.Fatalf("a write moved the hashes of nodes %v, want its path %v", moved, want)
	}
}

// movedNodes returns the nodes, as "(level,path)", whose hash differs
// between two trees of one depth, in walk order.
func movedNodes(x, y *DigestTree) []string {
	var moved []string
	var walk func(level int, path uint64)
	walk = func(level int, path uint64) {
		if level == 0 && x.Root() != y.Root() {
			moved = append(moved, "(0,0)")
		}
		if level == x.Depth() {
			return
		}
		xbm, xh := x.Children(nil, level, path)
		ybm, yh := y.Children(nil, level, path)
		for c, xi, yi := 0, 0, 0; c < encoding.TreeFanout; c++ {
			var hx, hy uint64
			if xbm&(1<<c) != 0 {
				hx, xi = xh[xi], xi+1
			}
			if ybm&(1<<c) != 0 {
				hy, yi = yh[yi], yi+1
			}
			kid := path<<encoding.TreeFanoutBits | uint64(c)
			if hx != hy {
				moved = append(moved, fmt.Sprintf("(%d,%x)", level+1, kid))
			}
			if (xbm|ybm)&(1<<c) != 0 {
				walk(level+1, kid)
			}
		}
	}
	walk(0, 0)
	return moved
}
