package kvstore

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
)

// Adaptive digest trees: the store half of the anti-entropy protocol. Each
// stripe's digests (key + stamp) are arranged into a k-ary hash tree over
// their 64-bit tree positions (encoding.TreePos): every node hashes its
// subtree, the leaf width and depth are derived from the stripe's live key
// count (TreeShape), and a divergent key is located by descending only the
// differing children — O(log n) fixed-size frames instead of the stripe's
// whole O(n) digest list.
//
// Each stripe keeps its tree once a peer has asked for it: writers note the
// keys they touch and the next request patches just those leaves and their
// paths to the root (foldLocked), so converged stripes answer in O(1) and a
// written one in O(dirty keys × depth), without re-reading the stripe. The
// stripe owns its tree. A caller that keeps a tree past the request holds
// it (StripeTree, StripeTreeAt) until it calls ReleaseStripeTree; while no
// hold is out the patch overwrites leaf runs and child arrays where they
// are, and while one is, it copies the touched paths and shares the rest,
// so a held tree never moves. When a
// stripe's key count crosses a width threshold the request re-levels the
// tree at the deeper (or shallower) shape — an online rebalance that needs
// no coordination, because the wire protocol always descends at the
// *client's* declared shape: a server whose own shape differs evaluates its
// data under the client's (fanout, depth) on demand (StripeTreeAt).
// Converged replicas hold equal per-stripe key counts, so their shapes agree
// and both sides answer from the trees they hold.

const (
	// treeFanout is the fan-out of locally built trees: 4 position bits per
	// level. The wire codec accepts any power of two in [2, 64]; a constant
	// local fan-out keeps converged peers' shapes equal whenever their key
	// counts are.
	treeFanout = 16

	// treeLeafTarget is the key count a leaf aims to hold: small enough
	// that a leaf's digest run is a cheap frame, large enough that the tree
	// stays shallow.
	treeLeafTarget = 32

	// maxOwnTreeDepth caps locally chosen depth well under the codec's
	// MaxTreeDepth; 16^8 leaves outruns any keyspace this store can hold.
	maxOwnTreeDepth = 8
)

// TreeShape returns the (fanout, depth) this replica builds a digest tree
// with for a stripe of n keys: the shallowest depth whose leaf count keeps
// leaves near treeLeafTarget keys. Deterministic in n, so converged
// replicas (equal counts) always agree on shape, and a stripe crossing a
// count threshold rebalances to the new depth on its next request.
func TreeShape(n int) (fanout, depth int) {
	fanout = treeFanout
	leaves := (n + treeLeafTarget - 1) / treeLeafTarget
	depth = 1
	for span := fanout; span < leaves && depth < maxOwnTreeDepth; span *= fanout {
		depth++
	}
	return fanout, depth
}

// TreeRange is a half-open interval [Lo, Hi) of tree positions; Hi == 0
// means "to the end of the 64-bit position space" — the natural overflow of
// (path+1)<<shift for the topmost path. The zero TreeRange covers the whole
// space.
type TreeRange struct{ Lo, Hi uint64 }

// Contains reports whether position p falls inside the range.
func (rg TreeRange) Contains(p uint64) bool {
	return p >= rg.Lo && (rg.Hi == 0 || p < rg.Hi)
}

// RangesContain reports whether the range of any of runs — sorted by
// Range.Lo and disjoint, as a tree descent's leaf runs are once put in
// position order — contains p, by binary search.
func RangesContain(runs []DigestRun, p uint64) bool {
	i := sort.Search(len(runs), func(i int) bool { return runs[i].Range.Hi == 0 || runs[i].Range.Hi > p })
	return i < len(runs) && runs[i].Range.Contains(p)
}

// NodeRange returns the position interval covered by the node at (level,
// path) in a tree of the given fanout. Level 0 path 0 is the whole space.
func NodeRange(fanout, level int, path uint64) TreeRange {
	shift := uint(64 - level*bits.TrailingZeros(uint(fanout)))
	if shift >= 64 {
		return TreeRange{}
	}
	return TreeRange{Lo: path << shift, Hi: (path + 1) << shift}
}

// treeNode is one non-empty node: its child index under its parent, its
// subtree hash, and either its non-empty children in ascending index order
// (level < depth) or its digest run ordered by (TreePos, key) (level ==
// depth). A node is modified only while its stripe has no hold out: then no
// tree that shares it can still be reached. Otherwise patch copies the path
// to each touched leaf and shares everything else.
type treeNode struct {
	hash uint64
	idx  uint8
	kids []treeNode
	run  []encoding.Digest
}

// DigestTree is a k-ary hash tree over one stripe's digests, ordered by
// (TreePos, key). Leaf nodes (level == depth) hash their digest run with
// encoding.SummarizeDigestsBuf; internal nodes fold each non-empty child's
// (index, hash) pair, so the root pins the whole stripe — and depends on the
// declared shape, which is why the wire always compares trees at one agreed
// shape. A tree handed out by StripeTree or StripeTreeAt stays exactly as it
// was, and is safe for concurrent reads, until its holder releases it; after
// that the stripe may patch it in place, so the holder must not read it, or
// any run it returned, again.
type DigestTree struct {
	fanout, depth, fbits int
	n                    int      // digests spanned
	root                 treeNode // zero while n == 0
	leafHashes           int      // leaf runs hashed to build and patch this tree so far
}

// treeUpdate is one key's digest at its tree position — or, in a patch, its
// absence.
type treeUpdate struct {
	pos     uint64
	d       encoding.Digest
	present bool
}

func treeUpdates(ds []encoding.Digest) []treeUpdate {
	ups := make([]treeUpdate, len(ds))
	for i, d := range ds {
		ups[i] = treeUpdate{pos: encoding.TreePos(d.Key), d: d, present: true}
	}
	return ups
}

// cmpPosKey is the tree order: by position, ties (hash collisions) by key.
func cmpPosKey(ap uint64, ak string, bp uint64, bk string) int {
	return cmp.Or(cmp.Compare(ap, bp), strings.Compare(ak, bk))
}

func cmpUpdates(a, b treeUpdate) int { return cmpPosKey(a.pos, a.d.Key, b.pos, b.d.Key) }

// buildDigestTree arranges ds (any order, left alone) into a tree of the
// given shape, which must satisfy encoding.ValidTreeShape. This is the first
// build of a stripe's tree and the oracle the patched tree is tested against.
func buildDigestTree(ds []encoding.Digest, fanout, depth int) *DigestTree {
	ups := treeUpdates(ds)
	slices.SortFunc(ups, cmpUpdates)
	return levelSorted(ups, fanout, depth)
}

// levelSorted builds the tree over digests already in tree order.
func levelSorted(ups []treeUpdate, fanout, depth int) *DigestTree {
	t := &DigestTree{fanout: fanout, depth: depth, fbits: bits.TrailingZeros(uint(fanout)), n: len(ups)}
	if len(ups) > 0 {
		sc := getScratch()
		t.root = t.level(ups, 0, sc)
		putScratch(sc)
	}
	return t
}

// level builds the node at the given level over its (non-empty) span of
// digests: a leaf hashes the span, an internal node groups it by the next
// fbits position bits and folds the children. Every leaf owns its run, so
// that patching one later frees the old run instead of pinning a shared
// array.
func (t *DigestTree) level(ups []treeUpdate, level int, sc *treeScratch) treeNode {
	if level == t.depth {
		nd := treeNode{run: make([]encoding.Digest, len(ups))}
		for i := range ups {
			nd.run[i] = ups[i].d
		}
		nd.hash, sc.hash = encoding.SummarizeDigestsBuf(nd.run, sc.hash)
		t.leafHashes++
		return nd
	}
	// Room for exactly the node's children: an in-place patch keeps the
	// array, so spare room would stay with the tree.
	kids := 1
	for i := 1; i < len(ups); i++ {
		if t.childIndex(ups[i].pos, level) != t.childIndex(ups[i-1].pos, level) {
			kids++
		}
	}
	nd := treeNode{kids: make([]treeNode, 0, kids)}
	for len(ups) > 0 {
		c, j := t.childIndex(ups[0].pos, level), 1
		for j < len(ups) && t.childIndex(ups[j].pos, level) == c {
			j++
		}
		kid := t.level(ups[:j], level+1, sc)
		kid.idx = c
		nd.kids, ups = append(nd.kids, kid), ups[j:]
	}
	nd.hash = foldKids(nd.kids)
	return nd
}

// childIndex returns which child of a node at `level` position p falls under.
func (t *DigestTree) childIndex(p uint64, level int) uint8 {
	return uint8(p >> uint(64-(level+1)*t.fbits) & uint64(t.fanout-1))
}

func foldKids(kids []treeNode) uint64 {
	h := encoding.RootSummarySeed
	for i := range kids {
		h = encoding.FoldSummary(h, uint64(kids[i].idx))
		h = encoding.FoldSummary(h, kids[i].hash)
	}
	return h
}

// treeScratch holds the buffers a build or a fold reuses from leaf to leaf.
// A call borrows one (getScratch) and gives it back (putScratch) with every
// key and stamp it pointed at cleared, so it pins nothing, and no stripe
// keeps one between folds: a fold reuses the room an earlier fold of any
// stripe grew.
type treeScratch struct {
	hash []byte            // SummarizeDigestsBuf's encoding buffer
	run  []encoding.Digest // a patched leaf's run, merged here before it is placed
	ups  []treeUpdate      // a fold's dirty keys' updates
}

// idleScratch holds the scratch no build or fold is using, one per slot, so
// it keeps as many as ran at once, up to its length, and a warm fold
// allocates none. Eight covers a round's two ends on each of a few
// workers; a fold beyond that works in a scratch of its own, which is
// dropped after. It is not a sync.Pool: under the race detector a Pool
// drops a quarter of what it is given, on purpose, and the counted
// allocation gates run under the race detector too.
var idleScratch [8]atomic.Pointer[treeScratch]

// scratchKeep is the most updates' room an idle scratch keeps: a larger
// burst's list is dropped when its fold returns the scratch, so the idle
// slots stay small.
const scratchKeep = 1024

func getScratch() *treeScratch {
	for i := range idleScratch {
		if sc := idleScratch[i].Swap(nil); sc != nil {
			return sc
		}
	}
	return new(treeScratch)
}

// putScratch returns sc to an idle slot, or drops it when every slot is
// full. Its update list must already be cleared up to its length.
func putScratch(sc *treeScratch) {
	if cap(sc.ups) > scratchKeep {
		sc.ups = nil
	}
	clear(sc.run[:cap(sc.run)])
	sc.ups, sc.run = sc.ups[:0], sc.run[:0]
	for i := range idleScratch {
		if idleScratch[i].CompareAndSwap(nil, sc) {
			return
		}
	}
}

// patch applies ups to the tree. In place, it overwrites t: a leaf run that
// keeps its length and a child array that gains no child are rewritten in
// their own arrays, and only a leaf that gains or loses keys, or a node that
// gains a child, gets a new array. Otherwise it returns a new tree and leaves
// t as it was, copying only the paths to the touched leaves. Either way only
// leaves whose key set or update components moved are rehashed (an id-only
// change — a fork — just swaps the stamp in the run), and the result equals
// buildDigestTree over the updated digest set bit for bit. ups is non-empty,
// holds each key once, and is reordered.
func (t *DigestTree) patch(ups []treeUpdate, sc *treeScratch, inPlace bool) *DigestTree {
	slices.SortFunc(ups, cmpUpdates)
	nt := t
	if !inPlace {
		cp := *t
		nt = &cp
	}
	nt.root, _ = nt.patchNode(t.root, 0, ups, sc, inPlace)
	return nt
}

// patchNode returns nd (the zero node when the subtree was empty) with ups,
// all of which fall under it, applied, and whether anything is left of it.
// In place, nd's own arrays are rewritten where the result fits them.
func (t *DigestTree) patchNode(nd treeNode, level int, ups []treeUpdate, sc *treeScratch, inPlace bool) (treeNode, bool) {
	if level == t.depth {
		run, old, rehash := sc.run[:0], nd.run, false
		for _, u := range ups {
			for len(old) > 0 && cmpPosKey(encoding.TreePos(old[0].Key), old[0].Key, u.pos, u.d.Key) < 0 {
				run, old = append(run, old[0]), old[1:]
			}
			if len(old) > 0 && old[0].Key == u.d.Key {
				rehash = rehash || !u.present || !old[0].Stamp.UpdateHandle().Equal(u.d.Stamp.UpdateHandle())
				old = old[1:]
			} else {
				rehash = rehash || u.present
			}
			if u.present {
				run = append(run, u.d)
			}
		}
		run = append(run, old...)
		t.n += len(run) - len(nd.run)
		sc.run = run
		if inPlace && len(run) == len(nd.run) {
			copy(nd.run, run)
		} else {
			nd.run = slices.Clone(run) // exactly sized: the tree keeps it
		}
		if rehash && len(run) > 0 {
			nd.hash, sc.hash = encoding.SummarizeDigestsBuf(run, sc.hash)
			t.leafHashes++
		}
		return nd, len(run) > 0
	}
	// In place and with no child added, the merge writes into nd's own
	// array: its write cursor never passes its read cursor. A node that
	// gains a child takes a new array; its children are still patched in
	// place.
	old, kids := nd.kids, nd.kids[:0]
	own := inPlace && !t.addsKid(old, ups, level)
	if !own {
		kids = make([]treeNode, 0, min(t.fanout, len(nd.kids)+len(ups)))
	}
	for len(ups) > 0 {
		c, j := t.childIndex(ups[0].pos, level), 1
		for j < len(ups) && t.childIndex(ups[j].pos, level) == c {
			j++
		}
		for len(old) > 0 && old[0].idx < c {
			kids, old = append(kids, old[0]), old[1:]
		}
		kid := treeNode{idx: c}
		if len(old) > 0 && old[0].idx == c {
			kid, old = old[0], old[1:]
		}
		if kid, ok := t.patchNode(kid, level+1, ups[:j], sc, inPlace); ok {
			kids = append(kids, kid)
		}
		ups = ups[j:]
	}
	was := nd.kids
	nd.kids = append(kids, old...)
	if own && len(nd.kids) < len(was) {
		clear(was[len(nd.kids):]) // pin no subtree the node dropped
	}
	nd.hash = foldKids(nd.kids)
	return nd, len(nd.kids) > 0
}

// addsKid reports whether ups, sorted and all under a node at level with the
// given children, name a child index the node has no child at.
func (t *DigestTree) addsKid(kids []treeNode, ups []treeUpdate, level int) bool {
	for _, u := range ups {
		c := t.childIndex(u.pos, level)
		for len(kids) > 0 && kids[0].idx < c {
			kids = kids[1:]
		}
		if len(kids) == 0 || kids[0].idx != c {
			return true
		}
	}
	return false
}

// relevel arranges the tree's digests under another shape. They are already
// in tree order, so nothing is collected from the stripe or sorted.
func (t *DigestTree) relevel(fanout, depth int) *DigestTree {
	return levelSorted(treeUpdates(t.RunRange(TreeRange{})), fanout, depth)
}

// Fanout returns the tree's fan-out.
func (t *DigestTree) Fanout() int { return t.fanout }

// Depth returns the tree's leaf level.
func (t *DigestTree) Depth() int { return t.depth }

// Len returns the number of digests the tree spans.
func (t *DigestTree) Len() int { return t.n }

// Root returns the tree's root hash; an empty stripe roots at
// encoding.RootSummarySeed regardless of shape.
func (t *DigestTree) Root() uint64 {
	if t.n == 0 {
		return encoding.RootSummarySeed
	}
	return t.root.hash
}

// Children appends to bitmap and hashes a snapshot of the children of the
// node at (level, path): TreeBitmapLen(fanout) bitmap bytes, bit c set iff
// child c is non-empty, and one hash per set bit in child order. An absent
// or bottom-level node appends an all-zero bitmap and no hashes. Callers pass
// their own scratch (truncated) so a round's descent allocates nothing.
func (t *DigestTree) Children(bitmap []byte, hashes []uint64, level int, path uint64) ([]byte, []uint64) {
	at := len(bitmap)
	bitmap = append(bitmap, make([]byte, encoding.TreeBitmapLen(t.fanout))...)
	if t.n == 0 || level < 0 || level >= t.depth {
		return bitmap, hashes
	}
	if used := uint(level * t.fbits); used < 64 && path>>used != 0 {
		return bitmap, hashes // no node of this level has such a path
	}
	nd := t.root
	for l := level - 1; l >= 0; l-- {
		c := uint8(path >> uint(l*t.fbits) & uint64(t.fanout-1))
		i := slices.IndexFunc(nd.kids, func(k treeNode) bool { return k.idx >= c })
		if i < 0 || nd.kids[i].idx != c {
			return bitmap, hashes
		}
		nd = nd.kids[i]
	}
	for _, kid := range nd.kids {
		encoding.BitmapSet(bitmap[at:], int(kid.idx))
		hashes = append(hashes, kid.hash)
	}
	return bitmap, hashes
}

// Run returns the digest run (tree order) under the node at (level, path).
// The slice may alias the tree; callers must treat it as read-only.
func (t *DigestTree) Run(level int, path uint64) []encoding.Digest {
	return t.RunRange(NodeRange(t.fanout, level, path))
}

// RunRange returns the digests whose positions fall inside rg (tree order).
// A range inside one leaf is served as a subslice of that leaf's run, capped
// so an append cannot reach the tree, and allocates nothing; only a range
// spanning several runs is copied. Either way callers must treat the result
// as read-only.
func (t *DigestTree) RunRange(rg TreeRange) []encoding.Digest {
	var buf [4][]encoding.Digest
	runs := buf[:0]
	t.eachRun(rg, func(run []encoding.Digest) { runs = append(runs, run) })
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	return slices.Concat(runs...)
}

// rangeLen returns len(t.RunRange(rg)) without gathering the runs.
func (t *DigestTree) rangeLen(rg TreeRange) int {
	n := 0
	t.eachRun(rg, func(run []encoding.Digest) { n += len(run) })
	return n
}

// eachRun calls fn, in tree order, with each non-empty leaf run (or the part
// of it) whose positions lie in rg.
func (t *DigestTree) eachRun(rg TreeRange, fn func([]encoding.Digest)) {
	last := rg.Hi - 1 // inclusive; Hi == 0 wraps to the top of the space
	if t.n == 0 || rg.Lo > last {
		return
	}
	t.eachRunUnder(t.root, 0, 0, rg.Lo, last, fn)
}

// eachRunUnder is eachRun under nd, the node at (level, path), for the
// positions in [lo, last]. A run is ordered by (position, key), so its part
// inside the interval is contiguous and found by binary search.
func (t *DigestTree) eachRunUnder(nd treeNode, level int, path, lo, last uint64, fn func([]encoding.Digest)) {
	first, end := uint64(0), ^uint64(0) // the node's own interval, inclusive
	if shift := uint(64 - level*t.fbits); shift < 64 {
		first = path << shift
		end = first | (1<<shift - 1)
	}
	if last < first || lo > end {
		return
	}
	if level < t.depth {
		for _, kid := range nd.kids {
			t.eachRunUnder(kid, level+1, path<<uint(t.fbits)|uint64(kid.idx), lo, last, fn)
		}
		return
	}
	run := nd.run
	if lo > first || last < end {
		i := sort.Search(len(run), func(i int) bool { return encoding.TreePos(run[i].Key) >= lo })
		j := sort.Search(len(run), func(i int) bool { return encoding.TreePos(run[i].Key) > last })
		run = run[i:j:j]
	}
	if len(run) > 0 {
		fn(run)
	}
}

// foldLocked returns the stripe's digest tree at the replica's own shape
// (TreeShape of the live count), brought up to date. The first request
// collects, sorts and hashes the stripe once; from then on writers note the
// keys they touch (shard.noteDirtyLocked) and a request folds only those in:
// O(dirty keys × depth), nothing when the stripe was quiet. A full build
// recurs only after a whole-stripe replacement or a dirty-set overflow;
// crossing a TreeShape depth threshold re-levels the digests the tree
// already holds in order. The fold patches the tree in place while no hold
// is out, and otherwise patches a copy, so a round descends a consistent
// snapshot. Its update list and merge buffers are a treeScratch borrowed
// for the call, so a fold allocates only what the tree keeps. cacheMu
// held.
func (sh *shard) foldLocked() *DigestTree {
	sh.mu.RLock()
	if sh.tree == nil || sh.dirtyCap == 0 {
		ds := make([]encoding.Digest, 0, sh.countLocked())
		sh.eachMetaLocked(func(k string, _ bool, st core.Stamp) {
			ds = append(ds, encoding.Digest{Key: k, Stamp: st})
		})
		// Writers that get in before the build below finishes are already
		// noted against the snapshot it is built from.
		sh.dirty, sh.dirtyCap = make(map[string]struct{}), dirtyCapFor(len(ds))
		sh.mu.RUnlock()
		fanout, depth := TreeShape(len(ds))
		sh.tree = buildDigestTree(ds, fanout, depth)
		return sh.tree
	}
	sh.dirtyCap = dirtyCapFor(sh.tree.n)
	if len(sh.dirty) == 0 {
		sh.mu.RUnlock()
		return sh.tree
	}
	sc := getScratch()
	ups := slices.Grow(sc.ups[:0], len(sh.dirty))
	for k := range sh.dirty {
		v, ok := sh.metaLocked(k)
		ups = append(ups, treeUpdate{encoding.TreePos(k), encoding.Digest{Key: k, Stamp: v.Stamp}, ok})
	}
	// A small set is cleared and kept; a burst's worth of buckets does not
	// stay with the stripe.
	if len(sh.dirty) > dirtyKeep {
		sh.dirty = make(map[string]struct{})
	} else {
		clear(sh.dirty)
	}
	sh.mu.RUnlock()
	// Patching happens outside the stripe lock: the dirty keys' states are
	// already read, and a writer that sneaks in meanwhile notes its key for
	// the next request.
	t := sh.tree.patch(ups, sc, sh.holds == 0)
	clear(ups)
	sc.ups = ups
	putScratch(sc)
	if fanout, depth := TreeShape(t.n); fanout != t.fanout || depth != t.depth {
		t = t.relevel(fanout, depth)
	}
	sh.tree = t
	return t
}

// dirtyCapFor bounds a stripe's dirty set by its key count: a burst touching
// over a quarter of the stripe forgets its notes and pays one full build
// (about 3x the patch it replaces) rather than hold a set the tree's size.
func dirtyCapFor(n int) int { return n/4 + 64 }

// dirtyKeep is the most dirty keys a stripe's dirty set keeps room for
// between folds: a map group's worth, the room a fresh set takes for its
// first keys anyway. A larger burst's set is dropped once folded, so the
// stripes' idle sets stay no larger than fresh ones. (The fold's update
// list is borrowed scratch, not the stripe's.) Both ways of keeping a
// burst's set were measured and lost: keeping every set's room raised
// sync-rounds' live heap by 2.9 %, because the last burst's sets are
// still held when the phase ends; and pooling the sets cycles one map per
// written stripe per node through the pool every round, which costs a
// root-only ring round more allocations than its fold budget allows
// (TestRingRootOnlyRoundAllocs).
const dirtyKeep = 8

// stripeTree returns stripe i's digest tree, brought up to date, and counts
// a hold on it: the stripe patches no tree in place until the caller's
// ReleaseStripeTree.
func (r *Replica) stripeTree(i int) *DigestTree {
	sh := &r.shards[i]
	sh.cacheMu.Lock()
	defer sh.cacheMu.Unlock()
	t := sh.foldLocked()
	sh.holds++
	return t
}

// StripeTree returns stripe idx's digest tree at the replica's own shape,
// brought up to date with the keys written since the last request, and holds
// it: the tree, and every run read from it, stays as it is until the caller
// calls ReleaseStripeTree(idx), once per StripeTree call. A hold never
// released costs later requests their in-place patches, never correctness.
func (r *Replica) StripeTree(idx int) (*DigestTree, error) {
	if idx < 0 || idx >= len(r.shards) {
		return nil, fmt.Errorf("kvstore: shard %d out of range of %d", idx, len(r.shards))
	}
	return r.stripeTree(idx), nil
}

// ReleaseStripeTree releases a hold StripeTree or StripeTreeAt took on
// stripe idx. The caller must not read the tree, or any run read from it,
// afterwards. A release with no hold out is a caller bug that would let a
// held tree move, so it panics.
func (r *Replica) ReleaseStripeTree(idx int) {
	sh := &r.shards[idx]
	sh.cacheMu.Lock()
	defer sh.cacheMu.Unlock()
	if sh.holds == 0 {
		panic(fmt.Sprintf("kvstore: stripe %d tree released with no hold out", idx))
	}
	sh.holds--
}

// StripeRoot returns stripe idx's digest-tree root at the replica's own
// shape, brought up to date with the keys written since the last request.
// It holds nothing.
func (r *Replica) StripeRoot(idx int) (uint64, error) {
	if idx < 0 || idx >= len(r.shards) {
		return 0, fmt.Errorf("kvstore: shard %d out of range of %d", idx, len(r.shards))
	}
	sh := &r.shards[idx]
	sh.cacheMu.Lock()
	defer sh.cacheMu.Unlock()
	return sh.foldLocked().Root(), nil
}

// FoldedStripeRoot returns stripe idx's digest-tree root only when the tree
// is already current: built, with no write noted since its last fold.
// Otherwise ok is false. Unlike StripeRoot it never builds or patches, so a
// caller that only asks whether anything moved (a pipelined root probe)
// never folds part of a burst of writes that is still landing.
func (r *Replica) FoldedStripeRoot(idx int) (root uint64, ok bool) {
	if idx < 0 || idx >= len(r.shards) {
		return 0, false
	}
	sh := &r.shards[idx]
	sh.cacheMu.Lock()
	defer sh.cacheMu.Unlock()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.tree == nil || sh.dirtyCap == 0 || len(sh.dirty) > 0 {
		return 0, false
	}
	return sh.tree.Root(), true
}

// StripeTreeAt returns stripe idx's digest tree evaluated at a peer-declared
// (fanout, depth): the maintained tree when that is the stripe's own shape,
// as it is between converged replicas, and otherwise its digests re-leveled.
// Either way it holds the stripe as StripeTree does, until the caller's
// ReleaseStripeTree(idx).
func (r *Replica) StripeTreeAt(idx, fanout, depth int) (*DigestTree, error) {
	if !encoding.ValidTreeShape(fanout, depth) {
		return nil, fmt.Errorf("kvstore: bad tree shape fanout=%d depth=%d", fanout, depth)
	}
	t, err := r.StripeTree(idx)
	if err != nil {
		return nil, err
	}
	if t.fanout != fanout || t.depth != depth {
		t = t.relevel(fanout, depth)
	}
	return t, nil
}

// Digest returns the (key, stamp) pairs of every stored copy — including
// tombstones — sorted by key, read off the stripes' digest trees.
func (r *Replica) Digest() []encoding.Digest {
	var out []encoding.Digest
	for i := range r.shards {
		t := r.stripeTree(i)
		t.root.each(func(d encoding.Digest) { out = append(out, d) })
		r.ReleaseStripeTree(i)
	}
	slices.SortFunc(out, func(a, b encoding.Digest) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// each calls fn with every digest under nd, in tree order.
func (nd *treeNode) each(fn func(encoding.Digest)) {
	for i := range nd.kids {
		nd.kids[i].each(fn)
	}
	for _, d := range nd.run {
		fn(d)
	}
}

// Summaries returns one hash per stripe under the replica's own layout: the
// stripe's digest-tree root, which covers every key and the update component
// of every stamp in it. Two same-layout replicas whose summaries are equal
// hold equivalent copies of every key.
func (r *Replica) Summaries() []uint64 {
	out := make([]uint64, len(r.shards))
	for i := range r.shards {
		out[i], _ = r.StripeRoot(i)
	}
	return out
}
