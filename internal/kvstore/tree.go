package kvstore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"versionstamp/internal/encoding"
)

// Adaptive digest trees: the store half of the anti-entropy protocol. Each
// stripe's keys are arranged into a hash tree of fan-out encoding.TreeFanout
// over their 64-bit tree positions (encoding.TreePos). Each key is stored
// with its term (encoding.DigestTerm: key, update component and content),
// computed once, when the tree takes the key in, and every node's hash is
// the XOR of the terms under it. The depth is derived from the stripe's live
// key count (TreeDepth), and a divergent key is located by descending only
// the differing children — O(log n) fixed-size frames instead of the
// stripe's whole O(n) digest list.
//
// Each stripe keeps its tree once a peer has asked for it: writers note the
// keys they touch and the next request patches just those leaves and their
// paths to the root (foldLocked), XOR-ing each key's old term out and its new
// one in, so converged stripes answer in O(1) and a written one in O(dirty
// keys × depth), without re-reading the stripe. The stripe owns its tree. A
// caller that keeps a tree past the request holds it (StripeTree) until it
// calls ReleaseStripeTree; while no hold is out the patch overwrites leaf
// runs and child arrays where they are, and while one is, it copies the
// touched paths and shares the rest, so a held tree never moves. When a
// stripe's key count crosses a width threshold the request re-levels the
// tree at the deeper (or shallower) depth. No peer needs to know: a node's
// hash does not depend on the depth of the tree that holds it, so a peer's
// tree of any depth compares with this one node for node (Children).

// treeLeafTarget is the key count a leaf aims to hold: small enough that a
// leaf's digest run is a cheap frame, large enough that the tree stays
// shallow.
const treeLeafTarget = 32

// TreeDepth returns the depth this replica builds a digest tree at for a
// stripe of n keys: the shallowest, up to encoding.MaxTreeDepth, whose leaf
// count keeps leaves near treeLeafTarget keys. A stripe crossing a count
// threshold rebalances to the new depth on its next request.
func TreeDepth(n int) int {
	leaves := (n + treeLeafTarget - 1) / treeLeafTarget
	depth := 1
	for span := encoding.TreeFanout; span < leaves && depth < encoding.MaxTreeDepth; span *= encoding.TreeFanout {
		depth++
	}
	return depth
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

// NodeRange returns the position interval covered by the node at (level,
// path). Level 0 path 0 is the whole space.
func NodeRange(level int, path uint64) TreeRange {
	shift := uint(64 - level*encoding.TreeFanoutBits)
	if shift >= 64 {
		return TreeRange{}
	}
	return TreeRange{Lo: path << shift, Hi: (path + 1) << shift}
}

// treeNode is one non-empty node: its child index under its parent, its
// subtree hash (the XOR of the terms under it), and either its non-empty
// children in ascending index order (level < depth) or its keys ordered by
// (TreePos, key) (level == depth). A node is modified only while its stripe
// has no hold out: then no tree that shares it can still be reached.
// Otherwise patch copies the path to each touched leaf and shares
// everything else.
type treeNode struct {
	hash uint64
	idx  uint8
	kids []treeNode
	run  []encoding.Termed
}

// DigestTree is a hash tree over one stripe's keys, ordered by (TreePos,
// key). Every node's hash is the XOR of the terms of the keys under it, so
// it depends on those keys alone and not on the tree's depth. A tree handed
// out by StripeTree stays exactly as it was, and is safe for concurrent
// reads, until its holder releases it; after that the stripe may patch it
// in place, so the holder must not read it, or any run it returned, again.
type DigestTree struct {
	depth int
	n     int      // keys spanned
	root  treeNode // zero while n == 0
}

// treeUpdate is one key at its tree position — or, in a patch, its absence
// (only k.Key is set).
type treeUpdate struct {
	pos     uint64
	k       encoding.Termed
	present bool
}

// cmpPosKey is the tree order: by position, ties (hash collisions) by key.
// The keys are compared only on a tie: cmp.Or would compare them on every
// call, reading both keys' bytes.
func cmpPosKey(ap uint64, ak string, bp uint64, bk string) int {
	if ap != bp {
		return cmp.Compare(ap, bp)
	}
	return strings.Compare(ak, bk)
}

func cmpUpdates(a, b treeUpdate) int { return cmpPosKey(a.pos, a.k.Key, b.pos, b.k.Key) }

// levelSorted builds the tree over keys already in tree order.
func levelSorted(ups []treeUpdate, depth int) *DigestTree {
	t := &DigestTree{depth: depth, n: len(ups)}
	if len(ups) > 0 {
		t.root = t.level(ups, 0)
	}
	return t
}

// level builds the node at the given level over its (non-empty) span of
// keys: a leaf takes the span as its run, an internal node groups it by the
// next encoding.TreeFanoutBits position bits. Every leaf owns its run, so
// that patching one later frees the old run instead of pinning a shared
// array.
func (t *DigestTree) level(ups []treeUpdate, level int) treeNode {
	var nd treeNode
	if level == t.depth {
		nd.run = make([]encoding.Termed, len(ups))
		for i := range ups {
			nd.run[i] = ups[i].k
			nd.hash ^= ups[i].k.Term
		}
		return nd
	}
	// Room for exactly the node's children: an in-place patch keeps the
	// array, so spare room would stay with the tree.
	kids := 1
	for i := 1; i < len(ups); i++ {
		if childIndex(ups[i].pos, level) != childIndex(ups[i-1].pos, level) {
			kids++
		}
	}
	nd.kids = make([]treeNode, 0, kids)
	for len(ups) > 0 {
		c, j := childIndex(ups[0].pos, level), 1
		for j < len(ups) && childIndex(ups[j].pos, level) == c {
			j++
		}
		kid := t.level(ups[:j], level+1)
		kid.idx = c
		nd.kids, ups = append(nd.kids, kid), ups[j:]
		nd.hash ^= kid.hash
	}
	return nd
}

// childIndex returns which child of a node at `level` position p falls under.
func childIndex(p uint64, level int) uint8 {
	return uint8(p >> uint(64-(level+1)*encoding.TreeFanoutBits) & (encoding.TreeFanout - 1))
}

// treeScratch holds the buffers a build or a fold reuses. A call borrows one
// (getScratch) and gives it back (putScratch) with every key and stamp it
// pointed at cleared, so it pins nothing, and no stripe keeps one between
// folds: a fold reuses the room an earlier fold of any stripe grew.
type treeScratch struct {
	run []encoding.Termed // a patched leaf's run, merged here before it is placed
	ups []treeUpdate      // a build's keys, or a fold's dirty keys' updates
}

// idleScratch holds the scratch no build or fold is using, one per slot, so
// it keeps as many as ran at once, up to its length, and a warm fold
// allocates none. Eight covers a round's two ends on each of a few workers;
// a fold beyond that works in a scratch of its own, which is dropped after.
// It is not a sync.Pool: under the race detector a Pool drops a quarter of
// what it is given, on purpose, and the counted allocation gates run under
// the race detector too.
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

// putScratch clears sc and returns it to an idle slot, or drops it when
// every slot is full.
func putScratch(sc *treeScratch) {
	clear(sc.ups)
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
// t as it was, copying only the paths to the touched leaves. Either way each
// node on a touched path XORs the old terms of its changed keys out and the
// new ones in, so an id-only change (a fork) just swaps the stamp in the run
// and moves no hash, and the result equals buildDigestTree over the updated
// key set bit for bit. ups is non-empty, holds each key once, and is
// reordered.
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
		run, old := sc.run[:0], newCursor(nd.run, termedKey)
		for _, u := range ups {
			for len(old.xs) > 0 && cmpPosKey(old.pos, old.xs[0].Key, u.pos, u.k.Key) < 0 {
				run = append(run, *old.take(old.xs[0].Key))
			}
			if k := old.take(u.k.Key); k != nil {
				nd.hash ^= k.Term
			}
			if u.present {
				run = append(run, u.k)
				nd.hash ^= u.k.Term
			}
		}
		run = append(run, old.xs...)
		t.n += len(run) - len(nd.run)
		sc.run = run
		if inPlace && len(run) == len(nd.run) {
			copy(nd.run, run)
		} else {
			nd.run = slices.Clone(run) // exactly sized: the tree keeps it
		}
		return nd, len(run) > 0
	}
	// In place and with no child added, the merge writes into nd's own
	// array: its write cursor never passes its read cursor. A node that
	// gains a child takes a new array; its children are still patched in
	// place.
	old, kids := nd.kids, nd.kids[:0]
	own := inPlace && !addsKid(old, ups, level)
	if !own {
		kids = make([]treeNode, 0, min(encoding.TreeFanout, len(nd.kids)+len(ups)))
	}
	for len(ups) > 0 {
		c, j := childIndex(ups[0].pos, level), 1
		for j < len(ups) && childIndex(ups[j].pos, level) == c {
			j++
		}
		for len(old) > 0 && old[0].idx < c {
			kids, old = append(kids, old[0]), old[1:]
		}
		kid := treeNode{idx: c}
		if len(old) > 0 && old[0].idx == c {
			kid, old = old[0], old[1:]
		}
		patched, ok := t.patchNode(kid, level+1, ups[:j], sc, inPlace)
		nd.hash ^= kid.hash ^ patched.hash
		if ok {
			kids = append(kids, patched)
		}
		ups = ups[j:]
	}
	was := nd.kids
	nd.kids = append(kids, old...)
	if own && len(nd.kids) < len(was) {
		clear(was[len(nd.kids):]) // pin no subtree the node dropped
	}
	return nd, len(nd.kids) > 0
}

// addsKid reports whether ups, sorted and all under a node at level with the
// given children, name a child index the node has no child at.
func addsKid(kids []treeNode, ups []treeUpdate, level int) bool {
	for _, u := range ups {
		c := childIndex(u.pos, level)
		for len(kids) > 0 && kids[0].idx < c {
			kids = kids[1:]
		}
		if len(kids) == 0 || kids[0].idx != c {
			return true
		}
	}
	return false
}

// relevel arranges the tree's keys at another depth. They are already in
// tree order, so nothing is collected from the stripe, sorted or hashed.
func (t *DigestTree) relevel(depth int) *DigestTree {
	return levelSorted(treeUpdates(t.RunRange(TreeRange{})), depth)
}

func treeUpdates(keys []encoding.Termed) []treeUpdate {
	ups := make([]treeUpdate, len(keys))
	for i, k := range keys {
		ups[i] = treeUpdate{pos: encoding.TreePos(k.Key), k: k, present: true}
	}
	return ups
}

// Depth returns the tree's leaf level.
func (t *DigestTree) Depth() int { return t.depth }

// Len returns the number of digests the tree spans.
func (t *DigestTree) Len() int { return t.n }

// Root returns the tree's root hash, the XOR of all its terms: 0 for an
// empty stripe.
func (t *DigestTree) Root() uint64 { return t.root.hash }

// Children returns a snapshot of the children of the node at (level, path),
// at any level short of encoding.MaxTreeDepth: a bitmap, bit c set iff child c
// is non-empty, and hashes with one hash per set bit appended, in child
// order. A node at or below the tree's own leaf level is a stretch of one
// leaf's run, whose children are grouped and XORed there. An absent node
// has an all-zero bitmap and no hashes. Callers pass their own scratch
// (truncated) so a round's descent allocates nothing.
func (t *DigestTree) Children(hashes []uint64, level int, path uint64) (uint16, []uint64) {
	if t.n == 0 || level < 0 || level >= encoding.MaxTreeDepth || path>>uint(level*encoding.TreeFanoutBits) != 0 {
		return 0, hashes // no node of this level has such a path
	}
	var bitmap uint16
	if level >= t.depth {
		for _, k := range t.Run(level, path) {
			if bit := uint16(1) << childIndex(encoding.TreePos(k.Key), level); bitmap&bit == 0 {
				bitmap |= bit
				hashes = append(hashes, 0)
			}
			hashes[len(hashes)-1] ^= k.Term
		}
		return bitmap, hashes
	}
	nd := t.root
	for l := level - 1; l >= 0; l-- {
		c := uint8(path >> uint(l*encoding.TreeFanoutBits) & (encoding.TreeFanout - 1))
		i := slices.IndexFunc(nd.kids, func(k treeNode) bool { return k.idx >= c })
		if i < 0 || nd.kids[i].idx != c {
			return 0, hashes
		}
		nd = nd.kids[i]
	}
	for _, kid := range nd.kids {
		bitmap |= 1 << kid.idx
		hashes = append(hashes, kid.hash)
	}
	return bitmap, hashes
}

// Run returns the keys (tree order) under the node at (level, path), at any
// level. The slice may alias the tree; callers must treat it as read-only.
func (t *DigestTree) Run(level int, path uint64) []encoding.Termed {
	return t.RunRange(NodeRange(level, path))
}

// RunRange returns the keys whose positions fall inside rg (tree order).
// A range inside one leaf is served as a subslice of that leaf's run, capped
// so an append cannot reach the tree, and allocates nothing; only a range
// spanning several runs is copied. Either way callers must treat the result
// as read-only.
func (t *DigestTree) RunRange(rg TreeRange) []encoding.Termed {
	var buf [4][]encoding.Termed
	runs := buf[:0]
	t.eachRun(rg, func(run []encoding.Termed) { runs = append(runs, run) })
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
	t.eachRun(rg, func(run []encoding.Termed) { n += len(run) })
	return n
}

// eachRun calls fn, in tree order, with each non-empty leaf run (or the part
// of it) whose positions lie in rg.
func (t *DigestTree) eachRun(rg TreeRange, fn func([]encoding.Termed)) {
	last := rg.Hi - 1 // inclusive; Hi == 0 wraps to the top of the space
	if t.n == 0 || rg.Lo > last {
		return
	}
	t.eachRunUnder(t.root, 0, 0, rg.Lo, last, fn)
}

// eachRunUnder is eachRun under nd, the node at (level, path), for the
// positions in [lo, last]. A run is ordered by (position, key), so its part
// inside the interval is contiguous and found by binary search.
func (t *DigestTree) eachRunUnder(nd treeNode, level int, path, lo, last uint64, fn func([]encoding.Termed)) {
	first, end := uint64(0), ^uint64(0) // the node's own interval, inclusive
	if shift := uint(64 - level*encoding.TreeFanoutBits); shift < 64 {
		first = path << shift
		end = first | (1<<shift - 1)
	}
	if last < first || lo > end {
		return
	}
	if level < t.depth {
		for _, kid := range nd.kids {
			t.eachRunUnder(kid, level+1, path<<encoding.TreeFanoutBits|uint64(kid.idx), lo, last, fn)
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

// foldLocked returns stripe si's digest tree at the replica's own depth
// (TreeDepth of the live count), brought up to date. The first request
// collects, terms and sorts the stripe once; from then on writers note the
// keys they touch (shard.noteDirtyLocked) and a request folds only those in:
// O(dirty keys × depth), nothing when the stripe was quiet. A full build
// recurs only after a whole-stripe replacement or a dirty-set overflow;
// crossing a TreeDepth threshold re-levels the keys the tree already holds
// in order. The fold patches the tree in place while no hold is out, and
// otherwise patches a copy, so a round descends a consistent snapshot. Its
// update list and merge buffer are a treeScratch borrowed for the call, so
// a fold allocates only what the tree keeps. A key's term covers its
// content, so a cold copy's value is read through the page cache; one that
// cannot be read is noted as a persist error, as Get notes it, and hashed
// as empty, which costs rounds a descent to the key, where the stamps
// decide, and never correctness. cacheMu held.
func (r *Replica) foldLocked(si int) *DigestTree {
	sh := &r.shards[si]
	sh.mu.RLock()
	build := sh.tree == nil || sh.dirtyCap == 0
	if !build {
		if sh.dirtyCap = dirtyCapFor(sh.tree.n); len(sh.dirty) == 0 {
			sh.mu.RUnlock()
			return sh.tree
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	note := func(k string, v Versioned, cold int, ok bool) {
		u := treeUpdate{pos: encoding.TreePos(k), k: encoding.Termed{Digest: encoding.Digest{Key: k, Stamp: v.Stamp}}, present: ok}
		if ok {
			v, err := r.loadLocked(si, k, v, cold)
			if err != nil {
				r.notePersistErr(fmt.Errorf("kvstore: digest tree %q (shard %d): %w", k, si, err))
			}
			u.k.Term = encoding.DigestTerm(u.k.Digest, encoding.ContentHash(v.Deleted, v.Value))
		}
		sc.ups = append(sc.ups, u)
	}
	if build {
		sc.ups = slices.Grow(sc.ups, sh.countLocked())
		sh.eachLocked(func(k string, v Versioned, cold int) { note(k, v, cold, true) })
	} else {
		sc.ups = slices.Grow(sc.ups, len(sh.dirty))
		for k := range sh.dirty {
			v, cold, ok := sh.storedLocked(k)
			note(k, v, cold, ok)
		}
	}
	switch {
	case build:
		// Writers that get in before the build below finishes are already
		// noted against the snapshot it is built from.
		sh.dirty, sh.dirtyCap = make(map[string]struct{}), dirtyCapFor(len(sc.ups))
	case len(sh.dirty) > dirtyKeep:
		// A burst's worth of buckets does not stay with the stripe.
		sh.dirty = make(map[string]struct{})
	default:
		clear(sh.dirty)
	}
	sh.mu.RUnlock()
	// Building and patching happen outside the stripe lock: the keys' states
	// are already read, and a writer that sneaks in meanwhile notes its key
	// for the next request.
	var t *DigestTree
	if build {
		slices.SortFunc(sc.ups, cmpUpdates)
		t = levelSorted(sc.ups, TreeDepth(len(sc.ups)))
	} else if t = sh.tree.patch(sc.ups, sc, sh.holds == 0); TreeDepth(t.n) != t.depth {
		t = t.relevel(TreeDepth(t.n))
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
	t := r.foldLocked(i)
	sh.holds++
	return t
}

// StripeTree returns stripe idx's digest tree at the replica's own depth,
// brought up to date with the keys written since the last request, and holds
// it: the tree, and every run read from it, stays as it is until the caller
// calls ReleaseStripeTree(idx), once per StripeTree call. A hold never
// released costs later requests their in-place patches, never correctness.
// A peer's tree of another depth compares with it node for node: read its
// nodes at the peer's levels (Children, Run).
func (r *Replica) StripeTree(idx int) (*DigestTree, error) {
	if idx < 0 || idx >= len(r.shards) {
		return nil, fmt.Errorf("kvstore: shard %d out of range of %d", idx, len(r.shards))
	}
	return r.stripeTree(idx), nil
}

// ReleaseStripeTree releases a hold StripeTree took on stripe idx. The
// caller must not read the tree, or any run read from it, afterwards. A
// release with no hold out is a caller bug that would let a held tree move,
// so it panics.
func (r *Replica) ReleaseStripeTree(idx int) {
	sh := &r.shards[idx]
	sh.cacheMu.Lock()
	defer sh.cacheMu.Unlock()
	if sh.holds == 0 {
		panic(fmt.Sprintf("kvstore: stripe %d tree released with no hold out", idx))
	}
	sh.holds--
}

// StripeRoot returns stripe idx's digest-tree root, brought up to date with
// the keys written since the last request. It holds nothing.
func (r *Replica) StripeRoot(idx int) (uint64, error) {
	if idx < 0 || idx >= len(r.shards) {
		return 0, fmt.Errorf("kvstore: shard %d out of range of %d", idx, len(r.shards))
	}
	sh := &r.shards[idx]
	sh.cacheMu.Lock()
	defer sh.cacheMu.Unlock()
	return r.foldLocked(idx).Root(), nil
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

// Digest returns the (key, stamp) pairs of every stored copy — including
// tombstones — sorted by key.
func (r *Replica) Digest() []encoding.Digest {
	var out []encoding.Digest
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		sh.eachLocked(func(k string, v Versioned, _ int) {
			out = append(out, encoding.Digest{Key: k, Stamp: v.Stamp})
		})
		sh.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b encoding.Digest) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Summaries returns one hash per stripe under the replica's own layout: the
// stripe's digest-tree root, the XOR of its keys' terms, each covering the
// key, its stamp's update component and its content. Two same-layout
// replicas whose summaries are equal hold equivalent copies of every key
// (but for a ~2^-64 collision), except a key created at both with one
// value: two first writes carry equal update components, so the two
// creations hash alike until either end writes the key again.
func (r *Replica) Summaries() []uint64 {
	out := make([]uint64, len(r.shards))
	for i := range r.shards {
		out[i], _ = r.StripeRoot(i)
	}
	return out
}
