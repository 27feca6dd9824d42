package kvstore

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"versionstamp/internal/encoding"
)

// Adaptive digest trees: the store half of the anti-entropy protocol. Each
// stripe's keys are arranged into a hash tree of fan-out encoding.TreeFanout
// over their 64-bit tree positions (encoding.TreePos). Each key is stored
// with its term (encoding.DigestTerm: key, update component and content),
// computed once, when the tree takes the key in, and every node's hash is
// the XOR of the terms under it. The depth is derived from the stripe's key
// count (TreeDepth), and a divergent key is located by descending only the
// differing children — O(log n) fixed-size frames instead of the stripe's
// whole O(n) digest list.
//
// A hot stripe keeps its keys in tree order in its base, so the tree is
// hashes only: one dense array of node hashes per level and the end of each
// leaf's run in the base, and a run is a sub-slice of the base. Once a peer
// has asked for the tree, a write to a key the base holds rewrites the key's
// slot and XORs its old term out of every node on its path and its new one
// in (an id-only change, a fork, moves no hash), so converged and written
// stripes alike answer in O(1); a request merges only the overlay (new keys,
// and writes that landed under a hold). A caller that keeps a tree past the
// request holds it (StripeTree) until it calls ReleaseStripeTree. While a
// hold is out the base and the tree are frozen: writes land in the overlay,
// and a request that must fold them gives the stripe a copy of its base and
// tree first, so a held tree never moves. When a stripe's key count crosses
// a width threshold its tree is re-levelled at the deeper (or shallower)
// depth. No peer needs to know: a node's hash does not depend on the depth
// of the tree that holds it, so a peer's tree of any depth compares with
// this one node for node (Children).

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

// DigestTree is a hash tree over one stripe's keys, ordered by (TreePos,
// key). Every node's hash is the XOR of the terms of the keys under it, so
// it depends on those keys alone and not on the tree's depth. A node's keys
// are a contiguous range of the tree's key column, which for a hot stripe is
// the stripe's base itself, so a run is a sub-slice of the base and never a
// copy. A tree handed out by StripeTree stays exactly as it was, and is safe
// for concurrent reads, until its holder releases it; after that the stripe
// may write it in place, so the holder must not read it, or any run it
// returned, again.
type DigestTree struct {
	depth int
	keys  []encoding.Termed
	pos   []uint64 // each key's tree position
	// hash holds every node's hash, level by level, each level dense: node
	// (l, p) is hash[levelOff(l)+p], and an empty node's hash is 0. ends[p]
	// is the end in keys of leaf p's run, which starts at ends[p-1] (0 for
	// the first leaf).
	hash []uint64
	ends []int32
}

// levelOff returns where level l's nodes start in DigestTree.hash: after
// the 16^0 + … + 16^(l-1) nodes above them.
func levelOff(l int) int { return (1<<(l*encoding.TreeFanoutBits) - 1) / (encoding.TreeFanout - 1) }

// newDigestTree builds a tree of the given depth over keys, which are in tree
// order and termed, at positions pos; the tree keeps both as its columns.
func newDigestTree(keys []encoding.Termed, pos []uint64, depth int) *DigestTree {
	t := new(DigestTree)
	t.index(keys, pos, depth)
	return t
}

// index lays t out over keys at depth: it finds each leaf's end and XORs
// every term into its leaf, then each level into the one above, in the
// arrays t has when they are of the depth's size.
func (t *DigestTree) index(keys []encoding.Termed, pos []uint64, depth int) {
	t.keys, t.pos = keys, pos
	if t.hash == nil || depth != t.depth {
		t.depth = depth
		t.hash = make([]uint64, levelOff(depth+1))
		t.ends = make([]int32, 1<<(depth*encoding.TreeFanoutBits))
	} else {
		clear(t.hash)
	}
	leaves, p := t.hash[levelOff(depth):], 0
	for x := range keys {
		leaf := int(t.leafOf(pos[x]))
		for ; p < leaf; p++ {
			t.ends[p] = int32(x)
		}
		leaves[leaf] ^= keys[x].Term
	}
	for ; p < len(t.ends); p++ {
		t.ends[p] = int32(len(keys))
	}
	for l := depth; l > 0; l-- {
		level, up := t.hash[levelOff(l):levelOff(l+1)], t.hash[levelOff(l-1):]
		for i, h := range level {
			up[i>>encoding.TreeFanoutBits] ^= h
		}
	}
}

// leafOf returns the leaf position p falls under.
func (t *DigestTree) leafOf(p uint64) uint64 {
	return p >> uint(64-t.depth*encoding.TreeFanoutBits)
}

// leafSpan returns the range of keys of the leaf position p falls under.
func (t *DigestTree) leafSpan(p uint64) (lo, hi int) {
	return t.span(t.depth, t.leafOf(p))
}

// span returns the range of keys under the node at (level, path), level at
// most the tree's depth: from the start of its first leaf to the end of its
// last.
func (t *DigestTree) span(level int, path uint64) (lo, hi int) {
	shift := uint((t.depth - level) * encoding.TreeFanoutBits)
	first, last := path<<shift, (path+1)<<shift-1
	if first > 0 {
		lo = int(t.ends[first-1])
	}
	return lo, int(t.ends[last])
}

// patch XORs d into every node on the path of position p: a key's term in
// or out, or the change of a key's term.
func (t *DigestTree) patch(p uint64, d uint64) {
	if d == 0 {
		return
	}
	for l := 0; l <= t.depth; l++ {
		t.hash[levelOff(l)+int(p>>uint(64-l*encoding.TreeFanoutBits))] ^= d
	}
}

// seek returns the index in keys[lo:hi], which are in tree order at
// positions ps, of the first key at or after (pos, key) in tree order. The
// empty key seeks by position alone.
func seek(keys []encoding.Termed, ps []uint64, lo, hi int, pos uint64, key string) int {
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if cmpPosKey(ps[m], keys[m].Key, pos, key) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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

// childIndex returns which child of a node at `level` position p falls under.
func childIndex(p uint64, level int) uint8 {
	return uint8(p >> uint(64-(level+1)*encoding.TreeFanoutBits) & (encoding.TreeFanout - 1))
}

// Depth returns the tree's leaf level.
func (t *DigestTree) Depth() int { return t.depth }

// Len returns the number of digests the tree spans.
func (t *DigestTree) Len() int { return len(t.keys) }

// Root returns the tree's root hash, the XOR of all its terms: 0 for an
// empty stripe.
func (t *DigestTree) Root() uint64 { return t.hash[0] }

// Children returns a snapshot of the children of the node at (level, path),
// at any level short of encoding.MaxTreeDepth: a bitmap, bit c set iff child c
// is non-empty, and hashes with one hash per set bit appended, in child
// order. A node at or below the tree's own leaf level is a stretch of one
// leaf's run, whose children are grouped and XORed there. An absent node
// has an all-zero bitmap and no hashes. Callers pass their own scratch
// (truncated) so a round's descent allocates nothing.
func (t *DigestTree) Children(hashes []uint64, level int, path uint64) (uint16, []uint64) {
	if len(t.keys) == 0 || level < 0 || level >= encoding.MaxTreeDepth || path>>uint(level*encoding.TreeFanoutBits) != 0 {
		return 0, hashes // no node of this level has such a path
	}
	var bitmap uint16
	if level >= t.depth {
		lo, hi := t.runSpan(level, path)
		for x := lo; x < hi; x++ {
			if bit := uint16(1) << childIndex(t.pos[x], level); bitmap&bit == 0 {
				bitmap |= bit
				hashes = append(hashes, 0)
			}
			hashes[len(hashes)-1] ^= t.keys[x].Term
		}
		return bitmap, hashes
	}
	kids := t.hash[levelOff(level+1):]
	for c := uint64(0); c < encoding.TreeFanout; c++ {
		kid := path<<encoding.TreeFanoutBits | c
		if lo, hi := t.span(level+1, kid); lo < hi {
			bitmap |= 1 << c
			hashes = append(hashes, kids[kid])
		}
	}
	return bitmap, hashes
}

// Run returns the keys (tree order) under the node at (level, path), at any
// level, as a sub-slice of the tree's key column capped so that an append
// cannot reach it. It allocates nothing; callers must treat it as read-only.
func (t *DigestTree) Run(level int, path uint64) []encoding.Termed {
	lo, hi := t.runSpan(level, path)
	return t.keys[lo:hi:hi]
}

// runSpan returns the range of keys under the node at (level, path).
func (t *DigestTree) runSpan(level int, path uint64) (lo, hi int) {
	if level >= 0 && level <= t.depth && path>>uint(level*encoding.TreeFanoutBits) == 0 {
		return t.span(level, path)
	}
	return t.rangeSpan(NodeRange(level, path))
}

// RunRange returns the keys whose positions fall inside rg (tree order), as
// Run returns them.
func (t *DigestTree) RunRange(rg TreeRange) []encoding.Termed {
	lo, hi := t.rangeSpan(rg)
	return t.keys[lo:hi:hi]
}

// rangeSpan returns the range of keys whose positions fall inside rg.
func (t *DigestTree) rangeSpan(rg TreeRange) (lo, hi int) {
	lo, hi = t.seekPos(rg.Lo), len(t.keys)
	if rg.Hi != 0 {
		hi = t.seekPos(rg.Hi)
	}
	return lo, max(lo, hi)
}

// seekPos returns the index of the first key at or after position p.
func (t *DigestTree) seekPos(p uint64) int {
	lo, hi := t.leafSpan(p)
	return seek(t.keys, t.pos, lo, hi, p, "")
}

// foldLocked returns stripe si's digest tree at the replica's own depth
// (TreeDepth of its key count), brought up to date.
//
// A hot stripe's first request terms every key of its base once and builds
// the tree over it. From then on writers keep it current in place, so a
// request folds only the overlay: new keys, and writes that landed while a
// hold was out. With no hold out it merges them into the base where it is;
// with one out it first gives the stripe a copy of its base and tree
// (detachLocked), so that the held snapshot never moves. A paged stripe's
// tree has a key column of its own, rebuilt when the stripe moved: a key's
// term covers its content, so a cold copy's value is read through the page
// cache, and one that cannot be read is noted as a persist error, as Get
// notes it, and hashed as empty, which costs rounds a descent to the key,
// where the stamps decide, and never correctness. Stripe write lock held.
func (r *Replica) foldLocked(si int) *DigestTree {
	sh := &r.shards[si]
	if sh.cold != nil {
		if sh.tree == nil || sh.moved {
			r.buildPagedLocked(si)
		}
	} else {
		if len(sh.over) > 0 {
			if sh.holds.Load() > 0 {
				sh.detachLocked()
			}
			sh.mergeLocked()
		}
		sh.termLocked()
	}
	sh.moved = false
	return sh.tree
}

// termLocked terms every key of a hot stripe's base and builds its tree,
// unless it has one. Stripe write lock held.
func (sh *shard) termLocked() {
	if sh.tree != nil {
		return
	}
	for x := range sh.keys {
		sh.keys[x].Term = term(sh.keys[x].Digest, sh.vals[x].deleted, sh.vals[x].value)
	}
	sh.tree = newDigestTree(sh.keys, sh.pos, TreeDepth(len(sh.keys)))
}

// term returns the digest-tree term of a copy of d's key.
func term(d encoding.Digest, deleted bool, value []byte) uint64 {
	return encoding.DigestTerm(d, encoding.ContentHash(deleted, value))
}

// buildPagedLocked builds paged stripe si's tree over a key column of its
// own: a hot base laid over the stripe's keys, values included, whose tree
// the stripe keeps.
func (r *Replica) buildPagedLocked(si int) {
	sh := &r.shards[si]
	var ps []pending
	sh.eachLocked(func(k string, v Versioned, cold int) {
		v, err := r.loadLocked(si, k, v, cold)
		if err != nil {
			r.notePersistErr(fmt.Errorf("kvstore: digest tree %q (shard %d): %w", k, si, err))
		}
		ps = append(ps, pending{pos: encoding.TreePos(k), key: k, v: v})
	})
	var col shard
	col.installBase(ps)
	col.termLocked()
	sh.tree = col.tree
}

// foldStripe brings stripe i's tree up to date and returns it with its
// root, taking a hold on it when hold is set: the stripe then writes
// nothing the tree reads until the caller's ReleaseStripeTree. A current
// tree is served under the read lock.
func (r *Replica) foldStripe(i int, hold bool) (*DigestTree, uint64) {
	sh := &r.shards[i]
	sh.mu.RLock()
	if t := sh.tree; t != nil && !sh.moved && len(sh.over) == 0 {
		if hold {
			sh.holds.Add(1)
		}
		root := t.Root()
		sh.mu.RUnlock()
		return t, root
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := r.foldLocked(i)
	if hold {
		sh.holds.Add(1)
	}
	return t, t.Root()
}

// StripeTree returns stripe idx's digest tree at the replica's own depth,
// brought up to date with the keys written since the last request, and holds
// it: the tree, and every run read from it, stays as it is until the caller
// calls ReleaseStripeTree(idx), once per StripeTree call. A hold never
// released leaves the stripe's writes in its overlay and makes each later
// request copy the stripe, never costs correctness.
// A peer's tree of another depth compares with it node for node: read its
// nodes at the peer's levels (Children, Run).
func (r *Replica) StripeTree(idx int) (*DigestTree, error) {
	if idx < 0 || idx >= len(r.shards) {
		return nil, fmt.Errorf("kvstore: shard %d out of range of %d", idx, len(r.shards))
	}
	t, _ := r.foldStripe(idx, true)
	return t, nil
}

// ReleaseStripeTree releases a hold StripeTree took on stripe idx. The
// caller must not read the tree, or any run read from it, afterwards. A
// release with no hold out is a caller bug that would let a held tree move,
// so it panics.
func (r *Replica) ReleaseStripeTree(idx int) {
	if r.shards[idx].holds.Add(-1) < 0 {
		panic(fmt.Sprintf("kvstore: stripe %d tree released with no hold out", idx))
	}
}

// StripeRoot returns stripe idx's digest-tree root, brought up to date with
// the keys written since the last request. It holds nothing.
func (r *Replica) StripeRoot(idx int) (uint64, error) {
	if idx < 0 || idx >= len(r.shards) {
		return 0, fmt.Errorf("kvstore: shard %d out of range of %d", idx, len(r.shards))
	}
	_, root := r.foldStripe(idx, false)
	return root, nil
}

// FoldedStripeRoot returns stripe idx's digest-tree root only when no write
// landed since the tree was last requested. Otherwise ok is false. Unlike
// StripeRoot it never folds, so a caller that only asks whether anything
// moved (a pipelined root probe) never reads part of a burst of writes that
// is still landing.
func (r *Replica) FoldedStripeRoot(idx int) (root uint64, ok bool) {
	if idx < 0 || idx >= len(r.shards) {
		return 0, false
	}
	sh := &r.shards[idx]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if sh.tree == nil || sh.moved || len(sh.over) > 0 {
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
