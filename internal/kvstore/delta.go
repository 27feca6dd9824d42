package kvstore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
)

// This file is the store half of an anti-entropy round's leaf phase: the
// initiator ships per-key digests (key + stamp, no value) for the position
// ranges the tree descent (tree.go) left divergent, and the responder decides
// locally which copies the stamps cannot prove equivalent; only those travel
// in full. The paper's whole point is that stamp comparison classifies two
// copies as equivalent, obsolete or conflicting without looking at the data.
//
// The scope arguments (idx, of): of > 0 restricts the call to the keys of
// stripe idx under a layout of `of` stripes, locking only the matching local
// stripe when this replica's layout agrees; of == 0 covers the whole
// keyspace under all stripe locks. ranges narrows the scope further to tree
// positions; nil means every position.

// Diff classifies a peer's digest against local state — what DiffRanges
// reports on the responding side.
type Diff struct {
	// Need lists peer keys whose full copies are required to reconcile:
	// keys unknown here, keys where the peer dominates, and keys the stamps
	// call concurrent or causally unrelated. Sorted.
	Need []string
	// Equivalent counts peer keys whose stamps proved the copies identical;
	// they are pruned from the wire entirely.
	Equivalent int
	// LocalOnly counts in-scope local keys the peer digest does not
	// mention; their copies must travel to the peer.
	LocalOnly int
}

// deltaScope is a delta call's (idx, of, ranges) scope resolved against this
// replica's layout. Both halves of the leaf phase walk it in tree order: by
// local stripe, then by (position, key) — the order of a stripe's digest
// tree, so the in-range local keys come straight off RunRange.
type deltaScope struct {
	idx, of int
	nShards int
	scoped  bool        // layouts agree: in-scope keys live in local stripe idx only
	ranges  []TreeRange // sorted and disjoint; nil covers every position
}

// wholeSpace is the one range of an unscoped call.
var wholeSpace = []TreeRange{{}}

func (r *Replica) deltaScope(idx, of int, ranges []TreeRange) (deltaScope, error) {
	if err := checkScope(idx, of); err != nil {
		return deltaScope{}, err
	}
	cmpLo := func(a, b TreeRange) int { return cmp.Compare(a.Lo, b.Lo) }
	if !slices.IsSortedFunc(ranges, cmpLo) {
		ranges = slices.Clone(ranges)
		slices.SortFunc(ranges, cmpLo)
	}
	for i := 1; i < len(ranges); i++ {
		if prev := ranges[i-1]; prev.Hi == 0 || prev.Hi > ranges[i].Lo {
			return deltaScope{}, fmt.Errorf("kvstore: delta shard %d/%d: overlapping ranges", idx, of)
		}
	}
	return deltaScope{idx: idx, of: of, nShards: len(r.shards),
		scoped: of > 0 && len(r.shards) == of, ranges: ranges}, nil
}

// stripes returns the local stripes [first, end) in-scope keys can live in.
func (sc *deltaScope) stripes() (first, end int) {
	if sc.scoped {
		return sc.idx, sc.idx + 1
	}
	return 0, sc.nShards
}

// stripeOf returns the local stripe holding key.
func (sc *deltaScope) stripeOf(key string) int {
	if sc.scoped {
		return sc.idx
	}
	return ShardIndex(key, sc.nShards)
}

// owns reports whether a local key belongs to the scope's stripe.
func (sc *deltaScope) owns(key string) bool {
	return sc.of == 0 || sc.scoped || ShardIndex(key, sc.of) == sc.idx
}

// cmp orders keys in the scope's walk order: local stripe, then tree order.
func (sc *deltaScope) cmp(a, b string) int {
	if !sc.scoped {
		if c := cmp.Compare(sc.stripeOf(a), sc.stripeOf(b)); c != 0 {
			return c
		}
	}
	return cmpPosKey(encoding.TreePos(a), a, encoding.TreePos(b), b)
}

func digestKey(d encoding.Digest) string { return d.Key }
func entryKey(e encoding.Entry) string   { return e.Key }

// inWalkOrder puts the peer's xs into walk order in place — input that
// already is, as every digest run a tree round ships, is only checked — and
// verifies in one pass, with a range cursor per local stripe, that each key
// belongs to the scope's stripe and falls inside its ranges.
func inWalkOrder[T any](sc *deltaScope, what string, xs []T, key func(T) string) error {
	f := func(a, b T) int { return sc.cmp(key(a), key(b)) }
	if !slices.IsSortedFunc(xs, f) {
		slices.SortFunc(xs, f)
	}
	c, stripe := 0, -1
	for _, x := range xs {
		k := key(x)
		if sc.of > 0 && ShardIndex(k, sc.of) != sc.idx {
			return fmt.Errorf("kvstore: %s shard %d/%d: key %q belongs to shard %d",
				what, sc.idx, sc.of, k, ShardIndex(k, sc.of))
		}
		if sc.ranges == nil {
			continue
		}
		if s := sc.stripeOf(k); s != stripe {
			c, stripe = 0, s
		}
		p := encoding.TreePos(k)
		for c < len(sc.ranges) && sc.ranges[c].Hi != 0 && sc.ranges[c].Hi <= p {
			c++
		}
		if c == len(sc.ranges) || !sc.ranges[c].Contains(p) {
			return fmt.Errorf("kvstore: %s shard %d/%d: key %q outside the scoped ranges",
				what, sc.idx, sc.of, k)
		}
	}
	return nil
}

// stripeSpan splits walk-ordered xs into the elements of local stripe si and
// the rest.
func stripeSpan[T any](sc *deltaScope, si int, xs []T, key func(T) string) (span, rest []T) {
	i := 0
	for i < len(xs) && sc.stripeOf(key(xs[i])) == si {
		i++
	}
	return xs[:i], xs[i:]
}

// count returns how many of t's digests are in scope.
func (sc *deltaScope) count(t *DigestTree) int {
	ranges := sc.ranges
	if ranges == nil {
		ranges = wholeSpace
	}
	n := 0
	for _, rg := range ranges {
		for _, d := range t.RunRange(rg) {
			if sc.owns(d.Key) {
				n++
			}
		}
	}
	return n
}

// walk calls fn once per in-scope key of one local stripe, in tree order:
// the keys of the stripe's tree t and of extra (keys written since t, in
// tree order), and the peer's digests ds and entries es for the stripe
// (walk-ordered, checked to lie in scope). fn gets the peer's digest and
// entry for the key, or nil where the peer sent none. Each range is one
// merge of four sorted runs; no key set is built.
func (sc *deltaScope) walk(t *DigestTree, extra []string, ds []encoding.Digest, es []encoding.Entry,
	fn func(key string, d *encoding.Digest, e *encoding.Entry) error) error {
	ranges := sc.ranges
	if ranges == nil {
		ranges = wholeSpace
	}
	for _, rg := range ranges {
		local := t.RunRange(rg)
		for len(extra) > 0 && encoding.TreePos(extra[0]) < rg.Lo {
			extra = extra[1:]
		}
		for {
			key, pos, ok := "", uint64(0), false
			least := func(k string, inRange bool) {
				if !inRange {
					return
				}
				if p := encoding.TreePos(k); !ok || cmpPosKey(p, k, pos, key) < 0 {
					key, pos, ok = k, p, true
				}
			}
			for len(local) > 0 && !sc.owns(local[0].Key) {
				local = local[1:]
			}
			if len(local) > 0 {
				least(local[0].Key, true)
			}
			if len(extra) > 0 {
				least(extra[0], rg.Contains(encoding.TreePos(extra[0])))
			}
			if len(ds) > 0 {
				least(ds[0].Key, rg.Contains(encoding.TreePos(ds[0].Key)))
			}
			if len(es) > 0 {
				least(es[0].Key, rg.Contains(encoding.TreePos(es[0].Key)))
			}
			if !ok {
				break
			}
			var d *encoding.Digest
			var e *encoding.Entry
			for len(local) > 0 && local[0].Key == key {
				local = local[1:]
			}
			for len(extra) > 0 && extra[0] == key {
				extra = extra[1:]
			}
			for len(ds) > 0 && ds[0].Key == key {
				d, ds = &ds[0], ds[1:]
			}
			for len(es) > 0 && es[0].Key == key {
				e, es = &es[0], es[1:]
			}
			if err := fn(key, d, e); err != nil {
				return err
			}
		}
	}
	return nil
}

// DiffRanges compares a peer digest with local state and reports which peer
// copies must travel in full. Only peer digests and local keys whose
// encoding.TreePos falls inside ranges take part — the tree descent has
// already narrowed divergence to a few position intervals, given sorted by
// Lo and disjoint. Read locks only; the comparison is advisory —
// ApplyDeltaRanges re-validates every key under write locks, so state
// changing between the two calls costs at most one extra round, never
// correctness.
//
// peer is put into tree order in place (a round's digests already are). Each
// local stripe is read-locked once while its span of peer digests is probed
// against the stripe map, stamp classification runs through a batch
// Comparer — converged copies share interned update handles, so the common
// outcome is a pointer comparison — and the in-scope local keys are counted
// off the stripe's digest tree, never by scanning the stripe.
func (r *Replica) DiffRanges(peer []encoding.Digest, idx, of int, ranges []TreeRange) (Diff, error) {
	sc, err := r.deltaScope(idx, of, ranges)
	if err != nil {
		return Diff{}, err
	}
	if err := inWalkOrder(&sc, "diff", peer, digestKey); err != nil {
		return Diff{}, err
	}
	var d Diff
	var cmp core.Comparer
	matched, localInScope := 0, 0
	first, end := sc.stripes()
	for si := first; si < end; si++ {
		var group []encoding.Digest
		group, peer = stripeSpan(&sc, si, peer, digestKey)
		// A stripe's own keys are all in scope unless ranges or a foreign
		// layout narrow it; then its tree, brought current first (a tree
		// request takes the read lock itself), counts them.
		var t *DigestTree
		if ranges != nil || of > 0 && !sc.scoped {
			t = r.stripeTree(si)
		}
		sh := &r.shards[si]
		sh.mu.RLock()
		if t == nil {
			localInScope += sh.countLocked()
		} else {
			localInScope += sc.count(t)
		}
		for i := range group {
			pd := &group[i]
			v, ok := sh.metaLocked(pd.Key)
			if !ok {
				d.Need = append(d.Need, pd.Key) // unknown here: the copy must travel
				continue
			}
			matched++
			switch classify(&cmp, v.Stamp, pd.Stamp) {
			case core.Equal:
				d.Equivalent++
			case core.After:
				// We dominate: our copy travels in the reply, theirs need not.
			default:
				// Before, Concurrent, or independent copies with no causal
				// order: reconciliation needs the peer's value.
				d.Need = append(d.Need, pd.Key)
			}
		}
		sh.mu.RUnlock()
	}
	// Peer digests are unique-keyed (a tree's runs hold each key once),
	// so every in-scope local key the probes did not match is local-only.
	// Clamped so a malformed duplicate-keyed digest cannot report negative.
	if d.LocalOnly = localInScope - matched; d.LocalOnly < 0 {
		d.LocalOnly = 0
	}
	sort.Strings(d.Need)
	// A malformed duplicate-keyed digest would also duplicate its key in
	// Need (each entry is probed independently); compact the sorted list so
	// the need frame never requests a key twice.
	d.Need = compactSorted(d.Need)
	return d, nil
}

// compactSorted removes adjacent duplicates from a sorted slice in place.
func compactSorted(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// ApplyDeltaRanges runs the responder's apply: it reconciles the peer's full
// entries (and, for keys this side dominates, just their digest stamps)
// against local state and appends to reply, sorted by key, the entries the
// peer must adopt to converge. Local state is mutated exactly as Sync would mutate it
// — transfers fork stamps, dominance reconciles, conflicts use the resolver
// or stay reported — and every key the stamps already prove equivalent is
// pruned: it is neither touched nor returned. Peer digests and entries must
// fall inside ranges (sorted by Lo, disjoint), and only in-range local keys
// are enumerated as local-only — so the local keys of the divergent subtrees
// transfer without every unmentioned in-stripe key being treated as missing
// on the peer.
//
// The walk is a merge in tree order, with peerDigest and peerEntries put
// into that order in place: each local stripe's digest tree is brought
// current just before the write locks are taken, and under them its
// in-range keys plus the keys writers noted in the stripe's dirty set since
// are exactly the stripe's current keys. (A dirty set that overflowed in
// that window is gone; a local-only key written then waits for the next
// round.)
//
// Keys whose digest says this side should dominate but whose local copy
// moved since DiffRanges (a concurrent writer) are skipped this round; the
// next digest exchange reconciles them.
func (r *Replica) ApplyDeltaRanges(reply []encoding.Entry, peerDigest []encoding.Digest, peerEntries []encoding.Entry,
	resolve Resolver, idx, of int, ranges []TreeRange) ([]encoding.Entry, SyncResult, error) {
	sc, err := r.deltaScope(idx, of, ranges)
	if err != nil {
		return reply, SyncResult{}, err
	}
	if err := inWalkOrder(&sc, "delta", peerEntries, entryKey); err != nil {
		return reply, SyncResult{}, err
	}
	if err := inWalkOrder(&sc, "delta", peerDigest, digestKey); err != nil {
		return reply, SyncResult{}, err
	}

	first, end := sc.stripes()
	trees := make([]*DigestTree, end-first)
	for si := first; si < end; si++ {
		trees[si-first] = r.stripeTree(si)
	}
	// Registered before the locks so it runs after they release: group-commit
	// barriers must never be awaited under stripe locks.
	defer r.awaitDurable()
	r.lockScope(idx, of)
	defer r.unlockScope(idx, of)

	var res SyncResult
	var cmp core.Comparer // batch memo: digest stamps recur across keys
	start := len(reply)
	apply := func(k string, pd *encoding.Digest, pe *encoding.Entry) error {
		// The peer's side of the reconcile is a held slot whose result is
		// the reply entry; it is absent for a local-only key, which then
		// transfers.
		cs := [2]keyCopy{r.heldLocked(k), {held: true}}
		switch {
		case pe != nil:
			cs[1].Versioned = Versioned{Value: pe.Value, Deleted: pe.Deleted, Stamp: pe.Stamp}
			cs[1].ok = true
		case pd != nil:
			if !cs[0].ok {
				// Peer-only key that did not arrive in full: under-sent or
				// tombstone-raced; leave for the next round.
				return nil
			}
			switch classify(&cmp, cs[0].Stamp, pd.Stamp) {
			case core.Equal:
				res.Pruned++
				return nil
			case core.After:
				// Dominance reconciliation needs only the peer's stamp: the
				// value that survives is ours.
				cs[1].Stamp, cs[1].ok = pd.Stamp, true
			default:
				// The digest promised dominance but local state moved (or
				// the peer under-sent), or the copies are independent: either
				// way the peer's value is needed and did not arrive. The next
				// round's digest exchange catches it.
				return nil
			}
		case !cs[0].ok:
			return nil // left the stripe since its tree saw it; the peer never had it
		}
		part, err := reconcile(k, cs[:], resolve)
		res.add(part)
		if err != nil {
			return err
		}
		if part.Transferred+part.Reconciled+part.Merged == 0 {
			// Conflict skipped (reported) or stamps proved equivalence after
			// all — either way the peer's copy must not be overwritten.
			if len(part.Conflicts) == 0 {
				res.Pruned++
			}
			return nil
		}
		out := cs[1]
		reply = append(reply, encoding.Entry{
			Key: k, Value: out.Value, Deleted: out.Deleted, Stamp: out.Stamp,
		})
		return nil
	}
	var extra []string
	for si := first; si < end; si++ {
		sh := &r.shards[si]
		extra = extra[:0]
		for k := range sh.dirty {
			if sc.owns(k) {
				extra = append(extra, k)
			}
		}
		slices.SortFunc(extra, sc.cmp)
		var ds []encoding.Digest
		var es []encoding.Entry
		ds, peerDigest = stripeSpan(&sc, si, peerDigest, digestKey)
		es, peerEntries = stripeSpan(&sc, si, peerEntries, entryKey)
		if err = sc.walk(trees[si-first], extra, ds, es, apply); err != nil {
			break
		}
	}
	sort.Strings(res.Conflicts)
	slices.SortFunc(reply[start:], func(a, b encoding.Entry) int { return strings.Compare(a.Key, b.Key) })
	return reply, res, err
}

// ApplyDeltaReply installs the responder's reply entries — the initiator
// half of the apply. sent reports the stamp this replica shipped for a key
// in its digest or full entry, and whether it shipped one; a reply entry is
// applied only if the local copy still carries exactly that stamp (or the
// key is still absent, for keys the digest did not mention). Copies that
// moved concurrently are left alone — the round's fork is simply abandoned
// on this side, which only discards id space, never causality — and the
// next round reconciles them. Returns how many entries were applied.
func (r *Replica) ApplyDeltaReply(entries []encoding.Entry, sent func(key string) (core.Stamp, bool),
	idx, of int) (int, error) {
	if err := checkScope(idx, of); err != nil {
		return 0, err
	}
	applied := 0
	for _, e := range entries {
		if of > 0 && ShardIndex(e.Key, of) != idx {
			return applied, fmt.Errorf("kvstore: delta reply shard %d/%d: key %q belongs to shard %d",
				idx, of, e.Key, ShardIndex(e.Key, of))
		}
		si := ShardIndex(e.Key, len(r.shards))
		sh := &r.shards[si]
		sh.lockMut()
		cur, has := sh.metaLocked(e.Key)
		want, wasSent := sent(e.Key)
		ok := (wasSent && has && cur.Stamp.Equal(want)) || (!wasSent && !has)
		if ok {
			v := Versioned{
				Value:   append([]byte(nil), e.Value...),
				Deleted: e.Deleted,
				Stamp:   e.Stamp,
			}
			sh.data[e.Key] = v
			sh.noteTombLocked(e.Key)
			r.logSet(si, e.Key, v)
			applied++
		}
		sh.mu.Unlock()
	}
	r.awaitDurable()
	return applied, nil
}

// checkScope validates a (idx, of) scope pair.
func checkScope(idx, of int) error {
	if of == 0 {
		return nil
	}
	if of < 0 || idx < 0 || idx >= of {
		return fmt.Errorf("kvstore: shard %d out of range of %d", idx, of)
	}
	return nil
}

// lockScope write-locks the stripes a scoped delta apply may touch: just
// stripe idx when this replica's layout matches `of`, every stripe
// otherwise (scope keys may live anywhere, or of == 0 means the whole
// keyspace).
func (r *Replica) lockScope(idx, of int) {
	if of > 0 && len(r.shards) == of {
		r.shards[idx].lockMut()
		return
	}
	for i := range r.shards {
		r.shards[i].lockMut()
	}
}

func (r *Replica) unlockScope(idx, of int) {
	if of > 0 && len(r.shards) == of {
		r.shards[idx].mu.Unlock()
		return
	}
	for i := range r.shards {
		r.shards[i].mu.Unlock()
	}
}
