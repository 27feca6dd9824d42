package kvstore

import (
	"fmt"
	"sort"
	"sync"

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

// diffScratch is the pooled per-call scratch of DiffRanges: the peer
// digests' local stripe assignments and their counting-sort grouping. Pooled
// so steady-state digest phases allocate nothing however often they run.
type diffScratch struct {
	stripeOf []int32 // local stripe owning peer[i].Key
	starts   []int   // bucket cursor per stripe (counting sort)
	order    []int32 // peer indices grouped by local stripe
}

var diffScratchPool = sync.Pool{New: func() any { return new(diffScratch) }}

// grow resizes the scratch for npeer digests over nshards stripes.
func (sc *diffScratch) grow(npeer, nshards int) {
	if cap(sc.stripeOf) < npeer {
		sc.stripeOf = make([]int32, npeer)
		sc.order = make([]int32, npeer)
	}
	sc.stripeOf = sc.stripeOf[:npeer]
	sc.order = sc.order[:npeer]
	if cap(sc.starts) < nshards+1 {
		sc.starts = make([]int, nshards+1)
	}
	sc.starts = sc.starts[:nshards+1]
	for i := range sc.starts {
		sc.starts[i] = 0
	}
}

// DiffRanges compares a peer digest with local state and reports which peer
// copies must travel in full. Only peer digests and local keys whose
// encoding.TreePos falls inside ranges take part — the tree descent has
// already narrowed divergence to a few position intervals. Read locks only;
// the comparison is advisory — ApplyDeltaRanges re-validates every key under
// write locks, so state changing between the two calls costs at most one
// extra round, never correctness.
//
// Peer digests are grouped by owning local stripe (counting sort over pooled
// scratch, no per-key maps), each stripe is read-locked once while its group
// is probed directly against the stripe map, and stamp classification runs
// through a batch Comparer — converged copies share interned update handles,
// so the common outcome is a pointer comparison. A converged pass allocates
// nothing beyond pool warm-up.
func (r *Replica) DiffRanges(peer []encoding.Digest, idx, of int, ranges []TreeRange) (Diff, error) {
	if err := checkScope(idx, of); err != nil {
		return Diff{}, err
	}
	for _, pd := range peer {
		if of > 0 && ShardIndex(pd.Key, of) != idx {
			return Diff{}, fmt.Errorf("kvstore: diff shard %d/%d: key %q belongs to shard %d",
				idx, of, pd.Key, ShardIndex(pd.Key, of))
		}
		if !RangesContain(ranges, encoding.TreePos(pd.Key)) {
			return Diff{}, fmt.Errorf("kvstore: diff shard %d/%d: key %q outside the scoped ranges",
				idx, of, pd.Key)
		}
	}
	nShards := len(r.shards)
	scoped := of > 0 && nShards == of // in-scope keys live in local stripe idx only

	sc := diffScratchPool.Get().(*diffScratch)
	defer diffScratchPool.Put(sc)
	sc.grow(len(peer), nShards)
	if scoped {
		for i := range peer {
			sc.stripeOf[i] = int32(idx)
		}
	} else {
		for i, pd := range peer {
			sc.stripeOf[i] = int32(ShardIndex(pd.Key, nShards))
		}
	}
	// Counting sort: starts[s] ends up as the first order-index of stripe s,
	// order holds peer indices grouped by stripe in input (key) order.
	for _, s := range sc.stripeOf {
		sc.starts[s+1]++
	}
	for s := 1; s <= nShards; s++ {
		sc.starts[s] += sc.starts[s-1]
	}
	cursor := sc.starts
	for i, s := range sc.stripeOf {
		sc.order[cursor[s]] = int32(i)
		cursor[s]++
	}
	// cursor[s] now marks the end of stripe s's group (and the start of
	// stripe s+1's), so group s spans [prevEnd, cursor[s]).

	var d Diff
	var cmp core.Comparer
	matched, localInScope := 0, 0
	groupStart := 0
	for si := 0; si < nShards; si++ {
		groupEnd := cursor[si]
		group := sc.order[groupStart:groupEnd]
		groupStart = groupEnd
		if scoped && si != idx {
			continue // layouts agree: stripe si cannot hold in-scope keys
		}
		sh := &r.shards[si]
		sh.mu.RLock()
		switch {
		case ranges == nil && (of == 0 || scoped):
			localInScope += sh.countLocked()
		default:
			// Foreign layout (in-scope keys may live anywhere) or a
			// range-scoped round (only positions inside the ranges count).
			sh.eachMetaLocked(func(k string, _ bool, _ core.Stamp) {
				if of > 0 && !scoped && ShardIndex(k, of) != idx {
					return
				}
				if !RangesContain(ranges, encoding.TreePos(k)) {
					return
				}
				localInScope++
			})
		}
		for _, pi := range group {
			pd := &peer[pi]
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
// against local state and returns the entries the peer must adopt to
// converge. Local state is mutated exactly as Sync would mutate it —
// transfers fork stamps, dominance reconciles, conflicts use the resolver or
// stay reported — and every key the stamps already prove equivalent is
// pruned: it is neither touched nor returned. Peer digests and entries must
// fall inside ranges, and only in-range local keys are enumerated as
// local-only — so the local keys of the divergent subtrees transfer without
// every unmentioned in-stripe key being treated as missing on the peer.
//
// Keys whose digest says this side should dominate but whose local copy
// moved since DiffRanges (a concurrent writer) are skipped this round; the
// next digest exchange reconciles them.
func (r *Replica) ApplyDeltaRanges(peerDigest []encoding.Digest, peerEntries []encoding.Entry,
	resolve Resolver, idx, of int, ranges []TreeRange) ([]encoding.Entry, SyncResult, error) {
	if err := checkScope(idx, of); err != nil {
		return nil, SyncResult{}, err
	}
	full := make(map[string]Versioned, len(peerEntries))
	for _, e := range peerEntries {
		if of > 0 && ShardIndex(e.Key, of) != idx {
			return nil, SyncResult{}, fmt.Errorf("kvstore: delta shard %d/%d: key %q belongs to shard %d",
				idx, of, e.Key, ShardIndex(e.Key, of))
		}
		if !RangesContain(ranges, encoding.TreePos(e.Key)) {
			return nil, SyncResult{}, fmt.Errorf("kvstore: delta shard %d/%d: key %q outside the scoped ranges",
				idx, of, e.Key)
		}
		full[e.Key] = Versioned{Value: e.Value, Deleted: e.Deleted, Stamp: e.Stamp}
	}
	stampOf := make(map[string]core.Stamp, len(peerDigest))
	for _, pd := range peerDigest {
		if of > 0 && ShardIndex(pd.Key, of) != idx {
			return nil, SyncResult{}, fmt.Errorf("kvstore: delta shard %d/%d: key %q belongs to shard %d",
				idx, of, pd.Key, ShardIndex(pd.Key, of))
		}
		if !RangesContain(ranges, encoding.TreePos(pd.Key)) {
			return nil, SyncResult{}, fmt.Errorf("kvstore: delta shard %d/%d: key %q outside the scoped ranges",
				idx, of, pd.Key)
		}
		stampOf[pd.Key] = pd.Stamp
	}

	// Registered before the locks so it runs after they release: group-commit
	// barriers must never be awaited under stripe locks.
	defer r.awaitDurable()
	r.lockScope(idx, of)
	defer r.unlockScope(idx, of)

	keys := make(map[string]struct{}, len(stampOf))
	for k := range stampOf {
		keys[k] = struct{}{}
	}
	for k := range full {
		keys[k] = struct{}{}
	}
	for i := range r.shards {
		if of > 0 && len(r.shards) == of && i != idx {
			continue
		}
		r.shards[i].eachMetaLocked(func(k string, _ bool, _ core.Stamp) {
			if of > 0 && ShardIndex(k, of) != idx {
				return
			}
			if !RangesContain(ranges, encoding.TreePos(k)) {
				return
			}
			keys[k] = struct{}{}
		})
	}

	var res SyncResult
	var reply []encoding.Entry
	var cmp core.Comparer // batch memo: digest stamps recur across keys
	for _, k := range sortedKeys(keys) {
		// The peer's side of the reconcile is a held slot whose result is
		// the reply entry; it is absent for a local-only key, which then
		// transfers.
		cs := [2]keyCopy{r.heldLocked(k), {held: true}}
		if pv, ok := full[k]; ok {
			cs[1].Versioned, cs[1].ok = pv, true
		} else if ps, ok := stampOf[k]; ok {
			if !cs[0].ok {
				// Peer-only key that did not arrive in full: under-sent or
				// tombstone-raced; leave for the next round.
				continue
			}
			switch classify(&cmp, cs[0].Stamp, ps) {
			case core.Equal:
				res.Pruned++
				continue
			case core.After:
				// Dominance reconciliation needs only the peer's stamp: the
				// value that survives is ours.
				cs[1].Stamp, cs[1].ok = ps, true
			default:
				// The digest promised dominance but local state moved (or
				// the peer under-sent), or the copies are independent: either
				// way the peer's value is needed and did not arrive. The next
				// round's digest exchange catches it.
				continue
			}
		}
		part, err := reconcile(k, cs[:], resolve)
		res.add(part)
		if err != nil {
			sort.Strings(res.Conflicts)
			return reply, res, err
		}
		if part.Transferred+part.Reconciled+part.Merged == 0 {
			// Conflict skipped (reported) or stamps proved equivalence after
			// all — either way the peer's copy must not be overwritten.
			if len(part.Conflicts) == 0 {
				res.Pruned++
			}
			continue
		}
		out := cs[1]
		reply = append(reply, encoding.Entry{
			Key: k, Value: out.Value, Deleted: out.Deleted, Stamp: out.Stamp,
		})
	}
	sort.Strings(res.Conflicts)
	return reply, res, nil
}

// ApplyDeltaReply installs the responder's reply entries — the initiator
// half of the apply. sent maps each key to the stamp this replica shipped in
// its digest or full entry; a reply entry is applied only if the local copy
// still carries exactly that stamp (or the key is still absent, for keys the
// digest did not mention). Copies that moved concurrently are left alone —
// the round's fork is simply abandoned on this side, which only discards id
// space, never causality — and the next round reconciles them. Returns how
// many entries were applied.
func (r *Replica) ApplyDeltaReply(entries []encoding.Entry, sent map[string]core.Stamp,
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
		want, wasSent := sent[e.Key]
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
