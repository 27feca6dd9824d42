package kvstore

import (
	"bytes"
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
// Every call is scoped to one stripe of this replica and to position ranges
// of that stripe's digest tree, sorted by Lo and disjoint; the zero TreeRange
// covers the whole stripe. The peer stripes the keyspace the same way (the
// wire layer refuses any other peer), so the scope's keys all live in the
// one local stripe, and only its lock is taken.
//
// The reply is split the same way. A stamp identifies a version, so a copy
// whose outcome value is the one the peer shipped in full goes back as a
// restamp — key and new stamp, the digest shape — and the peer keeps the
// value it already holds. Only copies whose value the peer lacks travel in
// full.

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

// deltaScope is a delta call's (stripe, ranges) scope. Both halves of the
// leaf phase walk it in tree order, by (position, key) — the order of the
// stripe's digest tree, so the in-range local keys come straight off RunRange.
type deltaScope struct {
	idx, of int         // the stripe, and this replica's stripe count
	ranges  []TreeRange // sorted and disjoint
}

func (r *Replica) deltaScope(idx int, ranges []TreeRange) (deltaScope, error) {
	if idx < 0 || idx >= len(r.shards) {
		return deltaScope{}, fmt.Errorf("kvstore: shard %d out of range of %d", idx, len(r.shards))
	}
	cmpLo := func(a, b TreeRange) int { return cmp.Compare(a.Lo, b.Lo) }
	if !slices.IsSortedFunc(ranges, cmpLo) {
		ranges = slices.Clone(ranges)
		slices.SortFunc(ranges, cmpLo)
	}
	for i := 1; i < len(ranges); i++ {
		if prev := ranges[i-1]; prev.Hi == 0 || prev.Hi > ranges[i].Lo {
			return deltaScope{}, fmt.Errorf("kvstore: delta shard %d: overlapping ranges", idx)
		}
	}
	return deltaScope{idx: idx, of: len(r.shards), ranges: ranges}, nil
}

// cmpTreeOrder orders keys in tree order.
func cmpTreeOrder(a, b string) int {
	return cmpPosKey(encoding.TreePos(a), a, encoding.TreePos(b), b)
}

func digestKey(d encoding.Digest) string { return d.Key }
func entryKey(e encoding.Entry) string   { return e.Key }

// inWalkOrder puts the peer's xs into tree order in place — input that
// already is, as every digest run a tree round ships, is only checked — and
// verifies in one pass, with a range cursor, that each key belongs to the
// scope's stripe and falls inside its ranges.
func inWalkOrder[T any](sc *deltaScope, what string, xs []T, key func(T) string) error {
	f := func(a, b T) int { return cmpTreeOrder(key(a), key(b)) }
	if !slices.IsSortedFunc(xs, f) {
		slices.SortFunc(xs, f)
	}
	c := 0
	for _, x := range xs {
		k := key(x)
		if s := ShardIndex(k, sc.of); s != sc.idx {
			return fmt.Errorf("kvstore: %s shard %d: key %q belongs to shard %d", what, sc.idx, k, s)
		}
		p := encoding.TreePos(k)
		for c < len(sc.ranges) && sc.ranges[c].Hi != 0 && sc.ranges[c].Hi <= p {
			c++
		}
		if c == len(sc.ranges) || !sc.ranges[c].Contains(p) {
			return fmt.Errorf("kvstore: %s shard %d: key %q outside the scoped ranges", what, sc.idx, k)
		}
	}
	return nil
}

// count returns how many of t's digests are in scope, gathering no runs.
func (sc *deltaScope) count(t *DigestTree) int {
	n := 0
	for _, rg := range sc.ranges {
		if rg == (TreeRange{}) {
			n += t.Len() // the whole stripe, without visiting its leaves
		} else {
			n += t.rangeLen(rg)
		}
	}
	return n
}

// walk calls fn once per in-scope key, in tree order: the keys of the
// stripe's tree t and of extra (keys written since t, in tree order), and the
// peer's digests ds and entries es (tree-ordered, checked to lie in scope).
// fn gets the peer's digest and entry for the key, or nil where the peer sent
// none. Each range is one merge of four sorted runs; no key set is built.
func (sc *deltaScope) walk(t *DigestTree, extra []string, ds []encoding.Digest, es []encoding.Entry,
	fn func(key string, d *encoding.Digest, e *encoding.Entry) error) error {
	for _, rg := range sc.ranges {
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

// DiffRanges compares a peer digest of stripe idx with local state and
// reports which peer copies must travel in full. Only peer digests and local
// keys whose encoding.TreePos falls inside ranges take part — the tree
// descent has already narrowed divergence to a few position intervals. Read
// locks only; the comparison is advisory — ApplyDeltaRanges re-validates
// every key under the write lock, so state changing between the two calls
// costs at most one extra round, never correctness.
//
// peer is put into tree order in place (a round's digests already are). The
// stripe is read-locked once while the peer digests are probed against the
// stripe map, stamp classification runs through a batch Comparer — converged
// copies share interned update handles, so the common outcome is a pointer
// comparison — and the in-scope local keys are counted off the stripe's
// digest tree, never by scanning the stripe.
func (r *Replica) DiffRanges(peer []encoding.Digest, idx int, ranges []TreeRange) (Diff, error) {
	sc, err := r.deltaScope(idx, ranges)
	if err != nil {
		return Diff{}, err
	}
	if err := inWalkOrder(&sc, "diff", peer, digestKey); err != nil {
		return Diff{}, err
	}
	var d Diff
	var cmp core.Comparer
	matched := 0
	// The tree is brought current before the read lock: a tree request
	// takes it itself.
	t := r.stripeTree(idx)
	sh := &r.shards[idx]
	sh.mu.RLock()
	localInScope := sc.count(t)
	for i := range peer {
		pd := &peer[i]
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

// DeltaReply is what a responder's apply hands the initiator to adopt. Each
// ApplyDeltaRanges call appends its part of each list sorted by key.
type DeltaReply struct {
	// Restamps are copies whose outcome value is the one the peer shipped
	// in full: the peer keeps its value and takes only the new stamp.
	Restamps []encoding.Digest
	// Entries are the full copies for everything else: merged and
	// responder-won values, and keys the peer sent only a digest of.
	Entries []encoding.Entry
}

// Len returns how many keys the reply names.
func (d DeltaReply) Len() int { return len(d.Restamps) + len(d.Entries) }

// ApplyDeltaRanges runs the responder's apply for stripe idx: it reconciles
// the peer's full entries (and, for keys this side dominates, just their
// digest stamps) against local state and appends to reply what the peer must
// adopt to converge, each list sorted by key. A key goes into Restamps when
// the peer shipped its entry and the outcome keeps that entry's value — a
// peer-won transfer or reconcile, or a byte-identical concurrent pair — and
// into Entries otherwise. Local state is mutated exactly as Sync would
// mutate it — transfers fork stamps, dominance reconciles,
// conflicts use the resolver or stay reported — and every key the stamps
// already prove equivalent is pruned: it is neither touched nor returned.
// Peer digests and entries must fall inside ranges, and only in-range local
// keys are enumerated as local-only — so the local keys of the divergent
// subtrees transfer without every unmentioned in-stripe key being treated as
// missing on the peer.
//
// The walk is a merge in tree order, with peerDigest and peerEntries put
// into that order in place: the stripe's digest tree is brought current just
// before the write lock is taken, and under it its in-range keys plus the
// keys writers noted in the stripe's dirty set since are exactly the
// stripe's current keys. (A dirty set that overflowed in that window is
// gone; a local-only key written then waits for the next round.)
//
// Keys whose digest says this side should dominate but whose local copy
// moved since DiffRanges (a concurrent writer) are skipped this round; the
// next digest exchange reconciles them.
func (r *Replica) ApplyDeltaRanges(reply DeltaReply, peerDigest []encoding.Digest, peerEntries []encoding.Entry,
	resolve Resolver, idx int, ranges []TreeRange) (DeltaReply, SyncResult, error) {
	sc, err := r.deltaScope(idx, ranges)
	if err != nil {
		return reply, SyncResult{}, err
	}
	if err := inWalkOrder(&sc, "delta", peerEntries, entryKey); err != nil {
		return reply, SyncResult{}, err
	}
	if err := inWalkOrder(&sc, "delta", peerDigest, digestKey); err != nil {
		return reply, SyncResult{}, err
	}

	t := r.stripeTree(idx)
	// Registered before the lock so it runs after it releases: group-commit
	// barriers must never be awaited under stripe locks.
	defer r.awaitDurable()
	sh := &r.shards[idx]
	sh.lockMut()
	defer sh.mu.Unlock()

	var res SyncResult
	var cmp core.Comparer // batch memo: digest stamps recur across keys
	startR, startE := len(reply.Restamps), len(reply.Entries)
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
		part, err := reconcile(k, cs[:], resolve, false)
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
		if pe != nil && out.Deleted == pe.Deleted && (out.Deleted || bytes.Equal(out.Value, pe.Value)) {
			reply.Restamps = append(reply.Restamps, encoding.Digest{Key: k, Stamp: out.Stamp})
			return nil
		}
		reply.Entries = append(reply.Entries, encoding.Entry{
			Key: k, Value: out.Value, Deleted: out.Deleted, Stamp: out.Stamp,
		})
		return nil
	}
	var extra []string
	for k := range sh.dirty {
		extra = append(extra, k)
	}
	slices.SortFunc(extra, cmpTreeOrder)
	err = sc.walk(t, extra, peerDigest, peerEntries, apply)
	sort.Strings(res.Conflicts)
	slices.SortFunc(reply.Restamps[startR:], func(a, b encoding.Digest) int { return strings.Compare(a.Key, b.Key) })
	slices.SortFunc(reply.Entries[startE:], func(a, b encoding.Entry) int { return strings.Compare(a.Key, b.Key) })
	return reply, res, err
}

// ApplyDeltaReply installs the responder's reply — the initiator half of the
// apply. full lists the entries this replica shipped in full, sorted by key,
// and sent reports the stamp it shipped for a key in its digest or full
// entry, and whether it shipped one.
//
// A reply copy is applied only if the local copy still carries exactly the
// stamp shipped (or, for an entry, the key is still absent, for keys the
// digest did not mention). A restamp applies only to a key in full; it keeps
// the local value and swaps in the new stamp, copying no value (a cold copy
// of a paged replica is faulted in, so its log record carries the value).
//
// A copy shipped in full may also have been overwritten here with its stamp
// unchanged: until the round's fork lands, a write at an element whose
// update component already covers its id leaves the stamp as it was. Only
// the value shows such a write, so it is compared too. A restamp then keeps
// the newer copy under the restamp updated, since the newer copy supersedes
// the one shipped that the responder now holds — under the bare restamp the
// two different values would compare Equal. An entry is then refused, like
// any copy that moved.
//
// Refused copies are left alone — the round's fork is simply abandoned on
// this side, which only discards id space, never causality — and the next
// round reconciles them. Returns how many reply copies were applied.
func (r *Replica) ApplyDeltaReply(reply DeltaReply, full []encoding.Entry, sent func(key string) (core.Stamp, bool)) int {
	shipped := func(key string) (encoding.Entry, bool) {
		i, ok := slices.BinarySearchFunc(full, key, func(e encoding.Entry, k string) int { return strings.Compare(e.Key, k) })
		if !ok {
			return encoding.Entry{}, false
		}
		return full[i], true
	}
	applied := 0
	for _, d := range reply.Restamps {
		if f, ok := shipped(d.Key); ok && r.restamp(d, f) {
			applied++
		}
	}
	for _, e := range reply.Entries {
		si := ShardIndex(e.Key, len(r.shards))
		sh := &r.shards[si]
		sh.lockMut()
		cur, has := sh.metaLocked(e.Key)
		want, wasSent := sent(e.Key)
		ok := (wasSent && has && cur.Stamp.Equal(want)) || (!wasSent && !has)
		if f, inFull := shipped(e.Key); ok && inFull {
			ok = !r.overwrittenLocked(si, f)
		}
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
	return applied
}

// restamp installs d's stamp over the local copy of d.Key if that copy
// still carries the stamp of f, the entry this replica shipped.
func (r *Replica) restamp(d encoding.Digest, f encoding.Entry) bool {
	si := ShardIndex(d.Key, len(r.shards))
	sh := &r.shards[si]
	sh.lockMut()
	defer sh.mu.Unlock()
	if cur, has := sh.metaLocked(d.Key); !has || !cur.Stamp.Equal(f.Stamp) {
		return false
	}
	overwritten := r.overwrittenLocked(si, f)
	v, ok := sh.data[d.Key]
	if !ok {
		return false // the cold copy could not be faulted in
	}
	v.Stamp = d.Stamp
	if overwritten {
		v.Stamp = v.Stamp.Update()
	}
	sh.data[d.Key] = v
	sh.noteTombLocked(d.Key)
	r.logSet(si, d.Key, v)
	return true
}

// overwrittenLocked faults in the local copy of f.Key, which still carries
// the stamp f shipped with, and reports whether its value is no longer f's.
// A copy that cannot be faulted in counts as overwritten. Stripe write lock
// held.
func (r *Replica) overwrittenLocked(si int, f encoding.Entry) bool {
	if err := r.promoteLocked(si, f.Key); err != nil {
		r.notePersistErr(err)
		return true
	}
	v := r.shards[si].data[f.Key]
	return v.Deleted != f.Deleted || !bytes.Equal(v.Value, f.Value)
}
