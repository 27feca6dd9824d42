package kvstore

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

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
// Every call is scoped to one stripe of this replica and to the position
// ranges of the peer's digest runs (DigestRun) in that stripe's digest tree,
// disjoint and in position order, each run's digests in strict tree order;
// the zero TreeRange covers the whole stripe. The runs are taken as the wire
// delivered them, one per divergent node, never concatenated or sorted.
// The peer stripes the keyspace the same way (the wire layer refuses any
// other peer), so the scope's keys all live in the one local stripe, and
// only its lock is taken.
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
	// call concurrent or causally unrelated. In walk order — the peer's runs
	// in position order, each run's digests in tree order — and each Need
	// string is the peer digest's own Key, so a caller can name a needed key
	// by its digest's place in the runs.
	Need []string
	// Concurrent counts the keys of Need whose stamps are concurrent or
	// causally unrelated: their merged copies travel back in full.
	Concurrent int
	// Equivalent counts peer keys whose stamps proved the copies identical;
	// they are pruned from the wire entirely.
	Equivalent int
	// Stale counts peer keys whose copies this side's dominate: this side's
	// copies travel back in full, and the peer's need not come.
	Stale int
	// LocalOnly counts in-scope local keys the peer digest does not
	// mention; their copies must travel to the peer.
	LocalOnly int
}

// ReplyRoom bounds what the apply that follows the diff hands back, given
// the number of peer entries that arrived for Need: a restamp only for a key
// shipped in full, and a full copy for each stale, concurrent and local-only
// key. Local state that moves in between can exceed it; it sizes a reply,
// and decides nothing.
func (d Diff) ReplyRoom(entries int) (restamps, full int) {
	return entries, d.Stale + d.Concurrent + d.LocalOnly
}

// DigestRun is a peer's digests for one position range of a stripe, in tree
// order: the run a tree round ships for one divergent node. The zero Range
// covers the whole stripe.
type DigestRun struct {
	Range   TreeRange
	Digests []encoding.Digest
}

// deltaScope is a delta call's (stripe, runs) scope. Both halves of the leaf
// phase walk it in tree order, by (position, key) — the order of the
// stripe's digest tree, so the in-range local keys come straight off RunRange.
type deltaScope struct {
	idx, of int         // the stripe, and this replica's stripe count
	runs    []DigestRun // ascending by Range.Lo and disjoint
}

// deltaScope scopes a delta call to stripe idx and runs, refusing runs out
// of position order or overlapping.
func (r *Replica) deltaScope(idx int, runs []DigestRun) (deltaScope, error) {
	if idx < 0 || idx >= len(r.shards) {
		return deltaScope{}, fmt.Errorf("kvstore: shard %d out of range of %d", idx, len(r.shards))
	}
	for i := 1; i < len(runs); i++ {
		if prev := runs[i-1].Range; prev.Hi == 0 || prev.Hi > runs[i].Range.Lo {
			return deltaScope{}, fmt.Errorf("kvstore: delta shard %d: ranges out of order or overlapping", idx)
		}
	}
	return deltaScope{idx: idx, of: len(r.shards), runs: runs}, nil
}

// cmpTreeOrder orders keys in tree order.
func cmpTreeOrder(a, b string) int {
	return cmpPosKey(encoding.TreePos(a), a, encoding.TreePos(b), b)
}

func digestKey(d encoding.Digest) string { return d.Key }
func entryKey(e encoding.Entry) string   { return e.Key }
func termedKey(k encoding.Termed) string { return k.Key }
func stringKey(k string) string          { return k }

// inWalkOrder checks, in one pass that hashes each key's position once, that
// the peer's xs are in strict tree order — a key equal to the one before it,
// or ordered before it, is refused — and, with a range cursor, that each key
// belongs to the scope's stripe and falls inside one of the ranges of runs.
func inWalkOrder[T any](sc *deltaScope, what string, runs []DigestRun, xs []T, key func(T) string) error {
	c, prev := 0, uint64(0)
	for i, x := range xs {
		k := key(x)
		p := encoding.TreePos(k)
		if i > 0 && cmpPosKey(prev, key(xs[i-1]), p, k) >= 0 {
			return fmt.Errorf("kvstore: %s shard %d: key %q out of strict tree order", what, sc.idx, k)
		}
		prev = p
		if s := ShardIndex(k, sc.of); s != sc.idx {
			return fmt.Errorf("kvstore: %s shard %d: key %q belongs to shard %d", what, sc.idx, k, s)
		}
		for c < len(runs) && runs[c].Range.Hi != 0 && runs[c].Range.Hi <= p {
			c++
		}
		if c == len(runs) || !runs[c].Range.Contains(p) {
			return fmt.Errorf("kvstore: %s shard %d: key %q outside the scoped ranges", what, sc.idx, k)
		}
	}
	return nil
}

// checkRuns checks that each of the scope's runs is in strict tree order
// and that its digests lie inside its range.
func (sc *deltaScope) checkRuns(what string) error {
	for i := range sc.runs {
		if err := inWalkOrder(sc, what, sc.runs[i:i+1], sc.runs[i].Digests, digestKey); err != nil {
			return err
		}
	}
	return nil
}

// count returns how many of t's digests are in scope, gathering no runs.
func (sc *deltaScope) count(t *DigestTree) int {
	n := 0
	for _, run := range sc.runs {
		if run.Range == (TreeRange{}) {
			n += t.Len() // the whole stripe, without visiting its leaves
		} else {
			n += t.rangeLen(run.Range)
		}
	}
	return n
}

// walk calls fn once per in-scope key, in tree order: the keys of the
// stripe's tree t and of extra (keys written since t, in tree order), and the
// peer's digests (each run's, checked to lie in its range) and entries es
// (tree-ordered, checked to lie in scope). fn gets the peer's digest and
// entry for the key, or nil where the peer sent none. Each range is one merge
// of four sorted inputs, each hashing a key's position once; no key set is
// built.
func (sc *deltaScope) walk(t *DigestTree, extra []string, es []encoding.Entry,
	fn func(key string, d *encoding.Digest, e *encoding.Entry) error) error {
	xs, ps := newCursor(extra, stringKey), newCursor(es, entryKey)
	for _, run := range sc.runs {
		rg := run.Range
		ls, ds := newCursor(t.RunRange(rg), termedKey), newCursor(run.Digests, digestKey)
		for len(xs.xs) > 0 && xs.pos < rg.Lo {
			xs.take(xs.xs[0])
		}
		for {
			key, pos, ok := "", uint64(0), false
			least := func(k string, p uint64) {
				if !ok || cmpPosKey(p, k, pos, key) < 0 {
					key, pos, ok = k, p, true
				}
			}
			if len(ls.xs) > 0 {
				least(ls.xs[0].Key, ls.pos)
			}
			if len(xs.xs) > 0 && rg.Contains(xs.pos) {
				least(xs.xs[0], xs.pos)
			}
			if len(ds.xs) > 0 {
				least(ds.xs[0].Key, ds.pos)
			}
			if len(ps.xs) > 0 && rg.Contains(ps.pos) {
				least(ps.xs[0].Key, ps.pos)
			}
			if !ok {
				break
			}
			ls.take(key)
			xs.take(key)
			if err := fn(key, ds.take(key), ps.take(key)); err != nil {
				return err
			}
		}
	}
	return nil
}

// cursor reads one input of a merge in tree order (a walk, a leaf patch):
// xs from its head on, and pos, the tree position of its head, hashed once
// the cursor reaches it.
type cursor[T any] struct {
	xs  []T
	key func(T) string
	pos uint64
}

func newCursor[T any](xs []T, key func(T) string) cursor[T] {
	return cursor[T]{xs: xs, key: key, pos: headPos(xs, key)}
}

// take moves the cursor past every element of key at its head and returns
// the last of them, or nil if its head is another key.
func (c *cursor[T]) take(key string) (got *T) {
	for len(c.xs) > 0 && c.key(c.xs[0]) == key {
		got, c.xs = &c.xs[0], c.xs[1:]
		c.pos = headPos(c.xs, c.key)
	}
	return got
}

// headPos returns the tree position of xs's first key, or 0 if it is empty.
func headPos[T any](xs []T, key func(T) string) uint64 {
	if len(xs) == 0 {
		return 0
	}
	return encoding.TreePos(key(xs[0]))
}

// DiffRanges compares a peer's digest runs of stripe idx with local state
// and reports which peer copies must travel in full. Only the runs' ranges
// take part — the tree descent has already narrowed divergence to a few
// position intervals — and each run's digests must lie inside its range.
// Read locks only; the comparison is advisory — ApplyDeltaRanges
// re-validates every key under the write lock, so state changing between
// the two calls costs at most one extra round, never correctness.
//
// The runs must come in position order, disjoint, and each run's digests in
// strict tree order, as a round's runs do; anything else is refused. The
// stripe is read-locked once while the peer digests are probed against the
// stripe map, stamp classification runs through core.Compare's shared cache —
// converged copies share interned update handles, so the common outcome is a
// pointer comparison — and the in-scope local keys are counted off the
// stripe's digest tree, never by scanning the stripe.
func (r *Replica) DiffRanges(peer []DigestRun, idx int) (Diff, error) {
	sc, err := r.deltaScope(idx, peer)
	if err != nil {
		return Diff{}, err
	}
	if err := sc.checkRuns("diff"); err != nil {
		return Diff{}, err
	}
	var d Diff
	matched := 0
	// The tree is brought current and held before the read lock: a tree
	// request takes it itself, and so does the release.
	t := r.stripeTree(idx)
	defer r.ReleaseStripeTree(idx)
	sh := &r.shards[idx]
	sh.mu.RLock()
	localInScope := sc.count(t)
	for _, run := range sc.runs {
		for i := range run.Digests {
			pd := &run.Digests[i]
			v, ok := sh.metaLocked(pd.Key)
			if !ok {
				d.Need = append(d.Need, pd.Key) // unknown here: the copy must travel
				continue
			}
			matched++
			switch classify(v.Stamp, pd.Stamp) {
			case core.Equal:
				d.Equivalent++
			case core.After:
				// We dominate: our copy travels in the reply, theirs need not.
				d.Stale++
			case core.Before:
				d.Need = append(d.Need, pd.Key)
			default:
				// Concurrent, or independent copies with no causal order:
				// reconciliation needs the peer's value.
				d.Need = append(d.Need, pd.Key)
				d.Concurrent++
			}
		}
	}
	sh.mu.RUnlock()
	// Peer digests are unique-keyed (checkRuns refuses a key twice), so every
	// in-scope local key the probes did not match is local-only. The local
	// keys are counted off the tree folded before the read lock and the
	// probes read the stripe under it, so a key a writer added in between
	// can be matched without being counted: clamped, so that cannot report
	// negative.
	if d.LocalOnly = localInScope - matched; d.LocalOnly < 0 {
		d.LocalOnly = 0
	}
	return d, nil
}

// DeltaReply is what a responder's apply hands the initiator to adopt. Each
// ApplyDeltaRanges call appends its part of each list in walk order (tree
// order within the stripe), so calls made stripe by stripe in ascending
// order build lists in (stripe, position, key) order; a reply given the room
// its diffs bound (Diff.ReplyRoom) takes it without growing.
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
// adopt to converge, each list in tree order. A key goes into Restamps when
// the peer shipped its entry and the outcome keeps that entry's value — a
// peer-won transfer or reconcile, or a byte-identical concurrent pair — and
// into Entries otherwise. Local state is mutated exactly as Sync would
// mutate it — transfers fork stamps, dominance reconciles,
// conflicts use the resolver or stay reported — and every key the stamps
// already prove equivalent is pruned: it is neither touched nor returned.
// The scope is the ranges of the peer's digest runs: each run's digests must
// fall inside its range, and the peer entries inside one of them, and only
// in-range local keys are enumerated as local-only — so the local keys of
// the divergent subtrees transfer without every unmentioned in-stripe key
// being treated as missing on the peer.
//
// The runs must be as DiffRanges takes them, and peerEntries in strict tree
// order too. The walk is a merge in tree order: the stripe's digest tree is
// brought current just before the write lock is taken, and under it its
// in-range keys plus the keys writers noted in the stripe's dirty set since
// are exactly the stripe's current keys. (A dirty set that overflowed in that window is
// gone; a local-only key written then waits for the next round.)
//
// Keys whose digest says this side should dominate but whose local copy
// moved since DiffRanges (a concurrent writer) are skipped this round; the
// next digest exchange reconciles them.
//
// The call takes ownership of peerEntries' values, which a decoder has
// already copied out of its frame: a value the local copy adopts is stored
// as it is, so the caller must not modify it afterwards, nor hand it to
// another replica. A reply value may be this side's stored buffer: it is
// read-only.
func (r *Replica) ApplyDeltaRanges(reply DeltaReply, peer []DigestRun, peerEntries []encoding.Entry,
	resolve Resolver, idx int) (DeltaReply, SyncResult, error) {
	sc, err := r.deltaScope(idx, peer)
	if err != nil {
		return reply, SyncResult{}, err
	}
	if err := inWalkOrder(&sc, "delta", sc.runs, peerEntries, entryKey); err != nil {
		return reply, SyncResult{}, err
	}
	if err := sc.checkRuns("delta"); err != nil {
		return reply, SyncResult{}, err
	}

	// Registered before the lock so they run after it releases: group-commit
	// barriers must never be awaited under stripe locks, and the tree's
	// release takes cacheMu, which is ordered before the stripe lock.
	defer r.awaitDurable()
	t := r.stripeTree(idx)
	defer r.ReleaseStripeTree(idx)
	sh := &r.shards[idx]
	sh.lockMut()
	defer sh.mu.Unlock()

	var res SyncResult
	apply := func(k string, pd *encoding.Digest, pe *encoding.Entry) error {
		// The peer's side of the reconcile is a held slot whose result is
		// the reply entry; it is absent for a local-only key, which then
		// transfers.
		cs := [2]keyCopy{r.heldLocked(k), {held: true}}
		switch {
		case pe != nil:
			cs[1].Versioned = Versioned{Value: pe.Value, Deleted: pe.Deleted, Stamp: pe.Stamp}
			cs[1].ok, cs[1].owned = true, true
		case pd != nil:
			if !cs[0].ok {
				// Peer-only key that did not arrive in full: under-sent or
				// tombstone-raced; leave for the next round.
				return nil
			}
			switch classify(cs[0].Stamp, pd.Stamp) {
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
	err = sc.walk(t, extra, peerEntries, apply)
	sort.Strings(res.Conflicts)
	return reply, res, err
}

// Shipped is what an initiator shipped of a key a reply entry names.
type Shipped struct {
	Stamp core.Stamp      // the stamp its digest or entry carried
	Ok    bool            // false: no digest named the key, or it had vanished
	Full  *encoding.Entry // the entry, when the copy went in full
}

// ApplyDeltaReply installs the responder's reply — the initiator half of the
// apply. It is told what this replica shipped of each key the reply names,
// by the copy's place in its list: full(i) is the entry it shipped in full
// for reply.Restamps[i], and sent(i) what it shipped for reply.Entries[i].
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
//
// The call takes ownership of the values in reply.Entries: an applied one is
// stored as it is, so the caller must not modify it afterwards. A value
// ApplyDeltaRanges handed out in process may be the responder's stored
// buffer; the two replicas then share it, which is sound because neither
// ever writes a stored value.
func (r *Replica) ApplyDeltaReply(reply DeltaReply, full func(i int) *encoding.Entry, sent func(i int) Shipped) int {
	applied := 0
	for i, d := range reply.Restamps {
		if r.restamp(d, *full(i)) {
			applied++
		}
	}
	for i, e := range reply.Entries {
		si := ShardIndex(e.Key, len(r.shards))
		sh := &r.shards[si]
		sh.lockMut()
		cur, has := sh.metaLocked(e.Key)
		s := sent(i)
		ok := (s.Ok && has && cur.Stamp.Equal(s.Stamp)) || (!s.Ok && !has)
		if ok && s.Full != nil {
			ok = !r.overwrittenLocked(si, *s.Full)
		}
		if ok {
			v := Versioned{Value: e.Value, Deleted: e.Deleted, Stamp: e.Stamp}
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
