package kvstore

import (
	"bytes"
	"fmt"

	"versionstamp/internal/core"
)

// This file holds the one per-key sync decision, reconcile, and the
// single-key primitives under the partitioned cluster's quorum paths:
// SyncKey converges one key between two replicas (a quorum write pushing to
// each live owner, read-repair converging owner copies), ForkCopy detaches a
// stamped copy for handoff to a currently unreachable owner, and
// MergeVersioned folds such a copy back in when the owner revives. Sync and
// the anti-entropy apply (ApplyDeltaRanges) call reconcile too. All of them
// honor the fork-join discipline — a copy that leaves a replica does so by
// Fork, and one that arrives is absorbed by Join — so the id space stays
// exactly as wide as the set of live copies.

// independent is what classify reports for two copies whose ids overlap:
// they descend from no common seed, so their stamps have no causal order
// (Invariant I2 rules the overlap out within one fork-join system).
const independent core.Ordering = 0

// classify relates two copies of a key by their stamps alone: independent,
// or their causal order. cmp, when not nil, is the caller's batch memo.
func classify(cmp *core.Comparer, a, b core.Stamp) core.Ordering {
	if !a.IDHandle().IncomparableTo(b.IDHandle()) {
		return independent
	}
	if cmp != nil {
		return cmp.Compare(a, b)
	}
	return core.Compare(a, b)
}

// keyCopy is one copy of a key taking part in a reconcile. A held copy is a
// slot that receives the result (either side of a sync, the local and peer
// sides of a delta apply); a detached one (a ForkCopy being absorbed) is
// consumed. When r is set the slot is stripe si of r, write lock held: the
// value is faulted in there only once an outcome needs it, and the result is
// stored and logged there. Any other copy carries its value and receives its
// result in place.
type keyCopy struct {
	Versioned
	ok, held bool
	// Scratch of reconcile: lost is a held copy another held copy dominates
	// (rule 2); shadowed is a copy whose value another survivor supersedes.
	lost, shadowed bool
	r              *Replica
	si             int
}

// heldLocked returns r's copy of key as a held slot, metadata only. The
// stripe's write lock is held.
func (r *Replica) heldLocked(key string) keyCopy {
	si := ShardIndex(key, len(r.shards))
	v, ok := r.shards[si].metaLocked(key)
	return keyCopy{Versioned: v, ok: ok, held: true, r: r, si: si}
}

// load fills in a present replica slot's value, faulting it in from the
// cold index.
func (c *keyCopy) load(key string) error {
	if !c.ok || c.r == nil {
		return nil
	}
	if err := c.r.promoteLocked(c.si, key); err != nil {
		return err
	}
	c.Value = c.r.shards[c.si].data[key].Value
	return nil
}

// set installs a held slot's result, persisting it for a replica slot.
func (c *keyCopy) set(key string, v Versioned) {
	c.Versioned = v
	if c.r == nil {
		return
	}
	sh := &c.r.shards[c.si]
	sh.data[key] = v
	sh.noteTombLocked(key)
	c.r.logSet(c.si, key, v)
}

// reconcile converges one key's copies; cs holds at least one held slot.
// It is the single sync decision: Sync, SyncKey, ApplyDeltaRanges and
// MergeVersioned all call it. It decides from the stamps, by these rules in
// order:
//
//  1. No copy is present: nothing happens.
//  2. A held copy that another held copy dominates counts as absent: the
//     winner forks and the loser's id is abandoned. Joining the loser in and
//     re-forking looks tidier, but under rotating sync partners (a quorum
//     write pushing to R-1 owners in turn) the interleaved forks leave ids
//     no reduction collapses, compounding ~3x per write. Abandoning is
//     sound: the winner's history contains the loser's, so its fork
//     dominates everything the abandoned stamp proved.
//  3. All held copies are present and Equal, and none is detached: nothing
//     happens. Joining and re-forking equivalent copies would grow the ids
//     on every idle sync.
//  4. Some ids overlap (the key was created independently at two replicas):
//     the value is the copies' shared bytes or the resolver's, and the key's
//     stamp system restarts at Seed().Update(). That is sound only while
//     these are the key's only copies — without globally unique ids nothing
//     can order copies that share no ancestor — so deployments originate
//     each key at one replica, as the fork-join model assumes.
//  5. Otherwise the value is the single maximal copy's; or the shared value
//     of byte-identical Concurrent copies, with no resolver call and no
//     update (two pairs of replicas already resolved the conflict alike); or
//     the resolver's, recorded as a new update.
//  6. The result stamp is the Join of the surviving copies; a detached copy
//     is always joined, because nobody else holds its id. It is forked into
//     one part per held slot: the first part goes to the winner or, when
//     copies were joined, to the first held slot.
//
// A conflict with a nil resolver changes nothing and is reported in
// Conflicts. Otherwise the key counts as Merged when the resolver ran,
// Transferred when a held slot lacked it, Pruned when detached copies were
// absorbed into current held copies, and Reconciled else. TombstonesLive
// counts a key that ends a tombstone with no detached copy involved.
// Values are faulted in only past rule 3, so converged keys fault nothing.
func reconcile(key string, cs []keyCopy, resolve Resolver) (SyncResult, error) {
	var res SyncResult
	present, missing, settled, absorbing, indep := false, false, true, false, false
	held, first := 0, -1
	for i := range cs {
		a := &cs[i]
		if a.held {
			if held++; first < 0 {
				first = i
			}
		}
		if !a.ok {
			missing = missing || a.held
			continue
		}
		present, absorbing = true, absorbing || !a.held
		for j := i + 1; j < len(cs); j++ {
			b := &cs[j]
			if !b.ok {
				continue
			}
			rel := classify(nil, a.Stamp, b.Stamp)
			indep = indep || rel == independent
			if a.held && b.held {
				settled = settled && rel == core.Equal
				a.lost = a.lost || rel == core.Before
				b.lost = b.lost || rel == core.After
			}
			a.shadowed = a.shadowed || rel == core.Before
			b.shadowed = b.shadowed || rel == core.After || rel == core.Equal
		}
	}
	if !present {
		return res, nil
	}
	if settled && !missing && !absorbing {
		if cs[0].Deleted {
			res.TombstonesLive++
		}
		return res, nil
	}
	for i := range cs {
		if err := cs[i].load(key); err != nil {
			return res, err
		}
	}

	competes := func(c *keyCopy) bool { return c.ok && !c.lost && (indep || !c.shadowed) }
	top, agree := -1, true
	for i := range cs {
		if !competes(&cs[i]) {
			continue
		}
		if top < 0 {
			top = i
			continue
		}
		agree = agree && cs[i].Deleted == cs[top].Deleted && bytes.Equal(cs[i].Value, cs[top].Value)
	}
	value, deleted, src := cs[top].Value, cs[top].Deleted, top
	if !agree {
		if resolve == nil {
			res.Conflicts = append(res.Conflicts, key)
			return res, nil
		}
		acc := cs[top].Versioned
		for i := top + 1; i < len(cs); i++ {
			if !competes(&cs[i]) {
				continue
			}
			v, d, err := resolve(key, acc, cs[i].Versioned)
			if err != nil {
				return res, fmt.Errorf("kvstore: resolve %q: %w", key, err)
			}
			acc = Versioned{Value: v, Deleted: d}
		}
		value, deleted, src = acc.Value, acc.Deleted, -1
	}

	var stamp core.Stamp
	survivors, winner := 0, first
	for i := range cs {
		if c := &cs[i]; c.ok && !c.lost && !indep {
			if survivors++; survivors == 1 {
				stamp = c.Stamp
				if c.held {
					winner = i
				}
				continue
			}
			var err error
			if stamp, err = core.Join(stamp, c.Stamp); err != nil {
				return res, fmt.Errorf("kvstore: join stamps for %q: %w", key, err)
			}
			winner = first
		}
	}
	switch {
	case indep:
		stamp = core.Seed().Update()
	case src < 0:
		stamp = stamp.Update()
	}
	deposit := func(i int) {
		var part core.Stamp
		if held--; held == 0 {
			part = stamp
		} else {
			part, stamp = stamp.Fork()
		}
		v := Versioned{Value: value, Deleted: deleted, Stamp: part}
		if i != src {
			v.Value = append([]byte(nil), value...)
		}
		cs[i].set(key, v)
	}
	deposit(winner)
	for i := range cs {
		if i != winner && cs[i].held {
			deposit(i)
		}
	}

	switch {
	case src < 0:
		res.Merged++
	case missing:
		res.Transferred++
	case settled && !indep && cs[src].held:
		res.Pruned++
	default:
		res.Reconciled++
	}
	if deleted && !absorbing {
		res.TombstonesLive++
	}
	return res, nil
}

// SyncKey converges a single key between two replicas, with the same
// semantics one key of a full Sync would get: transfer to the side lacking
// it, reconcile when one side dominates, resolve (or report) conflicts.
// Only the key's two stripe locks are taken, in the global replica order,
// so concurrent SyncKey/Sync calls over overlapping pairs cannot deadlock.
func SyncKey(a, b *Replica, key string, resolve Resolver) (SyncResult, error) {
	if a == b {
		return SyncResult{}, fmt.Errorf("kvstore: sync of a replica with itself")
	}
	sa, sb := a.shardFor(key), b.shardFor(key)
	first, second := sa, sb
	if !replicaBefore(a, b) {
		first, second = sb, sa
	}
	// Registered first so the barrier drain runs after the locks release.
	defer a.awaitDurable()
	defer b.awaitDurable()
	first.lockMut()
	second.lockMut()
	defer second.mu.Unlock()
	defer first.mu.Unlock()
	cs := [2]keyCopy{a.heldLocked(key), b.heldLocked(key)}
	return reconcile(key, cs[:], resolve)
}

// ForkCopy forks the key's stamp and returns a detached copy carrying the
// forked descendant, leaving the other descendant on the replica — the
// copy a hinted write queues for a dead owner. The detached copy is a live
// frontier element: it must eventually be absorbed somewhere (normally by
// MergeVersioned at the revived owner), or its id is abandoned. Returns
// ok=false if the replica does not hold the key.
func (r *Replica) ForkCopy(key string) (Versioned, bool) {
	si := ShardIndex(key, len(r.shards))
	sh := &r.shards[si]
	defer r.awaitDurable()
	sh.lockMut()
	defer sh.mu.Unlock()
	if err := r.promoteLocked(si, key); err != nil {
		r.notePersistErr(err)
		return Versioned{}, false
	}
	v, ok := sh.data[key]
	if !ok {
		return Versioned{}, false
	}
	mine, theirs := v.Stamp.Fork()
	v.Stamp = mine
	sh.data[key] = v
	r.logSet(si, key, v)
	return Versioned{
		Value:   append([]byte(nil), v.Value...),
		Deleted: v.Deleted,
		Stamp:   theirs,
	}, true
}

// MergeVersioned absorbs a detached stamped copy (a ForkCopy, typically a
// drained hint) into the replica: reconcile with the local copy held and the
// incoming one detached. The incoming stamp is joined into the local one, so
// its id is reclaimed rather than leaked, and the values merge by stamp
// order — install when absent (Transferred), adopt when the incoming copy
// dominates (Reconciled), keep the local value when it is current (Pruned),
// resolve when concurrent (Merged).
//
// On any outcome except a reported conflict, the incoming copy's identity
// is consumed; the caller must not deliver it again. A conflict with a nil
// resolver leaves the replica untouched and reports the key in
// SyncResult.Conflicts — the caller keeps the copy (e.g. requeues the
// hint) and retries with a resolver later.
func (r *Replica) MergeVersioned(key string, in Versioned, resolve Resolver) (SyncResult, error) {
	sh := r.shardFor(key)
	defer r.awaitDurable()
	sh.lockMut()
	defer sh.mu.Unlock()
	cs := [2]keyCopy{r.heldLocked(key), {Versioned: in, ok: true}}
	return reconcile(key, cs[:], resolve)
}
