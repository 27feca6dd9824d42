package kvstore

import (
	"bytes"
	"fmt"
	"math/bits"

	"versionstamp/internal/core"
)

// This file holds the one per-key sync decision, reconcile, and the
// single-key primitives under the partitioned cluster's quorum paths:
// ConvergeKey converges one key's copies over n replicas in one call (a
// quorum write, which applies the write at its coordinator and leaves one
// result slot per hinted owner; read-repair), SyncKey is its two-replica
// case, and MergeVersioned folds a hinted copy back in when its owner
// revives. Sync and the anti-entropy apply (ApplyDeltaRanges) call reconcile
// too. All of them honor the fork-join discipline — a copy that leaves a
// replica does so by Fork, and one that arrives is absorbed by Join — so the
// id space stays exactly as wide as the set of live copies.
//
// ConvergeKey holds every copy it can reach at once, so it runs the paper's
// "Sync = Join then Fork" R ways: the owners' dominated copies are joined
// into the result, §6 reduction collapses the reunited ids, and the result
// is forked back out. With every owner reachable a quorum write reclaims the
// whole id space and a key's stamps stay the size of its R copies' ids. The
// pairwise paths abandon a dominated copy's id instead (rule 2).

// independent is what classify reports for two copies whose ids overlap:
// they descend from no common seed, so their stamps have no causal order
// (Invariant I2 rules the overlap out within one fork-join system).
const independent core.Ordering = 0

// classify relates two copies of a key by their stamps alone: independent,
// or their causal order.
func classify(a, b core.Stamp) core.Ordering {
	if !a.IDHandle().IncomparableTo(b.IDHandle()) {
		return independent
	}
	return core.Compare(a, b)
}

// keyCopy is one copy of a key taking part in a reconcile. A held copy is a
// slot that receives the result (every replica of a ConvergeKey, the local
// and peer sides of a delta apply, and ConvergeKey's hint slots); a detached
// one (a hint being absorbed by MergeVersioned) is consumed. When r is set
// the slot is stripe si of r, write lock held: the value is faulted in there
// only once an outcome needs it, and the result is stored and logged there.
// Any other copy carries its value and receives its result in place.
//
// Every replica slot and a delta apply's reply slot share the result's
// buffer. It is the source's as it is when the source is a replica's stored
// buffer, which no path writes into (Get's contract), or an owned copy's,
// whose buffer is the reconcile's to give away (a delta apply's peer entry,
// freshly decoded). A resolver's output or a detached caller's copy may
// still belong to its caller, so it is copied once first. A ConvergeKey hint
// slot leaves the store through detached and gets a copy of its own.
type keyCopy struct {
	Versioned
	ok, held, owned bool
	// Scratch of reconcile: lost is a held copy another held copy dominates
	// (rule 2; ConvergeKey joins its stamp all the same); shadowed is a copy
	// whose value another survivor supersedes.
	lost, shadowed bool
	// stored records that set installed a result in the slot.
	stored bool
	// rel is ConvergeKey's scratch: the copy's order against the greatest.
	rel core.Ordering
	r   *Replica
	si  int
	// own is the holds the caller itself has on the replica slot's stripe
	// (see shard.setLocked).
	own int32
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
	v, _, err := c.r.loadedLocked(c.si, key)
	c.Value = v.Value
	return err
}

// set installs a held slot's result, persisting it for a replica slot.
func (c *keyCopy) set(key string, v Versioned) {
	c.Versioned, c.stored = v, true
	if c.r == nil {
		return
	}
	c.r.storeLocked(c.si, key, v, c.own)
}

// reconcile converges one key's copies; cs holds at least one held slot.
// It is the single sync decision: Sync, ConvergeKey (and so SyncKey),
// ApplyDeltaRanges and MergeVersioned all call it. reunite is set by
// ConvergeKey alone, the one caller that holds every copy of the key it can
// reach at once; its held slots with no replica are hint slots. It decides
// from the stamps, by these rules in order:
//
//  1. No copy is present: nothing happens.
//  2. A held copy that another held copy dominates counts as absent for the
//     value. Under reunite its stamp is joined into the result (rule 6), so
//     its id reunites with the others and §6 reduction collapses them: a
//     quorum write over all R owners reduces their ids back to the one they
//     were forked from. Otherwise the winner forks and the loser's id is
//     abandoned: a pairwise caller sees two copies at a time, and under
//     rotating sync partners (anti-entropy pairing an owner with each
//     co-owner in turn; a quorum write once chained pairwise pushes and
//     measured ~3x per write) joining and re-forking interleaves forks that
//     no reduction collapses. Abandoning is sound: the winner's history
//     contains the loser's, so its fork dominates everything the abandoned
//     stamp proved.
//  3. All held copies are present and Equal, and none is detached: nothing
//     happens. Joining and re-forking equivalent copies would grow the ids
//     on every idle sync. ConvergeKey, the one caller holding more than two
//     copies, applies the same reason before it calls reconcile: copies
//     Equal to the greatest sit out (settle).
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
//  6. The result stamp is the Join of the surviving copies (under reunite,
//     of every present copy); a detached copy is always joined, because
//     nobody else holds its id. It is forked into one part per held slot.
//     Under reunite each hint slot first takes the outer half (r·1) and
//     leaves r·0, so the replica slots' parts stay one subtree that the
//     next write's join reduces back whole, even with the hinted owner
//     still away. The remaining parts are split breadth-first, as
//     core.ForkN splits, the shallowest to the winner or, when copies were
//     joined, to the first held slot.
//
// A conflict with a nil resolver changes nothing and is reported in
// Conflicts. Otherwise the key counts as Merged when the resolver ran,
// Transferred when a held slot lacked it, Pruned when detached copies were
// absorbed into current held copies, and Reconciled else.
// Values are faulted in only past rule 3, so converged keys fault nothing.
func reconcile(key string, cs []keyCopy, resolve Resolver, reunite bool) (SyncResult, error) {
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
			rel := classify(a.Stamp, b.Stamp)
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
		if c := &cs[i]; c.ok && (reunite || !c.lost) && !indep {
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
	// hint reports a ConvergeKey hint slot: a held slot with no replica.
	hint := func(c *keyCopy) bool { return reunite && c.held && c.r == nil }
	if src < 0 || cs[src].r == nil && !cs[src].owned {
		value = append([]byte(nil), value...)
	}
	deposit := func(i int, part core.Stamp) {
		v := Versioned{Value: value, Deleted: deleted, Stamp: part}
		if hint(&cs[i]) {
			v.Value = append([]byte(nil), value...)
		}
		cs[i].set(key, v)
	}
	for i := range cs {
		if hint(&cs[i]) {
			var part core.Stamp
			stamp, part = stamp.Fork()
			deposit(i, part)
			held--
		}
	}
	j := 0
	split := func(i int) {
		deposit(i, forkPart(stamp, held, j))
		j++
	}
	split(winner)
	for i := range cs {
		if c := &cs[i]; i != winner && c.held && !hint(c) {
			split(i)
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
	return res, nil
}

// forkPart returns part j of the n parts s.ForkN(n) splits s into, without
// building the slice. ForkN's breadth-first queue ends holding the nodes of
// depth d = ⌊log2 n⌋ from index k = n − 2^d on, then the children of the
// first k of them; part j is the node at that depth and index, reached from
// s by one fork per level.
func forkPart(s core.Stamp, n, j int) core.Stamp {
	d := bits.Len(uint(n)) - 1
	k := n - 1<<d
	idx := k + j
	if j >= 1<<d-k {
		idx = j - (1<<d - k)
		d++
	}
	for b := d - 1; b >= 0; b-- {
		s0, s1 := s.Fork()
		if s = s0; idx>>b&1 == 1 {
			s = s1
		}
	}
	return s
}

// KeyWrite is the local write ConvergeKey applies at its coordinator before
// converging: a Put of Value, or a Delete when Delete is set.
type KeyWrite struct {
	Value  []byte
	Delete bool
}

// convergeInline is the copy count (replicas plus hint slots) ConvergeKey
// handles in stack arrays; a wider call allocates its scratch.
const convergeInline = 8

// ConvergeKey converges one key's copies over the replicas rs in a single
// reconcile, with the semantics one key of a full Sync would get: transfer to
// the sides lacking it, reconcile when one side dominates, resolve (or
// report) conflicts. rs[0] coordinates. Unlike the pairwise paths it
// reclaims ids: the stamps of the copies it converges, dominated ones
// included, are joined, and the result is forked back out — first the outer
// half r·1 to each hint slot, then the remainder breadth-first over the
// replicas — so the ids of all R owners reduce to one whenever every owner
// takes part. When w is not nil, the write is applied at rs[0] first, under
// the same locks; a Delete of a key rs[0] holds absent or tombstoned writes
// nothing. detached holds one result slot per hinted owner, a copy with no
// replica: each slot receives its fork of rs[0]'s result, exactly what the
// hint must carry, and is left zero (IsZero stamp) when nothing landed — no
// replica held the key, or the call failed. The slots' input contents are
// ignored.
//
// The copies are ordered against the greatest one a scan from rs[0] meets
// (see settle). When every copy is ordered against it, the copies Equal to
// it already hold the result and sit the reconcile out. When some copy is
// not and a nil resolver leaves the conflict standing, the copies ordered
// against the greatest still converge, with the hint slots, as a chain of
// pairwise syncs from rs[0] would converge them; the concurrent copies keep
// theirs and the key is reported in Conflicts.
//
// Every replica logs the key at most once, in the state the reconcile
// leaves it. When the reconcile leaves rs[0] untouched (an error, a conflict
// with nothing ordered against rs[0] to converge), the write is logged by
// itself and stands at rs[0] exactly as a Put would. One stripe lock per
// replica is taken, in the global replica order, so concurrent
// ConvergeKey/SyncKey/Sync calls over overlapping replicas cannot deadlock.
func ConvergeKey(rs []*Replica, key string, w *KeyWrite, detached []Versioned, resolve Resolver) (SyncResult, error) {
	if len(rs) == 0 {
		return SyncResult{}, fmt.Errorf("kvstore: converge %q over no replica", key)
	}
	for i := range rs {
		for _, o := range rs[:i] {
			if o == rs[i] {
				return SyncResult{}, fmt.Errorf("kvstore: sync of a replica with itself")
			}
		}
	}
	var csBuf [convergeInline]keyCopy
	cs := csBuf[:0]
	if n := len(rs) + len(detached); n > convergeInline {
		cs = make([]keyCopy, 0, n)
	}
	for _, r := range rs {
		cs = append(cs, keyCopy{held: true, r: r, si: ShardIndex(key, len(r.shards))})
	}
	// One stripe per replica, locked in the global replica order: each pass
	// takes the first replica after the last one locked.
	var last *Replica
	for range rs {
		next := -1
		for i, r := range rs {
			if (last == nil || replicaBefore(last, r)) && (next < 0 || replicaBefore(r, rs[next])) {
				next = i
			}
		}
		cs[next].r.shards[cs[next].si].lockMut()
		last = rs[next]
	}
	defer releaseConverge(rs, key)

	var wrote Versioned
	written := false
	if c := &cs[0]; w != nil && w.Delete {
		wrote, written = c.r.deleteLocked(c.si, key)
	} else if w != nil {
		wrote, written = c.r.putLocked(c.si, key, w.Value), true
	}
	for i := range cs {
		c := &cs[i]
		c.Versioned, c.ok = c.r.shards[c.si].metaLocked(key)
	}
	top, split := order(cs)
	n := len(cs)
	if !split {
		n = settle(cs, top, false)
	}
	res, err := reconcileSlots(key, cs[:n], detached, resolve)
	if split && err == nil && len(res.Conflicts) > 0 {
		// Only a nil resolver leaves a conflict, and it changed nothing.
		// Converge what is ordered against the greatest copy.
		if n = settle(cs[:len(rs)], top, true); n > 1 || len(detached) > 0 {
			conflicts := res.Conflicts
			res, err = reconcileSlots(key, cs[:n], detached, nil)
			res.Conflicts = conflicts
		}
	}
	if written && !cs[0].stored {
		cs[0].r.logSet(cs[0].si, key, wrote)
	}
	return res, err
}

// reconcileSlots runs reconcile over cs and one fresh held slot per detached
// copy, then hands each slot's result out to detached.
func reconcileSlots(key string, cs []keyCopy, detached []Versioned, resolve Resolver) (SyncResult, error) {
	for range detached {
		cs = append(cs, keyCopy{held: true})
	}
	res, err := reconcile(key, cs, resolve, true)
	for i := range detached {
		detached[i] = cs[len(cs)-len(detached)+i].Versioned
	}
	return res, err
}

// order scans the present copies in cs from the first, taking each copy
// that dominates the greatest one so far as the new greatest, and returns
// the last greatest (-1 when no copy is present). It records each present
// copy's relation to it in rel; split reports a copy it neither dominates
// nor equals. The scan only climbs, so cs[0], when present, is ordered
// against the greatest.
func order(cs []keyCopy) (top int, split bool) {
	top = -1
	for i := range cs {
		if cs[i].ok && (top < 0 || classify(cs[top].Stamp, cs[i].Stamp) == core.Before) {
			top = i
		}
	}
	for i := range cs {
		c := &cs[i]
		switch {
		case !c.ok:
		case i == top:
			c.rel = core.Equal
		default:
			c.rel = classify(cs[top].Stamp, c.Stamp)
			split = split || c.rel != core.After && c.rel != core.Equal
		}
	}
	return top, split
}

// settle compacts cs, whose relations order recorded against cs[top], to the
// copies ConvergeKey reconciles, keeping their order, and returns their
// count. It keeps top, the absent copies and the copies top dominates. A
// copy Equal to top already holds the result and sits out, as rule 3 leaves
// settled copies alone; joining Equal copies only to fork them again
// fragments their ids. When conflicted — a nil resolver left copies
// unordered against top standing, and reconcile faulted every value in —
// those copies stay out too, except ones whose value and deleted flag match
// top's: rule 5 joins those byte-identical copies, and the Equal copies then
// take part so they receive the joined stamp.
func settle(cs []keyCopy, top int, conflicted bool) int {
	same := func(c *keyCopy) bool {
		return conflicted && c.rel != core.After && c.rel != core.Equal &&
			c.Deleted == cs[top].Deleted && bytes.Equal(c.Value, cs[top].Value)
	}
	joins := false
	for i := range cs {
		joins = joins || cs[i].ok && same(&cs[i])
	}
	n := 0
	for i := range cs {
		c := &cs[i]
		if i == top || !c.ok || c.rel == core.After || c.rel == core.Equal && joins || same(c) {
			c.lost, c.shadowed = false, false
			cs[n] = *c
			n++
		}
	}
	return n
}

// releaseConverge unlocks ConvergeKey's stripes and then drains every
// replica's group-commit barriers, so no lock is held across an fsync.
func releaseConverge(rs []*Replica, key string) {
	for _, r := range rs {
		r.shardFor(key).mu.Unlock()
	}
	for _, r := range rs {
		r.awaitDurable()
	}
}

// SyncKey converges a single key between two replicas: ConvergeKey over a
// and b with no write and no hint slot.
func SyncKey(a, b *Replica, key string, resolve Resolver) (SyncResult, error) {
	rs := [2]*Replica{a, b}
	return ConvergeKey(rs[:], key, nil, nil, resolve)
}

// MergeVersioned absorbs a detached stamped copy (typically a drained hint,
// filled by one of ConvergeKey's hint slots) into the replica: reconcile with the local copy held and the
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
	return reconcile(key, cs[:], resolve, false)
}
