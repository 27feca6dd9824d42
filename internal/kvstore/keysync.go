package kvstore

import (
	"bytes"
	"fmt"

	"versionstamp/internal/core"
)

// This file holds the single-key replication primitives under the
// partitioned cluster's quorum paths: SyncKey converges one key between two
// replicas (a quorum write pushing to each live owner, read-repair
// converging owner copies), ForkCopy detaches a stamped copy for handoff to
// a currently unreachable owner, and MergeVersioned folds such a copy back
// in when the owner revives. All three honor the fork-join discipline — a
// copy that leaves a replica does so by Fork, and one that arrives is
// absorbed by Join — so the id space stays exactly as wide as the set of
// live copies.

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
	return syncKeyPromoted(a, b, key, resolve)
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
// drained hint) into the replica: the incoming stamp is joined into the
// local one, so its id is reclaimed rather than leaked, and the values
// merge by stamp order — install when absent, adopt when the incoming copy
// dominates (Reconciled), keep the local value when it dominates or the
// copies are equivalent (Pruned), resolve when concurrent (Merged).
//
// On any outcome except a reported conflict, the incoming copy's identity
// is consumed; the caller must not deliver it again. A conflict with a nil
// resolver leaves the replica untouched and reports the key in
// SyncResult.Conflicts — the caller keeps the copy (e.g. requeues the
// hint) and retries with a resolver later.
func (r *Replica) MergeVersioned(key string, in Versioned, resolve Resolver) (SyncResult, error) {
	si := ShardIndex(key, len(r.shards))
	sh := &r.shards[si]
	defer r.awaitDurable()
	sh.lockMut()
	defer sh.mu.Unlock()
	var res SyncResult

	if err := r.promoteLocked(si, key); err != nil {
		return res, err
	}
	local, ok := sh.data[key]
	if !ok {
		nv := Versioned{
			Value:   append([]byte(nil), in.Value...),
			Deleted: in.Deleted,
			Stamp:   in.Stamp,
		}
		sh.data[key] = nv
		sh.noteTombLocked(key)
		r.logSet(si, key, nv)
		res.Transferred++
		return res, nil
	}

	if !local.Stamp.IDName().IncomparableTo(in.Stamp.IDName()) {
		// Overlapping ids: independently created copies with no common seed
		// (see reconcileIndependent). Merge by value and restart the key's
		// stamp system; the replica now holds the only copy, so a bare
		// updated seed suffices.
		var (
			value   []byte
			deleted bool
		)
		switch {
		case local.Deleted == in.Deleted && bytes.Equal(local.Value, in.Value):
			value, deleted = local.Value, local.Deleted
			res.Reconciled++
		case resolve == nil:
			res.Conflicts = append(res.Conflicts, key)
			return res, nil
		default:
			var err error
			value, deleted, err = resolve(key, local, in)
			if err != nil {
				return res, fmt.Errorf("kvstore: resolve %q: %w", key, err)
			}
			res.Merged++
		}
		nv := Versioned{
			Value:   append([]byte(nil), value...),
			Deleted: deleted,
			Stamp:   core.Seed().Update(),
		}
		sh.data[key] = nv
		sh.noteTombLocked(key)
		r.logSet(si, key, nv)
		return res, nil
	}

	rel := core.Compare(local.Stamp, in.Stamp)
	if rel == core.Concurrent && local.Deleted == in.Deleted && bytes.Equal(local.Value, in.Value) {
		// Already resolved to the same bytes elsewhere: absorbing the
		// incoming stamp is all there is to do (see reconcileKey).
		rel = core.Equal
	}
	if rel == core.Concurrent && resolve == nil {
		res.Conflicts = append(res.Conflicts, key)
		return res, nil
	}
	joined, err := core.Join(local.Stamp, in.Stamp)
	if err != nil {
		return res, fmt.Errorf("kvstore: join stamps for %q: %w", key, err)
	}
	nv := local
	switch rel {
	case core.Equal, core.After:
		// Local copy is current; only the incoming id is absorbed.
		nv.Stamp = joined
		res.Pruned++
	case core.Before:
		nv = Versioned{
			Value:   append([]byte(nil), in.Value...),
			Deleted: in.Deleted,
			Stamp:   joined,
		}
		res.Reconciled++
	case core.Concurrent:
		value, deleted, rerr := resolve(key, local, in)
		if rerr != nil {
			return res, fmt.Errorf("kvstore: resolve %q: %w", key, rerr)
		}
		nv = Versioned{
			Value:   append([]byte(nil), value...),
			Deleted: deleted,
			// The merge is a new update dominating both inputs.
			Stamp: joined.Update(),
		}
		res.Merged++
	}
	sh.data[key] = nv
	sh.noteTombLocked(key)
	r.logSet(si, key, nv)
	return res, nil
}
