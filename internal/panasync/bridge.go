package panasync

import (
	"fmt"

	"versionstamp/internal/core"
	"versionstamp/internal/kvstore"
)

// Baseline records the sidecar state a ToReplica export saw, so that
// ApplyReplica can tell replica-side progress (applied) apart from local
// progress made while the replica was live (preserved). A nil Baseline
// means "nothing was exported from this workspace": every already-tracked
// or existing file counts as local state and is preserved.
type Baseline struct {
	entries map[string]baselineEntry
}

type baselineEntry struct {
	stamp core.Stamp
	hash  string
}

// ToReplica exports every tracked file of the workspace as one key of a
// sharded kvstore replica: the key is the file path, the value its content,
// the stamp the sidecar's. This bridges PANASYNC's per-file sidecars onto
// the store engine so a whole workspace can synchronize over the
// antientropy network protocol in one round. The returned Baseline is
// handed back to ApplyReplica after the sync.
//
// Every tracked file must have its edits recorded (not be Dirty) —
// otherwise the exported stamp would misrepresent the content and
// ErrStaleStamp is returned.
func ToReplica(w *Workspace, label string) (*kvstore.Replica, *Baseline, error) {
	statuses, err := w.Tracked()
	if err != nil {
		return nil, nil, err
	}
	r := kvstore.NewReplica(label)
	base := &Baseline{entries: make(map[string]baselineEntry, len(statuses))}
	for _, st := range statuses {
		if st.Dirty {
			return nil, nil, fmt.Errorf("%w: %s", ErrStaleStamp, st.Path)
		}
		content, err := w.fs.ReadFile(st.Path)
		if err != nil {
			return nil, nil, fmt.Errorf("panasync: %w", err)
		}
		r.PutVersion(st.Path, kvstore.Versioned{Value: content, Stamp: st.Stamp})
		base.entries[st.Path] = baselineEntry{stamp: st.Stamp, hash: hashContent(content)}
	}
	return r, base, nil
}

// MergeIntoReplica imports the workspace's tracked files into an existing
// replica — typically a durable (WAL-backed) one reopened across serve
// sessions — and returns the Baseline for the eventual ApplyReplica. Unlike
// ToReplica it does not build a fresh replica: keys the replica already
// holds are updated only when the workspace copy causally dominates, so a
// restart with an untouched workspace changes nothing and replays nothing.
//
// The workspace copy and the replica copy are the same logical copy
// persisted two ways (the write-back keeps the sidecars in step with the
// replica), so stamps are installed verbatim, never forked: the workspace
// is not a second replica. Compare is only trusted where a causal order can
// exist — identical ids (the same copy, possibly edited) or disjoint ids
// (two copies of one fork-join system). A workspace copy whose id overlaps
// the replica's without matching it (a mixed or stale data directory), or
// one Compare calls concurrent, is left out of the Baseline: ApplyReplica
// then skips and reports the path instead of overwriting either side.
func MergeIntoReplica(w *Workspace, r *kvstore.Replica) (*Baseline, error) {
	statuses, err := w.Tracked()
	if err != nil {
		return nil, err
	}
	base := &Baseline{entries: make(map[string]baselineEntry, len(statuses))}
	for _, st := range statuses {
		if st.Dirty {
			return nil, fmt.Errorf("%w: %s", ErrStaleStamp, st.Path)
		}
		content, err := w.fs.ReadFile(st.Path)
		if err != nil {
			return nil, fmt.Errorf("panasync: %w", err)
		}
		cur, ok := r.Version(st.Path)
		switch {
		case !ok:
			r.PutVersion(st.Path, kvstore.Versioned{Value: content, Stamp: st.Stamp})
		case cur.Stamp.Equal(st.Stamp):
			// The replica already holds exactly this copy.
		case !st.Stamp.IDHandle().Equal(cur.Stamp.IDHandle()) &&
			!st.Stamp.IDHandle().IncomparableTo(cur.Stamp.IDHandle()):
			// Partially overlapping ids: no causal order exists between these
			// copies (cf. rule 4 of kvstore's reconcile), so Compare's answer
			// would be meaningless. Leave both sides; report via write-back.
			continue
		default:
			switch core.Compare(st.Stamp, cur.Stamp) {
			case core.After:
				r.PutVersion(st.Path, kvstore.Versioned{Value: content, Stamp: st.Stamp})
			case core.Equal, core.Before:
				// Keep the replica's copy; write-back refreshes the sidecar.
			case core.Concurrent:
				continue // genuine conflict: keep both, report via write-back
			}
		}
		base.entries[st.Path] = baselineEntry{stamp: st.Stamp, hash: hashContent(content)}
	}
	return base, nil
}

// ApplyReplica writes the replica's state back into the workspace: live
// keys become tracked files (content plus sidecar stamp), tombstones remove
// the file and its sidecar. It is the inverse of ToReplica, called after a
// network sync mutated the replica.
//
// Local state always wins over replica state when both moved since the
// export: files edited (recorded or not), re-inited, forgotten, or created
// untracked while the replica was live are never overwritten or removed —
// the path is returned in skipped, and the caller should sync again after
// reconciling. Keys unchanged on both sides are left untouched.
func ApplyReplica(w *Workspace, r *kvstore.Replica, base *Baseline) (skipped []string, err error) {
	for _, key := range r.Keys() {
		v, ok := r.Version(key)
		if !ok {
			continue
		}
		var be baselineEntry
		exported := false
		if base != nil {
			be, exported = base.entries[key]
		}
		tracked, err := w.fs.Exists(key + SidecarSuffix)
		if err != nil {
			return skipped, err
		}
		if !tracked {
			if exported {
				// Tracked at export time, forgotten since: a local
				// decision this sync must not override.
				skipped = append(skipped, key)
				continue
			}
			if v.Deleted {
				continue // tombstone for a key this workspace never had
			}
			if exists, err := w.fs.Exists(key); err != nil {
				return skipped, err
			} else if exists {
				// An untracked local file occupies the path: never
				// clobber data the workspace does not manage.
				skipped = append(skipped, key)
				continue
			}
			if err := writeEntry(w, key, v); err != nil {
				return skipped, err
			}
			continue
		}

		st, hash, err := w.readSidecar(key)
		if err != nil {
			return skipped, err
		}
		localMoved := !exported || !st.Equal(be.stamp) || hash != be.hash
		if !localMoved {
			if content, err := w.fs.ReadFile(key); err == nil && hashContent(content) != hash {
				localMoved = true // unrecorded edit on disk
			}
		}
		if localMoved {
			skipped = append(skipped, key)
			continue
		}
		// Local state is exactly what we exported; replica-side changes
		// (if any) are safe to apply.
		if !v.Deleted && v.Stamp.Equal(be.stamp) && hashContent(v.Value) == be.hash {
			continue // unchanged on both sides
		}
		if v.Deleted {
			if err := w.fs.Remove(key + SidecarSuffix); err != nil {
				return skipped, err
			}
			if exists, err := w.fs.Exists(key); err != nil {
				return skipped, err
			} else if exists {
				if err := w.fs.Remove(key); err != nil {
					return skipped, err
				}
			}
			continue
		}
		if err := writeEntry(w, key, v); err != nil {
			return skipped, err
		}
	}
	return skipped, nil
}

// writeEntry materializes one live replica copy as a tracked file.
func writeEntry(w *Workspace, key string, v kvstore.Versioned) error {
	if err := w.fs.WriteFile(key, v.Value); err != nil {
		return fmt.Errorf("panasync: %w", err)
	}
	return w.writeSidecar(key, v.Stamp, hashContent(v.Value))
}
