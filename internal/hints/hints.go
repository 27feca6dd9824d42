// Package hints is the durable hinted-handoff queue of the partitioned
// cluster: when a quorum write cannot reach one of a stripe's owners, the
// owner gets a result slot in the write's one kvstore.ConvergeKey call,
// which fills it with a fork of the converged copy, and the coordinator
// queues that detached copy here, addressed to the unreachable owner. The
// slot's fork is the outer half of the write's joined stamp, so the live
// owners keep one subtree of the id space that their next write rejoins
// whole; the hint's part is outstanding until it drains. When the owner's
// heartbeats resume, the queue drains: each copy is delivered by
// MergeVersioned, which reconciles it as a detached copy against the
// owner's (see kvstore's reconcile) and so joins the hint's stamp into the
// owner's — the handoff is exactly a deferred synchronization in the paper's
// fork-join model, and the stamps prove on delivery whether the hinted write
// is still news, already obsolete, or in conflict. The owner's next quorum
// write over all R owners joins the drained ids back with the others'.
//
// A queue opened over a WAL persists exactly like the store itself: every
// Add appends a record, and a drain checkpoints the survivors, so a
// coordinator crash loses no promised handoff. A queue opened over a nil
// WAL is volatile — the queue of an in-memory node, which has no disk to
// crash-restart from.
package hints

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/storage/wal"
)

// Hint is one write owed to a currently unreachable owner.
type Hint struct {
	// Target is the node ID the copy is addressed to.
	Target string
	// Key is the store key.
	Key string
	// Value, Deleted and Stamp are the detached copy (a ConvergeKey hint
	// slot).
	Value   []byte
	Deleted bool
	Stamp   core.Stamp
}

// hintSlot is the single WAL stripe the queue uses: hints are few and
// drained wholesale per target, so one log suffices.
const hintSlot = 0

// snapshotVersion tags the checkpoint format.
const snapshotVersion = 0x01

// Queue is a multi-target FIFO of hints, durable when opened over a WAL.
// Safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	w       *wal.WAL          // nil = volatile
	pending map[string][]Hint // target -> hints in Add order
	count   int
	cap     int   // per-target bound; 0 = unbounded
	dropped int64 // hints discarded by the cap since Open
}

// Options configures a Queue.
type Options struct {
	// CapPerTarget bounds the hints queued per target; when an Add would
	// exceed it, the oldest hint for that target is dropped. A dropped
	// hint is a lost promise, not lost data: the write it carried is still
	// on the coordinator's replica, and anti-entropy converges it to the
	// target after revival — the cap trades a bounded amount of handoff
	// latency for a bounded queue. 0 = unbounded.
	CapPerTarget int
}

// Open loads a queue from its WAL (replaying checkpoint and log) and takes
// ownership of it: Close closes the WAL. A nil WAL opens an empty volatile
// queue. A cap applies to replayed hints too, so reopening an over-full
// queue under a (new) cap trims it.
func Open(w *wal.WAL, opts Options) (*Queue, error) {
	q := &Queue{w: w, pending: make(map[string][]Hint), cap: opts.CapPerTarget}
	if w == nil {
		return q, nil
	}
	err := w.ReplayShard(hintSlot,
		func(snapshot []byte) error { return q.loadSnapshot(snapshot) },
		func(e encoding.Entry) error {
			h, err := decodeHint(e)
			if err != nil {
				return err
			}
			q.push(h)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("hints: replay: %w", err)
	}
	return q, nil
}

// push appends h in memory, enforcing the per-target cap by dropping the
// oldest hint of the same target. Caller holds mu (or is still
// single-threaded in Open).
func (q *Queue) push(h Hint) {
	hs := append(q.pending[h.Target], h)
	q.count++
	if q.cap > 0 && len(hs) > q.cap {
		over := len(hs) - q.cap
		hs = append(hs[:0], hs[over:]...)
		q.count -= over
		q.dropped += int64(over)
	}
	q.pending[h.Target] = hs
}

// Dropped reports how many hints the per-target cap has discarded since
// Open. Each was an oldest-first eviction; anti-entropy is the backstop
// that still converges the data they promised.
func (q *Queue) Dropped() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Add queues one hint, durably when the queue has a WAL.
func (q *Queue) Add(h Hint) error {
	if h.Target == "" || strings.ContainsRune(h.Target, 0) {
		return fmt.Errorf("hints: invalid target %q", h.Target)
	}
	if strings.ContainsRune(h.Key, 0) {
		return fmt.Errorf("hints: key %q contains NUL", h.Key)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.w != nil {
		if err := q.w.Append(hintSlot, encodeHint(h)); err != nil {
			return fmt.Errorf("hints: append: %w", err)
		}
	}
	q.push(h)
	return nil
}

// Take removes and returns every hint addressed to target, in Add order,
// checkpointing the survivors so a crash after a successful drain cannot
// replay it. On error nothing is removed.
func (q *Queue) Take(target string) ([]Hint, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	taken := q.pending[target]
	if len(taken) == 0 {
		return nil, nil
	}
	if q.w != nil {
		if err := q.w.Checkpoint(hintSlot, q.snapshotLocked(target)); err != nil {
			return nil, fmt.Errorf("hints: checkpoint: %w", err)
		}
	}
	delete(q.pending, target)
	q.count -= len(taken)
	return taken, nil
}

// Requeue re-adds hints whose delivery did not complete (e.g. a
// conflict awaiting a resolver, or the target died again mid-drain).
func (q *Queue) Requeue(hs []Hint) error {
	for _, h := range hs {
		if err := q.Add(h); err != nil {
			return err
		}
	}
	return nil
}

// Pending returns the number of hints queued for target.
func (q *Queue) Pending(target string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending[target])
}

// Len returns the total queued hint count.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Targets returns the node IDs with pending hints, sorted.
func (q *Queue) Targets() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, 0, len(q.pending))
	for t, hs := range q.pending {
		if len(hs) > 0 {
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}

// Close releases the WAL. Pending hints stay durable; a later Open resumes
// them. A volatile queue has nothing to release.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.w == nil {
		return nil
	}
	return q.w.Close()
}

// snapshotLocked serializes every pending hint except those addressed to
// skip ("" skips nothing). Targets in sorted order, hints in Add order.
func (q *Queue) snapshotLocked(skip string) []byte {
	var n uint64
	for t, hs := range q.pending {
		if t != skip {
			n += uint64(len(hs))
		}
	}
	out := append([]byte(nil), snapshotVersion)
	out = binary.AppendUvarint(out, n)
	targets := make([]string, 0, len(q.pending))
	for t := range q.pending {
		if t != skip {
			targets = append(targets, t)
		}
	}
	sort.Strings(targets)
	for _, t := range targets {
		for _, h := range q.pending[t] {
			out = encoding.AppendEntry(out, encodeHint(h))
		}
	}
	return out
}

// loadSnapshot parses a checkpoint produced by snapshotLocked.
func (q *Queue) loadSnapshot(snapshot []byte) error {
	if len(snapshot) == 0 {
		return nil
	}
	if snapshot[0] != snapshotVersion {
		return fmt.Errorf("hints: unknown snapshot version 0x%02x", snapshot[0])
	}
	data := snapshot[1:]
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return fmt.Errorf("hints: bad snapshot count")
	}
	data = data[used:]
	q.pending = make(map[string][]Hint)
	q.count = 0
	for i := uint64(0); i < n; i++ {
		e, used, err := encoding.DecodeEntry(data, nil)
		if err != nil {
			return fmt.Errorf("hints: snapshot entry %d: %w", i, err)
		}
		data = data[used:]
		h, err := decodeHint(e)
		if err != nil {
			return err
		}
		q.push(h)
	}
	if len(data) != 0 {
		return fmt.Errorf("hints: %d trailing snapshot bytes", len(data))
	}
	return nil
}

// encodeHint packs a hint into the store's wire entry shape, the target
// riding in the key under a NUL separator (forbidden in both fields).
func encodeHint(h Hint) encoding.Entry {
	return encoding.Entry{
		Key:     h.Target + "\x00" + h.Key,
		Value:   h.Value,
		Deleted: h.Deleted,
		Stamp:   h.Stamp,
	}
}

func decodeHint(e encoding.Entry) (Hint, error) {
	sep := strings.IndexByte(e.Key, 0)
	if sep < 1 {
		return Hint{}, fmt.Errorf("hints: malformed record key %q", e.Key)
	}
	return Hint{
		Target:  e.Key[:sep],
		Key:     e.Key[sep+1:],
		Value:   e.Value,
		Deleted: e.Deleted,
		Stamp:   e.Stamp,
	}, nil
}
