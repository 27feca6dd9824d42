// Package sim drives identical fork/join/update traces through several
// causality-tracking mechanisms in lockstep and cross-checks them:
//
//   - the causal-history oracle (internal/causal) — ground truth;
//   - version stamps, reducing and non-reducing (internal/core);
//   - dynamic version vectors (internal/vv) under a choice of id allocator;
//   - any other mechanism implementing Tracker (e.g. internal/itc).
//
// The lockstep checker re-verifies, after every operation of every trace,
// that each subject mechanism induces exactly the causal-history pre-order
// on the frontier — for all pairs (paper Corollary 5.2) and for random
// (x, S) subset queries (the stronger Proposition 5.1) — and that the stamp
// invariants I1–I3 and the id-space cover hold. The same machinery collects
// the size statistics behind experiments E5 and E6.
package sim

import (
	"fmt"

	"versionstamp/internal/causal"
	"versionstamp/internal/core"
	"versionstamp/internal/trie"
	"versionstamp/internal/vv"
)

// Relation is the mechanism-independent comparison outcome used by the
// lockstep checker.
type Relation int

// Relation values mirror core.Ordering.
const (
	Equal Relation = iota + 1
	Before
	After
	Concurrent
)

// String returns a human-readable rendering of the relation.
func (r Relation) String() string {
	switch r {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return "invalid"
	}
}

// Tracker is a causality-tracking mechanism under test. Implementations
// maintain an ordered list of live frontier elements ("slots"); operations
// address slots by index with a common discipline so that identical traces
// replay identically on every mechanism:
//
//	Update(a):  replaces slot a in place
//	Fork(a):    replaces slot a with one descendant, appends the other
//	Join(a,b):  replaces slot a with the join, deletes slot b
type Tracker interface {
	// Name identifies the mechanism in reports.
	Name() string
	// Width returns the number of live frontier elements.
	Width() int
	// Update records an update on slot a.
	Update(a int) error
	// Fork splits slot a.
	Fork(a int) error
	// Join merges slot b into slot a.
	Join(a, b int) error
	// Compare relates slots a and b.
	Compare(a, b int) (Relation, error)
}

// SubsetComparer is implemented by mechanisms that can answer the stronger
// Proposition 5.1 query: does element x precede the combined knowledge of
// the subset S of the frontier?
type SubsetComparer interface {
	// LeqUnion reports x ≤ ⊔S in the mechanism's order.
	LeqUnion(x int, set []int) (bool, error)
}

// SizeReporter is implemented by mechanisms whose per-element state has a
// meaningful serialized size (experiments E5/E6).
type SizeReporter interface {
	// SizeOf returns the encoded size in bytes of slot a's state.
	SizeOf(a int) int
}

// InvariantChecker is implemented by mechanisms with internal invariants to
// re-verify during traces (version stamps re-check I1–I3 and id cover).
type InvariantChecker interface {
	// CheckInvariants verifies all internal invariants of the current
	// frontier.
	CheckInvariants() error
}

func checkSlot(width, a int) error {
	if a < 0 || a >= width {
		return fmt.Errorf("sim: slot %d out of range [0,%d)", a, width)
	}
	return nil
}

func checkSlots(width, a, b int) error {
	if err := checkSlot(width, a); err != nil {
		return err
	}
	if err := checkSlot(width, b); err != nil {
		return err
	}
	if a == b {
		return fmt.Errorf("sim: join of slot %d with itself", a)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Version stamps

// StampTracker runs version stamps. Reduce selects between the Section 6
// reducing model (true) and the Definition 4.3 non-reducing model (false).
type StampTracker struct {
	reduce  bool
	stamps  []core.Stamp
	nameStr string
}

var (
	_ Tracker          = (*StampTracker)(nil)
	_ SubsetComparer   = (*StampTracker)(nil)
	_ SizeReporter     = (*StampTracker)(nil)
	_ InvariantChecker = (*StampTracker)(nil)
)

// NewStampTracker returns a stamp tracker seeded with a single element.
func NewStampTracker(reduce bool) *StampTracker {
	n := "stamps"
	if !reduce {
		n = "stamps-noreduce"
	}
	return &StampTracker{reduce: reduce, stamps: []core.Stamp{core.Seed()}, nameStr: n}
}

// Name implements Tracker.
func (t *StampTracker) Name() string { return t.nameStr }

// Width implements Tracker.
func (t *StampTracker) Width() int { return len(t.stamps) }

// Stamp returns the stamp at slot a (for reports and golden tests).
func (t *StampTracker) Stamp(a int) (core.Stamp, error) {
	if err := checkSlot(len(t.stamps), a); err != nil {
		return core.Stamp{}, err
	}
	return t.stamps[a], nil
}

// Update implements Tracker.
func (t *StampTracker) Update(a int) error {
	if err := checkSlot(len(t.stamps), a); err != nil {
		return err
	}
	t.stamps[a] = t.stamps[a].Update()
	return nil
}

// Fork implements Tracker.
func (t *StampTracker) Fork(a int) error {
	if err := checkSlot(len(t.stamps), a); err != nil {
		return err
	}
	l, r := t.stamps[a].Fork()
	t.stamps[a] = l
	t.stamps = append(t.stamps, r)
	return nil
}

// Join implements Tracker.
func (t *StampTracker) Join(a, b int) error {
	if err := checkSlots(len(t.stamps), a, b); err != nil {
		return err
	}
	var (
		joined core.Stamp
		err    error
	)
	if t.reduce {
		joined, err = core.Join(t.stamps[a], t.stamps[b])
	} else {
		joined, err = core.JoinNoReduce(t.stamps[a], t.stamps[b])
	}
	if err != nil {
		return err
	}
	t.stamps[a] = joined
	t.stamps = append(t.stamps[:b], t.stamps[b+1:]...)
	return nil
}

// Compare implements Tracker.
func (t *StampTracker) Compare(a, b int) (Relation, error) {
	if err := checkSlot(len(t.stamps), a); err != nil {
		return 0, err
	}
	if err := checkSlot(len(t.stamps), b); err != nil {
		return 0, err
	}
	return Relation(core.Compare(t.stamps[a], t.stamps[b])), nil
}

// LeqUnion implements SubsetComparer: fst(V(x)) ⊑ ⊔ fst[V[S]].
func (t *StampTracker) LeqUnion(x int, set []int) (bool, error) {
	if err := checkSlot(len(t.stamps), x); err != nil {
		return false, err
	}
	var joined *trie.Interned
	for _, y := range set {
		if err := checkSlot(len(t.stamps), y); err != nil {
			return false, err
		}
		joined = trie.JoinInterned(joined, t.stamps[y].UpdateHandle())
	}
	return t.stamps[x].UpdateHandle().Leq(joined), nil
}

// SizeOf implements SizeReporter.
func (t *StampTracker) SizeOf(a int) int {
	if a < 0 || a >= len(t.stamps) {
		return 0
	}
	return t.stamps[a].EncodedSize()
}

// CheckInvariants implements InvariantChecker: I1–I3 over the frontier,
// and that the frontier's ids still cover the whole id space.
func (t *StampTracker) CheckInvariants() error {
	if err := core.CheckFrontier(t.stamps); err != nil {
		return err
	}
	return core.CheckCover(t.stamps)
}

// ---------------------------------------------------------------------------
// Causal histories (the oracle)

// CausalTracker runs the global-view causal-history model.
type CausalTracker struct {
	sys   *causal.System
	elems []causal.Elem
}

var (
	_ Tracker        = (*CausalTracker)(nil)
	_ SubsetComparer = (*CausalTracker)(nil)
	_ SizeReporter   = (*CausalTracker)(nil)
)

// NewCausalTracker returns a causal-history tracker seeded with one element.
func NewCausalTracker() *CausalTracker {
	sys, a := causal.NewSystem()
	return &CausalTracker{sys: sys, elems: []causal.Elem{a}}
}

// Name implements Tracker.
func (t *CausalTracker) Name() string { return "causal-histories" }

// Width implements Tracker.
func (t *CausalTracker) Width() int { return len(t.elems) }

// Update implements Tracker.
func (t *CausalTracker) Update(a int) error {
	if err := checkSlot(len(t.elems), a); err != nil {
		return err
	}
	e, err := t.sys.Update(t.elems[a])
	if err != nil {
		return err
	}
	t.elems[a] = e
	return nil
}

// Fork implements Tracker.
func (t *CausalTracker) Fork(a int) error {
	if err := checkSlot(len(t.elems), a); err != nil {
		return err
	}
	l, r, err := t.sys.Fork(t.elems[a])
	if err != nil {
		return err
	}
	t.elems[a] = l
	t.elems = append(t.elems, r)
	return nil
}

// Join implements Tracker.
func (t *CausalTracker) Join(a, b int) error {
	if err := checkSlots(len(t.elems), a, b); err != nil {
		return err
	}
	e, err := t.sys.Join(t.elems[a], t.elems[b])
	if err != nil {
		return err
	}
	t.elems[a] = e
	t.elems = append(t.elems[:b], t.elems[b+1:]...)
	return nil
}

// Compare implements Tracker.
func (t *CausalTracker) Compare(a, b int) (Relation, error) {
	if err := checkSlot(len(t.elems), a); err != nil {
		return 0, err
	}
	if err := checkSlot(len(t.elems), b); err != nil {
		return 0, err
	}
	o, err := t.sys.Compare(t.elems[a], t.elems[b])
	if err != nil {
		return 0, err
	}
	return Relation(o), nil
}

// LeqUnion implements SubsetComparer: C(x) ⊆ ∪ C[S].
func (t *CausalTracker) LeqUnion(x int, set []int) (bool, error) {
	if err := checkSlot(len(t.elems), x); err != nil {
		return false, err
	}
	elems := make([]causal.Elem, len(set))
	for i, y := range set {
		if err := checkSlot(len(t.elems), y); err != nil {
			return false, err
		}
		elems[i] = t.elems[y]
	}
	return t.sys.SubsetOfUnion(t.elems[x], elems)
}

// SizeOf implements SizeReporter: 8 bytes per recorded event. This measures
// the inherent cost of the global-view model: histories only grow.
func (t *CausalTracker) SizeOf(a int) int {
	if a < 0 || a >= len(t.elems) {
		return 0
	}
	h, err := t.sys.History(t.elems[a])
	if err != nil {
		return 0
	}
	return 8 * h.Len()
}

// TotalEvents exposes the oracle's global event count.
func (t *CausalTracker) TotalEvents() uint64 { return t.sys.TotalEvents() }

// ---------------------------------------------------------------------------
// Dynamic version vectors

// DynamicVVTracker runs dynamic version vectors over an id allocator. When
// the allocator fails (e.g. a partitioned CentralServer), Fork fails — the
// identification problem in action.
type DynamicVVTracker struct {
	alloc   vv.Allocator
	vecs    []vv.Dynamic
	nameStr string
}

var (
	_ Tracker      = (*DynamicVVTracker)(nil)
	_ SizeReporter = (*DynamicVVTracker)(nil)
)

// NewDynamicVVTracker returns a dynamic-version-vector tracker seeded with
// one replica whose id comes from alloc.
func NewDynamicVVTracker(alloc vv.Allocator, label string) (*DynamicVVTracker, error) {
	id, err := alloc.NewID()
	if err != nil {
		return nil, fmt.Errorf("sim: seed replica id: %w", err)
	}
	return &DynamicVVTracker{
		alloc:   alloc,
		vecs:    []vv.Dynamic{vv.NewDynamic(id)},
		nameStr: label,
	}, nil
}

// Name implements Tracker.
func (t *DynamicVVTracker) Name() string { return t.nameStr }

// Width implements Tracker.
func (t *DynamicVVTracker) Width() int { return len(t.vecs) }

// Update implements Tracker.
func (t *DynamicVVTracker) Update(a int) error {
	if err := checkSlot(len(t.vecs), a); err != nil {
		return err
	}
	t.vecs[a] = t.vecs[a].Update()
	return nil
}

// Fork implements Tracker. It requires a fresh identifier from the
// allocator and propagates allocation failures.
func (t *DynamicVVTracker) Fork(a int) error {
	if err := checkSlot(len(t.vecs), a); err != nil {
		return err
	}
	id, err := t.alloc.NewID()
	if err != nil {
		return fmt.Errorf("sim: fork needs a fresh replica id: %w", err)
	}
	l, r, err := t.vecs[a].Fork(id)
	if err != nil {
		return err
	}
	t.vecs[a] = l
	t.vecs = append(t.vecs, r)
	return nil
}

// Join implements Tracker.
func (t *DynamicVVTracker) Join(a, b int) error {
	if err := checkSlots(len(t.vecs), a, b); err != nil {
		return err
	}
	t.vecs[a] = t.vecs[a].JoinInto(t.vecs[b])
	t.vecs = append(t.vecs[:b], t.vecs[b+1:]...)
	return nil
}

// Compare implements Tracker.
func (t *DynamicVVTracker) Compare(a, b int) (Relation, error) {
	if err := checkSlot(len(t.vecs), a); err != nil {
		return 0, err
	}
	if err := checkSlot(len(t.vecs), b); err != nil {
		return 0, err
	}
	return Relation(vv.CompareDynamic(t.vecs[a], t.vecs[b])), nil
}

// SizeOf implements SizeReporter.
func (t *DynamicVVTracker) SizeOf(a int) int {
	if a < 0 || a >= len(t.vecs) {
		return 0
	}
	return t.vecs[a].EncodedSize()
}
