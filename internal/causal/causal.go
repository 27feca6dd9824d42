// Package causal implements the causal-history model of Section 2 of the
// paper: the global-view ground truth that version stamps are proven
// equivalent to.
//
// A configuration maps the elements of the current frontier to sets of
// update events. Update events carry globally unique identities (a global
// counter here), which is exactly the global view that version stamps
// eliminate; the model exists to specify correct behaviour, and the test
// suite checks mechanically that stamp comparisons agree with causal-history
// inclusion on every frontier of every trace (paper Proposition 5.1 and
// Corollary 5.2).
//
// Operations follow Definition 2.1:
//
//	update(a): {C, a ↦ A}    -> {C, a' ↦ A ∪ {e}},  e globally fresh
//	fork(a):   {C, a ↦ A}    -> {C, b ↦ A, c ↦ A}
//	join(a,b): {C, a ↦ A, b ↦ B} -> {C, c ↦ A ∪ B}
//
// Comparing frontier elements (Section 2):
//
//	a equivalent to b      iff A = B
//	a obsolete relative to b iff A ⊂ B
//	a inconsistent with b  iff A ⊄ B and B ⊄ A
//
// Section 1.2 of the paper separates this frontier ordering, between
// elements that coexist, from an ordering of all elements of a distributed
// evolution — the question a debugger of a recorded run asks, such as
// whether an element lies in the past of another it never coexisted with.
// Version stamps answer only the first, and only the first is needed to
// manage replicas. The second needs a global view of the whole run, the view
// stamps exist to avoid; a History kept from any point of a run answers
// inclusion against any other, which is as far as this model goes.
package causal

import (
	"fmt"
	"sort"
	"strings"
)

// Event is a globally unique update event identity.
type Event uint64

// Elem identifies a frontier element within a System. Element identities are
// never reused, so stale handles are detected rather than misresolved.
type Elem uint64

// History is an immutable set of update events: the causal history of one
// frontier element.
type History struct {
	events map[Event]struct{}
}

// emptyHistory returns the history of a freshly created element.
func emptyHistory() History {
	return History{events: map[Event]struct{}{}}
}

// Len returns the number of events in the history.
func (h History) Len() int { return len(h.events) }

// Contains reports membership of e.
func (h History) Contains(e Event) bool {
	_, ok := h.events[e]
	return ok
}

// Events returns the events in ascending order.
func (h History) Events() []Event {
	out := make([]Event, 0, len(h.events))
	for e := range h.events {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SubsetOf reports h ⊆ g.
func (h History) SubsetOf(g History) bool {
	if len(h.events) > len(g.events) {
		return false
	}
	for e := range h.events {
		if !g.Contains(e) {
			return false
		}
	}
	return true
}

// Equal reports h = g.
func (h History) Equal(g History) bool {
	return len(h.events) == len(g.events) && h.SubsetOf(g)
}

// union returns h ∪ g as a fresh history.
func (h History) union(g History) History {
	u := make(map[Event]struct{}, len(h.events)+len(g.events))
	for e := range h.events {
		u[e] = struct{}{}
	}
	for e := range g.events {
		u[e] = struct{}{}
	}
	return History{events: u}
}

// with returns h ∪ {e} as a fresh history.
func (h History) with(e Event) History {
	u := make(map[Event]struct{}, len(h.events)+1)
	for ev := range h.events {
		u[ev] = struct{}{}
	}
	u[e] = struct{}{}
	return History{events: u}
}

// String renders the history as {e1,e2,…}.
func (h History) String() string {
	evs := h.Events()
	parts := make([]string, len(evs))
	for i, e := range evs {
		parts[i] = fmt.Sprintf("e%d", e)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Ordering mirrors the three situations of Section 2 plus equality, aligned
// with package core's Ordering for direct comparison in tests.
type Ordering int

// Ordering values; see package core for the replication-level meaning.
const (
	Equal Ordering = iota + 1
	Before
	After
	Concurrent
)

// String returns a human-readable rendering of the ordering.
func (o Ordering) String() string {
	switch o {
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

// System is a causal-history configuration together with the global event
// counter — the global view the paper's Section 2 assumes.
//
// System is not safe for concurrent use; the simulator drives it from a
// single goroutine.
type System struct {
	nextEvent Event
	nextElem  Elem
	frontier  map[Elem]History
}

// NewSystem creates the initial configuration {a ↦ {}} and returns the
// system together with the sole element a.
func NewSystem() (*System, Elem) {
	s := &System{frontier: make(map[Elem]History)}
	a := s.fresh(emptyHistory())
	return s, a
}

func (s *System) fresh(h History) Elem {
	e := s.nextElem
	s.nextElem++
	s.frontier[e] = h
	return e
}

// Size returns the number of elements in the current frontier.
func (s *System) Size() int { return len(s.frontier) }

// Elems returns the frontier elements in ascending identity order.
func (s *System) Elems() []Elem {
	out := make([]Elem, 0, len(s.frontier))
	for e := range s.frontier {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// History returns the causal history of a frontier element.
func (s *System) History(a Elem) (History, error) {
	h, ok := s.frontier[a]
	if !ok {
		return History{}, fmt.Errorf("causal: element %d is not in the frontier", a)
	}
	return h, nil
}

// Update records a globally fresh update event on a, replacing a with a new
// element a' whose history is A ∪ {e}.
func (s *System) Update(a Elem) (Elem, error) {
	h, ok := s.frontier[a]
	if !ok {
		return 0, fmt.Errorf("causal: update of unknown element %d", a)
	}
	e := s.nextEvent
	s.nextEvent++
	delete(s.frontier, a)
	return s.fresh(h.with(e)), nil
}

// Fork replaces a with two elements sharing a's history.
func (s *System) Fork(a Elem) (Elem, Elem, error) {
	h, ok := s.frontier[a]
	if !ok {
		return 0, 0, fmt.Errorf("causal: fork of unknown element %d", a)
	}
	delete(s.frontier, a)
	return s.fresh(h), s.fresh(h), nil
}

// Join replaces a and b with a single element holding A ∪ B.
func (s *System) Join(a, b Elem) (Elem, error) {
	if a == b {
		return 0, fmt.Errorf("causal: join of element %d with itself", a)
	}
	ha, ok := s.frontier[a]
	if !ok {
		return 0, fmt.Errorf("causal: join of unknown element %d", a)
	}
	hb, ok := s.frontier[b]
	if !ok {
		return 0, fmt.Errorf("causal: join of unknown element %d", b)
	}
	delete(s.frontier, a)
	delete(s.frontier, b)
	return s.fresh(ha.union(hb)), nil
}

// Compare relates two frontier elements by causal-history inclusion.
func (s *System) Compare(a, b Elem) (Ordering, error) {
	ha, err := s.History(a)
	if err != nil {
		return 0, err
	}
	hb, err := s.History(b)
	if err != nil {
		return 0, err
	}
	ab, ba := ha.SubsetOf(hb), hb.SubsetOf(ha)
	switch {
	case ab && ba:
		return Equal, nil
	case ab:
		return Before, nil
	case ba:
		return After, nil
	default:
		return Concurrent, nil
	}
}

// SubsetOfUnion reports C(x) ⊆ ∪ C[S], the left-hand side of the paper's
// Proposition 5.1, for the frontier element x and a set S of frontier
// elements.
func (s *System) SubsetOfUnion(x Elem, set []Elem) (bool, error) {
	hx, err := s.History(x)
	if err != nil {
		return false, err
	}
	union := emptyHistory()
	for _, y := range set {
		hy, err := s.History(y)
		if err != nil {
			return false, err
		}
		union = union.union(hy)
	}
	return hx.SubsetOf(union), nil
}

// TotalEvents returns how many update events the system has minted; each is
// globally unique, which is precisely the global view stamps avoid.
func (s *System) TotalEvents() uint64 { return uint64(s.nextEvent) }
