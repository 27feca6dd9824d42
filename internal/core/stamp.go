// Package core implements version stamps, the decentralized substitute for
// version vectors introduced by Almeida, Baquero and Fonte in "Version
// Stamps — Decentralized Version Vectors" (ICDCS 2002).
//
// A version stamp is a pair (u, i) of names (package name): the id component
// i identifies the element among all coexisting elements of a frontier, and
// the update component u records which updates are known. The three
// operations of the fork-join model are:
//
//	update: (u, i) -> (i, i)
//	fork:   (u, i) -> (u, i·0), (u, i·1)
//	join:   (ua, ia), (ub, ib) -> (ua ⊔ ub, ia ⊔ ib)
//
// Joins are followed by the reduction of Section 6, which repeatedly rewrites
// (u, {i…, s·0, s·1}) to (u', {i…, s}); reduction keeps stamp size
// proportional to the width of the current frontier rather than to the
// number of replicas ever created. JoinNoReduce gives the non-reducing model
// of Section 4 for experiments.
//
// No operation consults anything beyond the operand stamps: there are no
// counters, no globally unique identifiers and no naming protocol. Replicas
// can therefore be created and retired under arbitrary network partitions,
// which is the problem the paper solves.
//
// Comparing two stamps of the same frontier with Compare yields exactly the
// causal-history relation between the elements (paper Proposition 5.1 and
// Corollary 5.2): Equal (same updates seen), Before/After (one element is
// obsolete relative to the other), or Concurrent (mutually inconsistent,
// i.e. a conflict in optimistic-replication terms).
package core

import (
	"errors"
	"fmt"

	"versionstamp/internal/name"
	"versionstamp/internal/trie"
)

// ErrOverlappingIDs is returned by Join when the two stamps' id components
// are not mutually incomparable. Stamps drawn from the same frontier always
// have incomparable ids (Invariant I2); overlapping ids indicate misuse,
// such as joining a stamp with itself or with a stale copy of an ancestor.
var ErrOverlappingIDs = errors.New("core: join of stamps with overlapping ids")

// Stamp is a version stamp (u, i). The zero value is the stamp (∅, ∅), which
// is not a member of any reachable configuration; new histories start from
// Seed().
//
// Stamp values are immutable; operations return new stamps. Both components
// are held as handles to hash-consed tries (trie.Interned): each distinct
// name exists once per process while its nodes are table-resident, so
// structural equality is usually pointer comparison, Update is two pointer
// copies, Fork, Join and Reduce are memoized recursions over the tries, and
// the wire encoding of a component is cached on its handle. See the
// "Performance model" section of the package versionstamp documentation.
type Stamp struct {
	// The zero-width func field makes Stamp non-comparable: handle pointers
	// are an implementation detail (oversized names and nodes rotated out of
	// the intern table yield unshared handles for equal names), so == would
	// silently report false negatives. Use Equal.
	_ [0]func()

	u *trie.Interned // update component: which updates this element has seen
	i *trie.Interned // id component: this element's identity within the frontier
}

// epsilonHandle is the interned name {ε}, the component of every seed stamp.
var epsilonHandle = trie.Intern(name.Epsilon())

// Seed returns the stamp ({ε}, {ε}) of the initial configuration: a system
// with a single data element that owns "the whole" identity space.
func Seed() Stamp {
	return Stamp{u: epsilonHandle, i: epsilonHandle}
}

// New assembles a stamp from explicit components, validating Invariant I1
// (u ⊑ i). It is intended for decoding and tests; normal use derives stamps
// exclusively through Seed, Update, Fork and Join.
func New(update, id name.Name) (Stamp, error) {
	return NewInterned(trie.Intern(update), trie.Intern(id))
}

// NewInterned assembles a stamp from already-interned components, validating
// Invariant I1. It is the allocation-free constructor decoders use once the
// components have been deduped against the intern table; the I1 check of a
// pair it has seen before is a comparison-cache hit.
func NewInterned(update, id *trie.Interned) (Stamp, error) {
	if rel := order(update, id); rel != Equal && rel != Before {
		return Stamp{}, fmt.Errorf("core: I1 violated: u = %v ⋢ i = %v", update, id)
	}
	return Stamp{u: update, i: id}, nil
}

// MustNew is New but panics on error; intended for tests and examples.
func MustNew(update, id name.Name) Stamp {
	s, err := New(update, id)
	if err != nil {
		panic(err)
	}
	return s
}

// UpdateName returns the update component u.
func (s Stamp) UpdateName() name.Name { return s.u.Name() }

// IDName returns the id component i.
func (s Stamp) IDName() name.Name { return s.i.Name() }

// UpdateHandle returns the interned update component. Encoders use it to
// append the component's cached canonical bytes without re-walking anything.
func (s Stamp) UpdateHandle() *trie.Interned { return s.u }

// IDHandle returns the interned id component.
func (s Stamp) IDHandle() *trie.Interned { return s.i }

// IsZero reports whether s is the zero Stamp (∅, ∅), which does not occur in
// reachable configurations.
func (s Stamp) IsZero() bool { return s.u.IsEmpty() && s.i.IsEmpty() }

// Update records an update event: the id is copied into the update
// component, (u, i) -> (i, i). After an update, further updates leave the
// stamp unchanged until the frontier changes shape — information that cannot
// influence the comparison of coexisting elements is deliberately discarded.
func (s Stamp) Update() Stamp {
	return Stamp{u: s.i, i: s.i}
}

// Fork splits the element in two: (u, i) -> (u, i·0), (u, i·1). Both
// descendants know the same updates; their ids partition the ancestor's
// identity space, so they remain distinguishable anywhere in the frontier
// without any coordination. The appended ids are memoized by handle, so
// forking an id the process has forked recently allocates nothing.
func (s Stamp) Fork() (Stamp, Stamp) {
	return Stamp{u: s.u, i: s.i.Append0()},
		Stamp{u: s.u, i: s.i.Append1()}
}

// ForkN forks s into n >= 1 stamps by repeated binary forking, breadth
// first, so the resulting ids are as shallow as possible.
func (s Stamp) ForkN(n int) []Stamp {
	if n <= 1 {
		return []Stamp{s}
	}
	out := []Stamp{s}
	for len(out) < n {
		next := out[0]
		out = out[1:]
		a, b := next.Fork()
		out = append(out, a, b)
	}
	return out
}

// Join merges two elements of a frontier into one:
//
//	(ua, ia), (ub, ib) -> (ua ⊔ ub, ia ⊔ ib)
//
// followed by reduction (Section 6). The update components merge, reflecting
// combined knowledge of past updates; the id components merge, and sibling
// id fragments {s·0, s·1} collapse back into s, adapting identity granularity
// to the narrowed frontier. A fork immediately followed by a join of both
// descendants restores the original stamp exactly.
func Join(a, b Stamp) (Stamp, error) {
	s, err := JoinNoReduce(a, b)
	if err != nil {
		return Stamp{}, err
	}
	return s.Reduce(), nil
}

// JoinNoReduce is Join without the reduction step: the non-reducing model of
// Definition 4.3, retained for the E5 ablation experiments and for tests of
// the reduction rule itself.
func JoinNoReduce(a, b Stamp) (Stamp, error) {
	if !a.i.IncomparableTo(b.i) {
		return Stamp{}, fmt.Errorf("%w: %v and %v", ErrOverlappingIDs, a.i, b.i)
	}
	// JoinInterned returns the dominating side's handle unchanged when one
	// operand contains the other — for equal update components (converged
	// copies) the join is free and preserves handle identity.
	return Stamp{
		u: trie.JoinInterned(a.u, b.u),
		i: trie.JoinInterned(a.i, b.i),
	}, nil
}

// Sync models the synchronization of two replicas, which the paper expresses
// as joining them and forking the result: both replicas survive, each knowing
// the union of updates seen by either.
func Sync(a, b Stamp) (Stamp, Stamp, error) {
	joined, err := Join(a, b)
	if err != nil {
		return Stamp{}, Stamp{}, err
	}
	sa, sb := joined.Fork()
	return sa, sb, nil
}

// Retire removes a replica from the system: in the fork-join model,
// retirement is joining the retiring stamp into any surviving replica and
// dropping the retiring one, returning the retiring replica's identity
// fragment (and update knowledge) to the survivor. It is Join under a name
// that documents the intent.
func Retire(survivor, retiring Stamp) (Stamp, error) {
	return Join(survivor, retiring)
}

// String renders the stamp in the paper's Figure 4 notation, e.g.
// "[1|0+1]" for the stamp (u = {1}, i = {0, 1}).
func (s Stamp) String() string {
	return "[" + s.u.String() + "|" + s.i.String() + "]"
}
