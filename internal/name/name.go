// Package name implements the set N of "names" from Section 4 of the paper
// "Version Stamps — Decentralized Version Vectors" (Almeida, Baquero, Fonte,
// ICDCS 2002).
//
// A name is a finite antichain in the prefix-ordered set of finite binary
// strings: a finite set of strings no two of which are comparable. Names are
// ordered by
//
//	n1 ⊑ n2  ⇔  ∀r ∈ n1 ∃s ∈ n2: r ⊑ s
//
// which is the down-set (lower powerdomain) inclusion order. Because names
// hold only maximal elements, this is a genuine partial order, and N is a
// join semilattice: the join of two names is the set of maximal elements of
// their union (Proposition 4.2).
//
// Version stamps (package core) are pairs of names. The id component of a
// stamp denotes a non-overlapping part of "the whole"; the update component
// collects ids as they were when updates were performed.
//
// At run time the kernel holds names as hash-consed tries (package trie).
// This package is the paper's set notation (Parse, String), the validated
// input the tries are built from, and the specification the kernel is
// tested against: its sorted-slice operations, including the one-step
// sibling rewriting of Section 6 (SiblingPair, CollapseSiblings), are the
// oracles of the trie operations.
package name

import (
	"fmt"
	"sort"
	"strings"

	"versionstamp/internal/bitstr"
)

// Name is a finite antichain of binary strings, an element of the join
// semilattice N. The zero value is the empty name, the bottom of N.
//
// Name values are immutable: all methods return new values and never alias
// the receiver's backing storage to caller-visible state.
type Name struct {
	// ss is sorted lexicographically, duplicate-free, and pairwise
	// incomparable (an antichain).
	ss []bitstr.Bits
}

// Empty returns the empty name {}, the bottom of N.
func Empty() Name { return Name{} }

// Epsilon returns the name {ε}. Reachable stamps are seeded with ({ε},{ε}).
func Epsilon() Name { return Name{ss: []bitstr.Bits{bitstr.Epsilon}} }

// Singleton returns the name {b}.
func Singleton(b bitstr.Bits) Name { return Name{ss: []bitstr.Bits{b}} }

// New builds a name from the given strings, validating that they form an
// antichain. Duplicates are rejected. Use MaxOf to build a name from an
// arbitrary set by discarding dominated strings.
func New(bits ...bitstr.Bits) (Name, error) {
	sorted := sortedCopy(bits)
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] == sorted[i] {
			return Name{}, fmt.Errorf("name: duplicate string %v", sorted[i])
		}
	}
	for i := 0; i < len(sorted); i++ {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[i].ComparableTo(sorted[j]) {
				return Name{}, fmt.Errorf("name: not an antichain: %v ⊑ %v",
					sorted[i], sorted[j])
			}
		}
	}
	return Name{ss: sorted}, nil
}

// MustNew is New but panics on error; intended for constants and tests.
func MustNew(bits ...bitstr.Bits) Name {
	n, err := New(bits...)
	if err != nil {
		panic(err)
	}
	return n
}

// MaxOf builds the name consisting of the maximal elements of the given set
// of strings. This is total: any set of strings determines a name this way,
// corresponding to the down-set it generates.
func MaxOf(bits ...bitstr.Bits) Name {
	sorted := sortedCopy(bits)
	// After a lexicographic sort every string precedes all of its proper
	// extensions, but its extensions need not be adjacent to it when other
	// branches interleave; a string r is dominated iff some LATER element
	// extends it, and the first extension (if any) appears before any
	// lexicographically larger non-extension... that is not quite true in
	// general sets, so check against the immediately following survivor
	// chain: keep a stack of current maximal candidates.
	var keep []bitstr.Bits
	for _, s := range sorted {
		if len(keep) > 0 && keep[len(keep)-1] == s {
			continue // duplicate
		}
		// Pop any previous candidates that s extends. Because the input is
		// sorted, a prefix of s can only be the most recent candidate(s):
		// any prefix p of s satisfies p <= s lexicographically, and every
		// string strictly between p and s in lex order that is kept would
		// itself start with p... pop while top is a prefix of s.
		for len(keep) > 0 && keep[len(keep)-1].PrefixOf(s) {
			keep = keep[:len(keep)-1]
		}
		keep = append(keep, s)
	}
	return Name{ss: keep}
}

// Parse reads the textual notation used throughout the paper: strings joined
// by '+', e.g. "0+10+111", with "ε" (or "", or "e") for the empty string and
// "∅" (or "0x2205", or "{}") for the empty name. Whitespace around summands
// is ignored. The parsed set must be an antichain.
func Parse(s string) (Name, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "∅" || s == "{}" {
		return Empty(), nil
	}
	parts := strings.Split(s, "+")
	bits := make([]bitstr.Bits, 0, len(parts))
	for _, p := range parts {
		b, err := bitstr.Parse(strings.TrimSpace(p))
		if err != nil {
			return Name{}, fmt.Errorf("name: %w", err)
		}
		bits = append(bits, b)
	}
	n, err := New(bits...)
	if err != nil {
		return Name{}, err
	}
	return n, nil
}

// MustParse is Parse but panics on error; intended for tests and examples.
func MustParse(s string) Name {
	n, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String renders the name in the paper's notation: summands joined by '+',
// "ε" for the empty string, "∅" for the empty name.
func (n Name) String() string {
	if len(n.ss) == 0 {
		return "∅"
	}
	var sb strings.Builder
	for i, s := range n.ss {
		if i > 0 {
			sb.WriteByte('+')
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

// Len returns the number of strings in the name.
func (n Name) Len() int { return len(n.ss) }

// IsEmpty reports whether n is the empty name (bottom of N).
func (n Name) IsEmpty() bool { return len(n.ss) == 0 }

// Bits returns a copy of the strings of n in lexicographic order.
func (n Name) Bits() []bitstr.Bits {
	out := make([]bitstr.Bits, len(n.ss))
	copy(out, n.ss)
	return out
}

// At returns the i-th string in lexicographic order; ok=false out of range.
func (n Name) At(i int) (bitstr.Bits, bool) {
	if i < 0 || i >= len(n.ss) {
		return bitstr.Epsilon, false
	}
	return n.ss[i], true
}

// TotalBits returns the summed length of all strings, a size measure used by
// the space experiments (E5/E6).
func (n Name) TotalBits() int {
	total := 0
	for _, s := range n.ss {
		total += s.Len()
	}
	return total
}

// MaxDepth returns the length of the longest string in n.
func (n Name) MaxDepth() int {
	depth := 0
	for _, s := range n.ss {
		if s.Len() > depth {
			depth = s.Len()
		}
	}
	return depth
}

// lowerBound returns the index of the first string >= b in lexicographic
// order. It is sort.Search inlined as a plain loop so the hot comparison
// walks (Covers, Leq, Contains) never materialize a closure: they are
// allocation-free however the compiler feels about escape analysis.
func (n Name) lowerBound(b bitstr.Bits) int {
	lo, hi := 0, len(n.ss)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.ss[mid].Compare(b) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports exact membership of b in the antichain.
func (n Name) Contains(b bitstr.Bits) bool {
	i := n.lowerBound(b)
	return i < len(n.ss) && n.ss[i] == b
}

// Covers reports {b} ⊑ n: some string of n extends b (equivalently, b lies
// in the down-set of n). Implemented by binary search: the extensions of b
// form a contiguous run starting at the first element >= b.
func (n Name) Covers(b bitstr.Bits) bool {
	i := n.lowerBound(b)
	return i < len(n.ss) && b.PrefixOf(n.ss[i])
}

// coversNaive is the specification-level O(|n|) form of Covers, retained for
// differential testing.
func (n Name) coversNaive(b bitstr.Bits) bool {
	for _, s := range n.ss {
		if b.PrefixOf(s) {
			return true
		}
	}
	return false
}

// Leq reports n ⊑ m in the order of Definition 4.1.
func (n Name) Leq(m Name) bool {
	for _, r := range n.ss {
		if !m.Covers(r) {
			return false
		}
	}
	return true
}

// leqNaive is the specification-level quadratic form of Leq, retained for
// differential testing.
func (n Name) leqNaive(m Name) bool {
	for _, r := range n.ss {
		if !m.coversNaive(r) {
			return false
		}
	}
	return true
}

// Geq reports m ⊑ n.
func (n Name) Geq(m Name) bool { return m.Leq(n) }

// Equal reports set equality. Because names are antichains (so ⊑ is a
// partial order, not merely a pre-order), Equal(n,m) ⇔ n ⊑ m ∧ m ⊑ n.
func (n Name) Equal(m Name) bool {
	if len(n.ss) != len(m.ss) {
		return false
	}
	for i := range n.ss {
		if n.ss[i] != m.ss[i] {
			return false
		}
	}
	return true
}

// ComparableTo reports whether n and m are related by ⊑ in either direction.
func (n Name) ComparableTo(m Name) bool { return n.Leq(m) || m.Leq(n) }

// Join returns n ⊔ m: the set of maximal elements of the union
// (Proposition 4.2). It is the least upper bound of n and m in N.
func Join(n, m Name) Name {
	if n.IsEmpty() {
		return m
	}
	if m.IsEmpty() {
		return n
	}
	// When one side already dominates, the join is that side: return it
	// unchanged (names are immutable, so sharing the backing slice is safe).
	// Converged replicas join equal update components on every
	// reconciliation, so this allocation-free path is the steady state.
	if n.Leq(m) {
		return m
	}
	if m.Leq(n) {
		return n
	}
	// Merge the two sorted antichains, discarding dominated strings. Within
	// each input no domination exists, so only cross-domination matters.
	out := make([]bitstr.Bits, 0, len(n.ss)+len(m.ss))
	i, j := 0, 0
	for i < len(n.ss) && j < len(m.ss) {
		a, b := n.ss[i], m.ss[j]
		switch {
		case a == b:
			out = append(out, a)
			i++
			j++
		case a.StrictPrefixOf(b):
			// a is dominated by b; but a may also dominate later elements of
			// m? No: m is an antichain so nothing else in m relates to b,
			// yet a (a prefix of b) could still be a prefix of other m
			// elements — those are antichain-incomparable to b, and a ⊑ b,
			// so a being their prefix is fine; a is dominated regardless.
			i++
		case b.StrictPrefixOf(a):
			j++
		case a.Compare(b) < 0:
			out = append(out, a)
			i++
		default:
			out = append(out, b)
			j++
		}
	}
	out = append(out, n.ss[i:]...)
	out = append(out, m.ss[j:]...)
	return Name{ss: out}
}

// joinNaive is the specification-level form of Join, retained for
// differential testing: maximal elements of the union.
func joinNaive(n, m Name) Name {
	all := append(n.Bits(), m.Bits()...)
	return MaxOf(all...)
}

// Append0 returns n·0 = {s·0 | s ∈ n}: the concatenation of the digit 0
// lifted to sets of strings, used by the left branch of a fork.
func (n Name) Append0() Name { return n.appendBit(bitstr.Zero) }

// Append1 returns n·1 = {s·1 | s ∈ n}: the right branch of a fork.
func (n Name) Append1() Name { return n.appendBit(bitstr.One) }

func (n Name) appendBit(bit byte) Name {
	out := make([]bitstr.Bits, len(n.ss))
	for i, s := range n.ss {
		b, _ := s.AppendBit(bit)
		out[i] = b
	}
	// Appending the same digit to every string preserves both the antichain
	// property and lexicographic order.
	return Name{ss: out}
}

// SiblingPair searches for a string s such that both s·0 and s·1 are members
// of n. Such pairs are what the reduction rule of Section 6 collapses.
// The returned s is the lexicographically least such parent.
func (n Name) SiblingPair() (s bitstr.Bits, ok bool) {
	// In sorted order s·0 and s·1 need not be adjacent (strings extending
	// s·0 sort between them), but s·0 precedes s·1, so scan each member
	// ending in 0 and search for its sibling.
	for _, cand := range n.ss {
		parent, last, hasParent := cand.Parent()
		if !hasParent || last != bitstr.Zero {
			continue
		}
		sib := parent.Append1()
		if n.Contains(sib) {
			return parent, true
		}
	}
	return bitstr.Epsilon, false
}

// CollapseSiblings returns n with the pair {s·0, s·1} replaced by s. Both
// children must be members; otherwise ok=false and n is returned unchanged.
// For an antichain the result is again an antichain (shown in Section 6).
func (n Name) CollapseSiblings(s bitstr.Bits) (Name, bool) {
	c0, c1 := s.Append0(), s.Append1()
	if !n.Contains(c0) || !n.Contains(c1) {
		return n, false
	}
	out := make([]bitstr.Bits, 0, len(n.ss)-1)
	for _, m := range n.ss {
		if m != c0 && m != c1 {
			out = append(out, m)
		}
	}
	out = append(out, s)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return Name{ss: out}, true
}

// Remove returns n with exact member b removed (ok=false if absent).
func (n Name) Remove(b bitstr.Bits) (Name, bool) {
	if !n.Contains(b) {
		return n, false
	}
	out := make([]bitstr.Bits, 0, len(n.ss)-1)
	for _, m := range n.ss {
		if m != b {
			out = append(out, m)
		}
	}
	return Name{ss: out}, true
}

// Add inserts the string b, which must be incomparable to every current
// member; otherwise ok=false and n is returned unchanged.
func (n Name) Add(b bitstr.Bits) (Name, bool) {
	for _, m := range n.ss {
		if m.ComparableTo(b) {
			return n, false
		}
	}
	out := make([]bitstr.Bits, 0, len(n.ss)+1)
	out = append(out, n.ss...)
	out = append(out, b)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return Name{ss: out}, true
}

// IncomparableTo reports whether every string of n is incomparable to every
// string of m — the relation Invariant I2 requires between distinct frontier
// ids.
func (n Name) IncomparableTo(m Name) bool {
	for _, r := range n.ss {
		for _, s := range m.ss {
			if r.ComparableTo(s) {
				return false
			}
		}
	}
	return true
}

// Validate checks the internal representation invariant (sorted,
// duplicate-free antichain). It is used by fuzzing and the simulator's
// self-checks; correct use of the public API cannot violate it.
func (n Name) Validate() error {
	for i := 1; i < len(n.ss); i++ {
		if n.ss[i-1].Compare(n.ss[i]) >= 0 {
			return fmt.Errorf("name: not sorted/duplicate-free at %d: %v, %v",
				i, n.ss[i-1], n.ss[i])
		}
	}
	for i := 0; i < len(n.ss); i++ {
		if !n.ss[i].Valid() {
			return fmt.Errorf("name: invalid bit string %q", string(n.ss[i]))
		}
		for j := i + 1; j < len(n.ss); j++ {
			if n.ss[i].ComparableTo(n.ss[j]) {
				return fmt.Errorf("name: not an antichain: %v ⊑ %v", n.ss[i], n.ss[j])
			}
		}
	}
	return nil
}

func sortedCopy(bits []bitstr.Bits) []bitstr.Bits {
	sorted := make([]bitstr.Bits, len(bits))
	copy(sorted, bits)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	return sorted
}
