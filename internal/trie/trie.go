// Package trie holds the kernel's runtime form of a name (an antichain of
// binary strings, package name): a hash-consed binary trie.
//
// A name's strings are the leaves of a binary trie; the antichain property
// means a leaf has no descendants. The nil *Interned is the empty name ∅, one
// shared leaf is {ε}, and every other node is a (zero-child, one-child) pair
// built by one normalizing constructor that interns it. Each distinct node
// exists once per process (while table-resident), so
//
//   - equality is pointer comparison, falling back to structural recursion
//     only for nodes that lost sharing (rotated out, or oversized);
//   - Leq, Covers, IncomparableTo, Join, Append0/1 and the Section 6
//     reduction are short recursions over handles, and Join, Reduce and
//     Append0/1 are memoized by node id in a bounded lock-free table
//     (memo.go), so repeating one allocates nothing;
//   - the §6 reduction of an id is the normalizing rule "two leaf children
//     make a leaf" — the id normalization of interval tree clocks
//     (internal/itc), the successor design — with the update component
//     decided at the same node;
//   - a node caches its canonical structural encoding (encode.go) on first
//     use, so marshaling appends cached bytes, and decoding dedups on
//     arrival through a cache keyed by the raw wire bytes (intern.go).
//
// package name remains the paper's set notation (Parse, String), the
// validated input of Intern, and the oracle the tests compare against.
package trie

import (
	"fmt"
	"strings"
	"sync/atomic"

	"versionstamp/internal/bitstr"
	"versionstamp/internal/name"
)

// Interned is a hash-consed name: an immutable trie node. The zero id marks
// a node that is not table-resident (oversized, or built past the id cap);
// such nodes are correct but unshared and skip the memo tables.
type Interned struct {
	zero, one *Interned // children; both nil only for the shared leaf
	// enc caches the canonical encoding once it is first needed; flat
	// caches FlatSize. Oversized nodes cache no encoding.
	enc  atomic.Pointer[string]
	flat atomic.Int64
	id   uint32
	n    int32 // number of member strings
	// nbits is the structural encoding size in bits, root flag included;
	// maxEncodedBits bounds it for decoded names.
	nbits int32
	// normal reports that no node of this trie has two leaf children: as an
	// id component, the trie is in Section 6 normal form.
	normal bool
}

// leaf is the name {ε}. It is the only leaf node: the constructor never
// builds another, so leaf tests are pointer comparisons.
var leaf = &Interned{normal: true, n: 1, nbits: 2}

func init() {
	leaf.id = uint32(internCount.Add(1))
	enc := "\x02\xc0"
	leaf.enc.Store(&enc)
}

// node is the normalizing constructor: the interned node with children z
// and o, or nil (∅) when both are empty. The children are interned already,
// so the table is keyed by their ids; a lookup that hits allocates nothing.
func node(z, o *Interned) *Interned {
	if z == nil && o == nil {
		return nil
	}
	nbits := 4 + z.bodyBits() + o.bodyBits()
	shared := encodedLen(nbits) <= maxInternedEncoding && (z == nil || z.id != 0) && (o == nil || o.id != 0)
	key := nodeKey(z, o)
	sh := internShardFor(key)
	if shared {
		if rec := sh.lookup(key); rec != nil {
			return rec
		}
	}
	t := &Interned{zero: z, one: o, n: int32(z.Len() + o.Len()), nbits: int32(nbits),
		normal: z.isNormal() && o.isNormal() && !(z == leaf && o == leaf)}
	if !shared {
		return t // id 0: unshared
	}
	return sh.publish(key, t)
}

// with returns t when its children already are z and o, else node(z, o):
// an operation that changes nothing below t returns t itself.
func (t *Interned) with(z, o *Interned) *Interned {
	if t != nil && t.zero == z && t.one == o {
		return t
	}
	return node(z, o)
}

// Intern returns the canonical handle for n. The empty name interns to nil.
// n must be a valid Name (the package name API guarantees this); Intern does
// not re-validate.
func Intern(n name.Name) *Interned { return build(n.Bits(), 0) }

// build interns the strings ss, sorted and sharing their first depth bits.
func build(ss []bitstr.Bits, depth int) *Interned {
	if len(ss) == 0 {
		return nil
	}
	if ss[0].Len() == depth {
		return leaf
	}
	split := 0
	for split < len(ss) && ss[split][depth] == bitstr.Zero {
		split++
	}
	return node(build(ss[:split], depth+1), build(ss[split:], depth+1))
}

// Name materializes the sorted-slice representation. The nil handle is ∅.
func (t *Interned) Name() name.Name {
	var out []bitstr.Bits
	t.walk(nil, func(s []byte) { out = append(out, bitstr.Bits(s)) })
	return name.MaxOf(out...)
}

// walk calls visit with each member string in lexicographic order.
func (t *Interned) walk(path []byte, visit func([]byte)) {
	switch {
	case t == nil:
	case t == leaf:
		visit(path)
	default:
		t.zero.walk(append(path, bitstr.Zero), visit)
		t.one.walk(append(path, bitstr.One), visit)
	}
}

// String renders the name in the paper's notation.
func (t *Interned) String() string {
	if t == nil {
		return "∅"
	}
	var sb strings.Builder
	t.walk(nil, func(s []byte) {
		if sb.Len() > 0 {
			sb.WriteByte('+')
		}
		sb.WriteString(bitstr.Bits(s).String())
	})
	return sb.String()
}

// ID returns the node's table id: nonzero and unique for the process
// lifetime (never reused after eviction), 0 for nil (∅) and for nodes that
// are not table-resident. Ids never exceed maxInternedID (2^30), so two of
// them pack into one memo or comparison-cache key.
func (t *Interned) ID() uint32 {
	if t == nil {
		return 0
	}
	return t.id
}

// IsEmpty reports whether the handle is the empty name.
func (t *Interned) IsEmpty() bool { return t == nil }

// IsLeaf reports whether the handle is the name {ε}.
func (t *Interned) IsLeaf() bool { return t == leaf }

// Children returns the subtries below the 0 and 1 edges: the names
// {s | 0·s ∈ t} and {s | 1·s ∈ t}, except that both are ∅ for ∅ and {ε}.
func (t *Interned) Children() (zero, one *Interned) {
	if t == nil {
		return nil, nil
	}
	return t.zero, t.one
}

// Len returns the number of strings in the name.
func (t *Interned) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

func (t *Interned) isNormal() bool { return t == nil || t.normal }

// Equal reports set equality: pointer comparison for shared nodes,
// structural recursion below nodes that lost sharing.
func (t *Interned) Equal(u *Interned) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t == leaf || u == leaf || t.nbits != u.nbits {
		return false
	}
	return t.zero.Equal(u.zero) && t.one.Equal(u.one)
}

// Leq reports the name order t ⊑ u: every member of t has an extension
// among the members of u.
func (t *Interned) Leq(u *Interned) bool {
	switch {
	case t == u || t == nil:
		return true
	case u == nil:
		return false
	case t == leaf:
		// The member ending here is a prefix of any member of u below.
		return true
	case u == leaf:
		// u's member is a strict prefix of t's members; it extends none.
		return false
	}
	return t.zero.Leq(u.zero) && t.one.Leq(u.one)
}

// Covers reports {b} ⊑ t: some member extends b.
func (t *Interned) Covers(b bitstr.Bits) bool {
	for k := 0; k < len(b); k++ {
		if t == nil || t == leaf {
			return false // a member here is a strict prefix of b
		}
		if b[k] == bitstr.Zero {
			t = t.zero
		} else {
			t = t.one
		}
	}
	return t != nil
}

// IncomparableTo reports pairwise incomparability of every string pair —
// the Invariant I2 relation between frontier ids.
func (t *Interned) IncomparableTo(u *Interned) bool {
	switch {
	case t == nil || u == nil:
		return true // vacuous: no strings to compare
	case t == leaf || u == leaf:
		return false // the leaf's member is a prefix of the other's
	}
	return t.zero.IncomparableTo(u.zero) && t.one.IncomparableTo(u.one)
}

// JoinInterned returns t ⊔ u, the maximal elements of the union. A result
// equal to an operand is that operand's handle, so joining a dominated name
// — the steady state of converged stores — allocates nothing.
func JoinInterned(t, u *Interned) *Interned {
	switch {
	case t == nil:
		return u
	case u == nil:
		return t
	case t == u || t == leaf:
		return u // t's member, if any, is a prefix of u's members
	case u == leaf:
		return t
	}
	ka, kb := t.id, u.id
	if ka > kb {
		ka, kb = kb, ka // join commutes: one memo entry per pair
	}
	key := memoKey(opJoin, ka, kb)
	cacheable := ka != 0
	if cacheable {
		if r, _, ok := memoGet(key); ok {
			return r
		}
	}
	z, o := JoinInterned(t.zero, u.zero), JoinInterned(t.one, u.one)
	r := t
	if z != t.zero || o != t.one {
		r = u.with(z, o)
	}
	if cacheable {
		memoPut(key, r, nil)
	}
	return r
}

// Append0 returns t·0 = {s·0 | s ∈ t}, the left branch of a fork.
func (t *Interned) Append0() *Interned { return t.appendBit(0) }

// Append1 returns t·1, the right branch of a fork.
func (t *Interned) Append1() *Interned { return t.appendBit(1) }

func (t *Interned) appendBit(bit uint32) *Interned {
	if t == nil || t.id == 0 {
		return t.appended(bit)
	}
	key := memoKey(opAppend, t.id, bit)
	if r, _, ok := memoGet(key); ok {
		return r
	}
	r := t.appended(bit)
	memoPut(key, r, nil)
	return r
}

// appended computes t·bit. It consults the memo only at the root: every
// node of t moves one level down, so the subtries of a new name are new
// too, and a subtrie seen before is a table hit anyway.
func (t *Interned) appended(bit uint32) *Interned {
	switch {
	case t == nil:
		return nil
	case t == leaf && bit == 0:
		return node(leaf, nil)
	case t == leaf:
		return node(nil, leaf)
	}
	return node(t.zero.appended(bit), t.one.appended(bit))
}

// Reduce returns the Section 6 normal form of the stamp (u, i): the fixpoint
// of the rewriting
//
//	(u, {i…, s·0, s·1}) -> (u', {i…, s}),  u' = u \ {s·0, s·1} ∪ {s} if s·0 ∈ u or s·1 ∈ u, else u
//
// computed in one bottom-up pass: below s both subtries are reduced first,
// then two leaf children of i make a leaf, and u gains s exactly when one
// of its reduced children is a leaf. The paper proves the rule confluent, so
// this order reaches the same normal form as any other. u must satisfy
// u ⊑ i (Invariant I1). An already-normal id returns both handles unchanged;
// Reduce(nil, i) is the id normalization alone.
func Reduce(u, i *Interned) (*Interned, *Interned) {
	if i.isNormal() {
		return u, i
	}
	if u == leaf {
		// u's member is s itself: no rewrite below s can touch it.
		_, i = Reduce(nil, i)
		return leaf, i
	}
	key := memoKey(opReduce, u.ID(), i.id)
	cacheable := i.id != 0 && (u == nil || u.id != 0)
	if cacheable {
		if ru, ri, ok := memoGet(key); ok {
			return ru, ri
		}
	}
	uz, uo := u.Children()
	u0, i0 := Reduce(uz, i.zero)
	u1, i1 := Reduce(uo, i.one)
	var ru, ri *Interned
	switch {
	case i0 != leaf || i1 != leaf:
		ru, ri = u.with(u0, u1), i.with(i0, i1)
	case u0 == leaf || u1 == leaf:
		ru, ri = leaf, leaf
	default:
		ru, ri = u.with(u0, u1), leaf
	}
	if cacheable {
		memoPut(key, ru, ri)
	}
	return ru, ri
}

// FlatSize returns the name's size in the flat measure: a uvarint string
// count, then for each member string a uvarint bit length and its bits
// packed eight to a byte. No codec writes this form; it is the size measure
// of the stamp experiments, and name.Name.EncodedSize is its oracle. It is
// computed once per node and cached.
func (t *Interned) FlatSize() int {
	if t == nil {
		return uvarintLen(0)
	}
	if v := t.flat.Load(); v != 0 {
		return int(v)
	}
	v := uvarintLen(int(t.n)) + t.flatStrings(0)
	t.flat.Store(int64(v))
	return v
}

func (t *Interned) flatStrings(depth int) int {
	switch {
	case t == nil:
		return 0
	case t == leaf:
		return uvarintLen(depth) + (depth+7)/8
	}
	return t.zero.flatStrings(depth+1) + t.one.flatStrings(depth+1)
}

// Validate checks the node's internal consistency: leaf uniqueness, no
// childless interior node, and cached counts and encoding agreeing with the
// structure. Used by fuzzing and tests.
func (t *Interned) Validate() error {
	if t == nil || t == leaf {
		return nil
	}
	switch {
	case t.zero == nil && t.one == nil:
		return fmt.Errorf("trie: interior node with no children")
	case t.Len() != t.zero.Len()+t.one.Len():
		return fmt.Errorf("trie: node counts %d strings, children %d", t.n, t.zero.Len()+t.one.Len())
	case int(t.nbits) != 4+t.zero.bodyBits()+t.one.bodyBits():
		return fmt.Errorf("trie: node encodes in %d bits, children in %d", t.nbits, 4+t.zero.bodyBits()+t.one.bodyBits())
	}
	if enc := t.enc.Load(); enc != nil {
		if got := string(appendEncoding(nil, int(t.nbits), t.zero, t.one)); got != *enc {
			return fmt.Errorf("trie: cached encoding %x, structure encodes %x", *enc, got)
		}
	}
	if err := t.zero.Validate(); err != nil {
		return err
	}
	return t.one.Validate()
}
