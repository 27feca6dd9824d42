package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"versionstamp/internal/core"
)

// Digest-tree frames: the wire shapes of the adaptive hash tree the
// anti-entropy protocol descends. A stripe's digests are ordered by TreePos
// (a 64-bit hash of the key), the position space is partitioned TreeFanout
// ways per level, and every node's hash is the XOR of the terms of the keys
// under it (summary.go), the same at whatever depth a tree is cut — so two
// endpoints locate a divergent key by exchanging O(depth) small node
// frames instead of a whole stripe's digest list.
//
// Two shapes travel: tree nodes (a node coordinate plus a child bitmap and
// one 8-byte hash per present child), and leaf digest runs (a node
// coordinate plus the digests whose positions fall under it, a digest whose
// term the receiver sent going as its id alone). A coordinate is (stripe,
// level, path); the stripe's depth is declared once per round, in the
// stripe roots, and the fan-out is TreeFanout on every replica. All
// appenders extend a caller-owned buffer — same buffer-reuse discipline as
// AppendDigest/AppendEntry — and all decoders bound every allocation by the
// bytes actually present, so hostile level/count fields error out instead
// of allocating.

// TreePos maps a key to its position in the 64-bit tree keyspace (FNV-64a
// over the key bytes). Both endpoints order and partition a stripe's digests
// by this position, which — unlike positional splits of a sorted list — is
// stable across replicas whose key sets differ. A key still in a frame body
// is hashed in place, as bytes, to the same position.
func TreePos[K string | []byte](key K) uint64 { return fnvMix(fnvOffset64, key) }

// Tree shape. A node has up to TreeFanout children on every replica, so one
// level consumes TreeFanoutBits bits of a node path and a child bitmap fits
// a uint16. MaxTreeDepth caps a tree's depth, which bounds what a hostile
// frame can make a server recompute; 16^8 leaves outruns any keyspace a
// store can hold.
const (
	TreeFanoutBits = 4
	TreeFanout     = 1 << TreeFanoutBits // 16
	MaxTreeDepth   = 8
)

// ValidTreeDepth reports whether depth is a tree depth this codec speaks:
// in [1, MaxTreeDepth].
func ValidTreeDepth(depth int) bool { return depth >= 1 && depth <= MaxTreeDepth }

// TreeBitmapLen returns the byte length of a bitmap of n bits.
func TreeBitmapLen(n int) int { return (n + 7) / 8 }

// BitmapGet reports bit i of a bitmap (LSB-first within each byte — the
// layout every tree frame uses, a child bitmap being a little-endian
// uint16).
func BitmapGet(bm []byte, i int) bool {
	return bm[i>>3]&(1<<(i&7)) != 0
}

// BitmapSet sets bit i of a bitmap.
func BitmapSet(bm []byte, i int) {
	bm[i>>3] |= 1 << (i & 7)
}

// TreeNode is one tree-node frame element: the node's coordinate in its
// stripe's tree plus a snapshot of its children — bit c of Bitmap set iff
// child c is non-empty, Hashes holding one 8-byte hash per set bit in
// ascending child order.
type TreeNode struct {
	Stripe int
	Level  int    // 0 = root; children live at Level+1
	Path   uint64 // node index at Level: the top Level×TreeFanoutBits position bits
	Bitmap uint16
	Hashes []uint64
}

// treeCoordLen returns the length of a node or run's (stripe, level, path)
// prefix.
func treeCoordLen(stripe, level int, path uint64) int {
	return UvarintLen(uint64(stripe)) + UvarintLen(uint64(level)) + UvarintLen(path)
}

// TreeNodeLen returns the length of AppendTreeNode's output for n.
func TreeNodeLen(n TreeNode) int {
	return treeCoordLen(n.Stripe, n.Level, n.Path) + 2 + 8*len(n.Hashes)
}

// AppendTreeNode appends one node element: stripe, level, path (uvarints),
// the child bitmap (2 bytes, little-endian), then one 8-byte big-endian hash
// per set bitmap bit.
func AppendTreeNode(dst []byte, n TreeNode) []byte {
	dst = binary.AppendUvarint(dst, uint64(n.Stripe))
	dst = binary.AppendUvarint(dst, uint64(n.Level))
	dst = binary.AppendUvarint(dst, n.Path)
	dst = binary.LittleEndian.AppendUint16(dst, n.Bitmap)
	for _, h := range n.Hashes {
		dst = binary.BigEndian.AppendUint64(dst, h)
	}
	return dst
}

// treeUvarint reads one uvarint field.
func treeUvarint(data []byte, what string) (uint64, []byte, error) {
	v, used := binary.Uvarint(data)
	switch {
	case used == 0:
		return 0, nil, fmt.Errorf("encoding: tree frame: truncated %s: %w", what, io.ErrUnexpectedEOF)
	case used < 0:
		return 0, nil, fmt.Errorf("encoding: tree frame: bad %s", what)
	}
	return v, data[used:], nil
}

// decodeTreeCoord reads and validates the (stripe, level, path) prefix
// shared by node and leaf-run elements. leaf selects the level bound: a
// node must have children below it (level < MaxTreeDepth), a leaf run may
// sit at the bottom (level <= MaxTreeDepth). Whether the level fits its
// stripe's declared depth is the receiver's to check.
func decodeTreeCoord(data []byte, maxStripe int, leaf bool) (stripe, level int, path uint64, rest []byte, err error) {
	s64, data, err := treeUvarint(data, "stripe")
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if s64 >= uint64(maxStripe) {
		return 0, 0, 0, nil, fmt.Errorf("encoding: tree frame: stripe %d out of range of %d", s64, maxStripe)
	}
	l64, data, err := treeUvarint(data, "level")
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if l64 > MaxTreeDepth || !leaf && l64 == MaxTreeDepth {
		return 0, 0, 0, nil, fmt.Errorf("encoding: tree frame: level %d too deep", l64)
	}
	path, data, err = treeUvarint(data, "path")
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if path>>(l64*TreeFanoutBits) != 0 {
		return 0, 0, 0, nil, fmt.Errorf("encoding: tree frame: path %#x too wide for level %d", path, l64)
	}
	return int(s64), int(l64), path, data, nil
}

// DecodeTreeNode parses one node element from the front of data, returning
// the bytes consumed. maxStripe bounds the stripe field. Exactly
// popcount(Bitmap) hashes must be present — a hostile frame errors before
// anything is allocated.
//
// The node allocates nothing: its Hashes are appended to hashes, the
// caller's scratch, which grows to at most TreeFanout entries.
func DecodeTreeNode(data []byte, maxStripe int, hashes []uint64) (TreeNode, int, error) {
	total := len(data)
	stripe, level, path, data, err := decodeTreeCoord(data, maxStripe, false)
	if err != nil {
		return TreeNode{}, 0, err
	}
	if len(data) < 2 {
		return TreeNode{}, 0, fmt.Errorf("encoding: tree frame: truncated bitmap: %w", io.ErrUnexpectedEOF)
	}
	bm := binary.LittleEndian.Uint16(data)
	data = data[2:]
	set := bits.OnesCount16(bm)
	if len(data) < 8*set {
		return TreeNode{}, 0, fmt.Errorf("encoding: tree frame: truncated hashes: %w", io.ErrUnexpectedEOF)
	}
	for i := 0; i < set; i++ {
		hashes = append(hashes, binary.BigEndian.Uint64(data[8*i:]))
	}
	data = data[8*set:]
	return TreeNode{Stripe: stripe, Level: level, Path: path, Bitmap: bm, Hashes: hashes}, total - len(data), nil
}

// LeafRun is one leaf digest-run frame element as its receiver decodes it: a
// node coordinate plus the digests whose tree positions fall under that
// node, in tree order. Terms is how many terms the receiver sent for the
// run's leaf, which the run answered (DecodeLeafRun), or 0.
type LeafRun struct {
	Stripe  int
	Level   int
	Path    uint64
	Digests []Digest
	Terms   int
}

// SentRun is one leaf run as its sender holds it: a node coordinate plus its
// own tree's keys under that node, in tree order.
//
// A run may answer terms: the receiver sent Terms of them for the run's
// leaf, one per key it holds there, in tree order. Then Match gives each key
// the index of the term it matched, or -1 (MatchTerms), and a matched key
// goes as its stamp's id component alone: the receiver holds its key and its
// update component under that term. A run with no terms (Terms 0) ships
// every digest whole, and its Match is not read.
type SentRun struct {
	Stripe int
	Level  int
	Path   uint64
	Keys   []Termed
	Terms  int
	Match  []int32
}

// matched reports whether r's key i goes as its id alone.
func (r SentRun) matched(i int) bool { return r.Terms > 0 && r.Match[i] >= 0 }

// LeafRunLen returns the length of AppendLeafRun's output for r.
func LeafRunLen(r SentRun) int {
	n, shipped := treeCoordLen(r.Stripe, r.Level, r.Path), 0
	if r.Terms > 0 {
		n += TreeBitmapLen(r.Terms)
	}
	for i, k := range r.Keys {
		if r.matched(i) {
			n += k.Stamp.IDHandle().EncodedLen()
		} else {
			n += DigestLen(k.Digest)
			shipped++
		}
	}
	return n + UvarintLen(uint64(shipped))
}

// AppendLeafRun appends one leaf run: the coordinate prefix; for a run that
// answers terms, a bitmap over the terms (TreeBitmapLen(Terms) bytes, the
// layout of a child bitmap) marking those matched, then each matched key's
// id component (its trie encoding) in term order; then a count and the
// digests not matched (AppendDigest), in tree order. Match's indices must
// ascend over the matched keys, as MatchTerms makes them.
func AppendLeafRun(dst []byte, r SentRun) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Stripe))
	dst = binary.AppendUvarint(dst, uint64(r.Level))
	dst = binary.AppendUvarint(dst, r.Path)
	shipped := len(r.Keys)
	if r.Terms > 0 {
		at := len(dst)
		dst = append(dst, make([]byte, TreeBitmapLen(r.Terms))...)
		for i, k := range r.Keys {
			if r.matched(i) {
				BitmapSet(dst[at:], int(r.Match[i]))
				dst = k.Stamp.IDHandle().AppendEncoding(dst)
				shipped--
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(shipped))
	for i, k := range r.Keys {
		if !r.matched(i) {
			dst = AppendDigest(dst, k.Digest)
		}
	}
	return dst
}

// MatchTerms appends to match, for each of keys in order, the index of the
// term of terms it matches, or -1. The terms are a peer's for one leaf and
// keys the keys under it here, both in tree order, so a key both hold comes
// at the same place in both orders: the search for each key's term starts
// past the last match, and the matched indices ascend. A term out of order
// only goes unmatched.
func MatchTerms(match []int32, keys []Termed, terms []uint64) []int32 {
	next := 0
	for _, k := range keys {
		at := int32(-1)
		for j := next; j < len(terms); j++ {
			if terms[j] == k.Term {
				at, next = int32(j), j+1
				break
			}
		}
		match = append(match, at)
	}
	return match
}

// DecodeLeafRun parses one leaf run from the front of data, returning the
// bytes consumed. The run must be in tree order, strictly: a run out of it,
// or naming a key twice, is refused.
//
// local, when not nil, returns the receiver's own digests under the run's
// node, in tree order, as its digest tree holds them, and whether it sent
// terms for the run's leaf, one per digest of them. A run that answers terms
// is decoded against them: each term its bitmap marks gives a digest of the
// term's key — the receiver's own key string — under the receiver's update
// component and the id component the run carries for it
// (core.Stamp.DecodeID, which validates the pair as core.DecodeBinary
// would). The run's bitmap padding bits must be zero, and no key may be
// both matched and shipped. The decoded run is the matched and shipped
// digests merged, in tree order, with Terms set. A shipped key that equals
// one of local's exactly is taken from it, and any other is copied
// (decodeKey); a nil local copies every key, and decodes the run as one
// with no terms.
//
// Every key's position (TreePos) is computed once. The digest slice is made
// once, its capacity bounded by the bytes present, so a hostile count
// cannot force a huge allocation.
func DecodeLeafRun(data []byte, maxStripe int, local func(stripe, level int, path uint64) (mine []Termed, terms bool)) (LeafRun, int, error) {
	total := len(data)
	stripe, level, path, data, err := decodeTreeCoord(data, maxStripe, true)
	if err != nil {
		return LeafRun{}, 0, err
	}
	var mine []Termed
	var termed bool
	if local != nil {
		mine, termed = local(stripe, level, path)
	}
	var bm, ids []byte
	matched := 0
	if termed {
		nb := TreeBitmapLen(len(mine))
		if len(data) < nb {
			return LeafRun{}, 0, fmt.Errorf("encoding: leaf run: truncated term bitmap: %w", io.ErrUnexpectedEOF)
		}
		bm, data = data[:nb], data[nb:]
		if pad := len(mine) % 8; pad != 0 && bm[nb-1]>>pad != 0 {
			return LeafRun{}, 0, errors.New("encoding: leaf run: term bitmap padding bits set")
		}
		// The ids are checked here and taken in the merge below.
		ids = data
		for i := range mine {
			if BitmapGet(bm, i) {
				_, n, err := mine[i].Stamp.DecodeID(data)
				if err != nil {
					return LeafRun{}, 0, fmt.Errorf("encoding: leaf run: id of %q: %w", mine[i].Key, err)
				}
				data = data[n:]
				matched++
			}
		}
		ids = ids[:len(ids)-len(data)]
	}
	count, data, err := treeUvarint(data, "digest count")
	if err != nil {
		return LeafRun{}, 0, err
	}
	capped := min(count, uint64(len(data))) // every digest takes >= 1 byte
	ds := make([]Digest, 0, capped+uint64(matched))

	// One merge in tree order: the shipped digests, and the matched keys
	// among the receiver's, which also resolve the shipped keys. mine[j] is
	// the receiver's next key, at position mpos; last is the position of
	// the last digest merged.
	j, mpos, last := 0, uint64(0), uint64(0)
	if len(mine) > 0 {
		mpos = TreePos(mine[0].Key)
	}
	advance := func() error {
		if bm != nil && BitmapGet(bm, j) {
			s, n, err := mine[j].Stamp.DecodeID(ids)
			if err != nil {
				return fmt.Errorf("encoding: leaf run: id of %q: %w", mine[j].Key, err)
			}
			ids = ids[n:]
			ds, last = append(ds, Digest{Key: mine[j].Key, Stamp: s}), mpos
		}
		if j++; j < len(mine) {
			mpos = TreePos(mine[j].Key)
		}
		return nil
	}
	for i := uint64(0); i < count; i++ {
		key, off, err := keyBytes(data)
		if err != nil {
			return LeafRun{}, 0, fmt.Errorf("encoding: digest: %w", err)
		}
		pos := TreePos(key)
		for j < len(mine) && (mpos < pos || mpos == pos && mine[j].Key < string(key)) {
			if err := advance(); err != nil {
				return LeafRun{}, 0, err
			}
		}
		if n := len(ds); n > 0 && (pos < last || pos == last && string(key) <= ds[n-1].Key) {
			return LeafRun{}, 0, fmt.Errorf("encoding: leaf run: digest %q out of tree order", key)
		}
		k := ""
		if j < len(mine) && mine[j].Key == string(key) {
			if bm != nil && BitmapGet(bm, j) {
				return LeafRun{}, 0, fmt.Errorf("encoding: leaf run: key %q both matched and shipped", key)
			}
			k = mine[j].Key
			if err := advance(); err != nil {
				return LeafRun{}, 0, err
			}
		} else {
			k = string(key)
		}
		s, used, err := core.DecodeBinary(data[off:])
		if err != nil {
			return LeafRun{}, 0, fmt.Errorf("encoding: digest %q: %w", k, err)
		}
		data = data[off+used:]
		ds, last = append(ds, Digest{Key: k, Stamp: s}), pos
	}
	for bm != nil && j < len(mine) {
		if err := advance(); err != nil {
			return LeafRun{}, 0, err
		}
	}
	r := LeafRun{Stripe: stripe, Level: level, Path: path, Digests: ds}
	if termed {
		r.Terms = len(mine)
	}
	return r, total - len(data), nil
}
