package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Digest-tree frames: the wire shapes of the adaptive k-ary hash tree the
// anti-entropy protocol descends. A stripe's digests are ordered by TreePos
// (a 64-bit hash of the key), the position space is partitioned k ways per
// level, and every node is a fixed-size hash over its subtree — so two
// endpoints locate a divergent key by exchanging O(depth) small node frames
// instead of a whole stripe's digest list.
//
// Three shapes travel: tree nodes (a node coordinate plus a child bitmap and
// one 8-byte hash per present child), leaf digest runs (a node coordinate
// plus the digests whose positions fall under it), and the shape parameters
// themselves (fanout, depth). All appenders extend a caller-owned buffer —
// same buffer-reuse discipline as AppendDigest/AppendEntry — and all
// decoders bound every allocation by the bytes actually present, so hostile
// depth/fanout/count fields error out instead of allocating.

// TreePos maps a key to its position in the 64-bit tree keyspace (FNV-64a
// over the key bytes). Both endpoints order and partition a stripe's digests
// by this position, which — unlike positional splits of a sorted list — is
// stable across replicas whose key sets differ.
func TreePos(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// Tree shape bounds. Fanout must be a power of two so node paths pack into
// bit fields of a 64-bit position; depth × log2(fanout) may not exceed the
// 64 position bits. The caps bound what a hostile frame can make a decoder
// allocate or a server recompute.
const (
	MinTreeFanout = 2
	MaxTreeFanout = 64
	MaxTreeDepth  = 12
)

// ValidTreeShape reports whether (fanout, depth) is a tree shape this codec
// speaks: power-of-two fanout in [MinTreeFanout, MaxTreeFanout], depth in
// [1, MaxTreeDepth], and paths at every level fitting in 64 bits.
func ValidTreeShape(fanout, depth int) bool {
	if fanout < MinTreeFanout || fanout > MaxTreeFanout || bits.OnesCount(uint(fanout)) != 1 {
		return false
	}
	if depth < 1 || depth > MaxTreeDepth {
		return false
	}
	return depth*bits.TrailingZeros(uint(fanout)) <= 64
}

// TreeFanoutBits returns log2(fanout): the bits one level consumes of a
// node path.
func TreeFanoutBits(fanout int) int { return bits.TrailingZeros(uint(fanout)) }

// TreeBitmapLen returns the byte length of a child bitmap for a fanout.
func TreeBitmapLen(fanout int) int { return (fanout + 7) / 8 }

// BitmapGet reports bit i of a child bitmap (LSB-first within each byte —
// the layout every tree frame uses).
func BitmapGet(bm []byte, i int) bool {
	return bm[i>>3]&(1<<(i&7)) != 0
}

// BitmapSet sets bit i of a child bitmap.
func BitmapSet(bm []byte, i int) {
	bm[i>>3] |= 1 << (i & 7)
}

// TreeNode is one tree-node frame element: the node's coordinate in its
// stripe's tree plus a snapshot of its children — bit c of Bitmap set iff
// child c is non-empty, Hashes holding one 8-byte hash per set bit in
// ascending child order.
type TreeNode struct {
	Stripe int
	Depth  int    // the stripe tree's declared total depth
	Level  int    // 0 = root; children live at Level+1
	Path   uint64 // node index at Level: the top Level×log2(fanout) position bits
	Bitmap []byte
	Hashes []uint64
}

// AppendTreeNode appends one node element: stripe, depth, level, path
// (uvarints), the child bitmap (TreeBitmapLen(fanout) bytes), then one
// 8-byte big-endian hash per set bitmap bit.
func AppendTreeNode(dst []byte, n TreeNode) []byte {
	dst = binary.AppendUvarint(dst, uint64(n.Stripe))
	dst = binary.AppendUvarint(dst, uint64(n.Depth))
	dst = binary.AppendUvarint(dst, uint64(n.Level))
	dst = binary.AppendUvarint(dst, n.Path)
	dst = append(dst, n.Bitmap...)
	for _, h := range n.Hashes {
		dst = binary.BigEndian.AppendUint64(dst, h)
	}
	return dst
}

// treeUvarint reads one uvarint field, rejecting truncation.
func treeUvarint(data []byte, what string) (uint64, []byte, error) {
	v, used := binary.Uvarint(data)
	if used <= 0 {
		return 0, nil, fmt.Errorf("encoding: tree frame: bad %s", what)
	}
	return v, data[used:], nil
}

// decodeTreeCoord reads and validates the (stripe, depth, level, path)
// prefix shared by node and leaf-run elements. leaf selects the level bound:
// a node must have children below it (level < depth), a leaf run may sit at
// the bottom (level <= depth).
func decodeTreeCoord(data []byte, fanout, maxStripe int, leaf bool) (stripe, depth, level int, path uint64, rest []byte, err error) {
	s64, data, err := treeUvarint(data, "stripe")
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if s64 >= uint64(maxStripe) {
		return 0, 0, 0, 0, nil, fmt.Errorf("encoding: tree frame: stripe %d out of range of %d", s64, maxStripe)
	}
	d64, data, err := treeUvarint(data, "depth")
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if !ValidTreeShape(fanout, int(d64)) {
		return 0, 0, 0, 0, nil, fmt.Errorf("encoding: tree frame: bad shape fanout=%d depth=%d", fanout, d64)
	}
	l64, data, err := treeUvarint(data, "level")
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	bound := d64
	if !leaf {
		bound = d64 - 1 // a node's children live at level+1 <= depth
	}
	if l64 > bound {
		return 0, 0, 0, 0, nil, fmt.Errorf("encoding: tree frame: level %d exceeds depth %d", l64, d64)
	}
	path, data, err = treeUvarint(data, "path")
	if err != nil {
		return 0, 0, 0, 0, nil, err
	}
	if shift := uint(l64) * uint(TreeFanoutBits(fanout)); shift < 64 && path>>shift != 0 {
		return 0, 0, 0, 0, nil, fmt.Errorf("encoding: tree frame: path %#x too wide for level %d", path, l64)
	}
	return int(s64), int(d64), int(l64), path, data, nil
}

// DecodeTreeNode parses one node element from the front of data, returning
// the bytes consumed. fanout is the frame-level fanout (already validated by
// the caller); maxStripe bounds the stripe field. Padding bits of the bitmap
// beyond fanout must be zero, and exactly popcount(Bitmap) hashes must be
// present — a hostile frame errors before anything unbounded is allocated.
func DecodeTreeNode(data []byte, fanout, maxStripe int) (TreeNode, int, error) {
	total := len(data)
	stripe, depth, level, path, data, err := decodeTreeCoord(data, fanout, maxStripe, false)
	if err != nil {
		return TreeNode{}, 0, err
	}
	nb := TreeBitmapLen(fanout)
	if len(data) < nb {
		return TreeNode{}, 0, errors.New("encoding: tree frame: truncated bitmap")
	}
	bm := append([]byte(nil), data[:nb]...)
	data = data[nb:]
	set := 0
	for i, b := range bm {
		set += bits.OnesCount8(b)
		if hi := (i + 1) * 8; hi > fanout && b>>(8-(hi-fanout)) != 0 {
			return TreeNode{}, 0, errors.New("encoding: tree frame: bitmap padding bits set")
		}
	}
	if len(data) < 8*set {
		return TreeNode{}, 0, errors.New("encoding: tree frame: truncated hashes")
	}
	hashes := make([]uint64, set)
	for i := range hashes {
		hashes[i] = binary.BigEndian.Uint64(data[8*i:])
	}
	data = data[8*set:]
	return TreeNode{
		Stripe: stripe, Depth: depth, Level: level, Path: path,
		Bitmap: bm, Hashes: hashes,
	}, total - len(data), nil
}

// LeafRun is one leaf digest-run frame element: a node coordinate plus the
// digests whose tree positions fall under that node, in (position, key)
// order.
type LeafRun struct {
	Stripe  int
	Depth   int
	Level   int
	Path    uint64
	Digests []Digest
}

// AppendLeafRun appends one leaf run: the coordinate prefix, a digest count,
// then the digests (AppendDigest).
func AppendLeafRun(dst []byte, r LeafRun) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Stripe))
	dst = binary.AppendUvarint(dst, uint64(r.Depth))
	dst = binary.AppendUvarint(dst, uint64(r.Level))
	dst = binary.AppendUvarint(dst, r.Path)
	dst = binary.AppendUvarint(dst, uint64(len(r.Digests)))
	for _, d := range r.Digests {
		dst = AppendDigest(dst, d)
	}
	return dst
}

// DecodeLeafRun parses one leaf run from the front of data, returning the
// bytes consumed. The digest preallocation is bounded by the bytes present,
// so a hostile count cannot force a huge allocation.
func DecodeLeafRun(data []byte, fanout, maxStripe int) (LeafRun, int, error) {
	total := len(data)
	stripe, depth, level, path, data, err := decodeTreeCoord(data, fanout, maxStripe, true)
	if err != nil {
		return LeafRun{}, 0, err
	}
	count, data, err := treeUvarint(data, "digest count")
	if err != nil {
		return LeafRun{}, 0, err
	}
	capped := count
	if capped > uint64(len(data)) { // every digest takes >= 1 byte
		capped = uint64(len(data))
	}
	ds := make([]Digest, 0, capped)
	for i := uint64(0); i < count; i++ {
		d, n, err := DecodeDigest(data)
		if err != nil {
			return LeafRun{}, 0, err
		}
		data = data[n:]
		ds = append(ds, d)
	}
	return LeafRun{
		Stripe: stripe, Depth: depth, Level: level, Path: path, Digests: ds,
	}, total - len(data), nil
}
