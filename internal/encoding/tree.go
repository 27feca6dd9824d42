package encoding

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
// stable across replicas whose key sets differ. A key still in a frame body
// is hashed in place, as bytes, to the same position.
func TreePos[K string | []byte](key K) uint64 {
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

// treeCoordLen returns the length of a node or run's (stripe, depth, level,
// path) prefix.
func treeCoordLen(stripe, depth, level int, path uint64) int {
	return UvarintLen(uint64(stripe)) + UvarintLen(uint64(depth)) + UvarintLen(uint64(level)) + UvarintLen(path)
}

// TreeNodeLen returns the length of AppendTreeNode's output for n.
func TreeNodeLen(n TreeNode) int {
	return treeCoordLen(n.Stripe, n.Depth, n.Level, n.Path) + len(n.Bitmap) + 8*len(n.Hashes)
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
// present — a hostile frame errors before anything is allocated.
//
// The node allocates nothing: its Bitmap aliases data, so it is valid only
// until the buffer data came from is reused (for a frame body, the next
// frame read), and its Hashes are appended to hashes, the caller's scratch,
// which grows to at most fanout entries.
func DecodeTreeNode(data []byte, fanout, maxStripe int, hashes []uint64) (TreeNode, int, error) {
	total := len(data)
	stripe, depth, level, path, data, err := decodeTreeCoord(data, fanout, maxStripe, false)
	if err != nil {
		return TreeNode{}, 0, err
	}
	nb := TreeBitmapLen(fanout)
	if len(data) < nb {
		return TreeNode{}, 0, fmt.Errorf("encoding: tree frame: truncated bitmap: %w", io.ErrUnexpectedEOF)
	}
	bm := data[:nb:nb]
	data = data[nb:]
	set := 0
	for i, b := range bm {
		set += bits.OnesCount8(b)
		if hi := (i + 1) * 8; hi > fanout && b>>(8-(hi-fanout)) != 0 {
			return TreeNode{}, 0, errors.New("encoding: tree frame: bitmap padding bits set")
		}
	}
	if len(data) < 8*set {
		return TreeNode{}, 0, fmt.Errorf("encoding: tree frame: truncated hashes: %w", io.ErrUnexpectedEOF)
	}
	for i := 0; i < set; i++ {
		hashes = append(hashes, binary.BigEndian.Uint64(data[8*i:]))
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

// LeafRunLen returns the length of AppendLeafRun's output for r.
func LeafRunLen(r LeafRun) int {
	n := treeCoordLen(r.Stripe, r.Depth, r.Level, r.Path) + UvarintLen(uint64(len(r.Digests)))
	for _, d := range r.Digests {
		n += DigestLen(d)
	}
	return n
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
// bytes consumed. The digest slice is made once, its capacity bounded by the
// bytes present, so a hostile count cannot force a huge allocation.
//
// local, when not nil, returns the receiver's own digests under the run's
// node, in (position, key) order, as its digest tree holds them. A digest
// key that matches one of them exactly is taken from it, found with a
// cursor that moves forward only (the run is in the same order), and any
// other key is copied (decodeKey). So a run the receiver mostly holds
// copies only the keys that are new to it, and an unsorted or hostile run
// decodes to the same digests, copying more. A nil local copies every key.
func DecodeLeafRun(data []byte, fanout, maxStripe int, local func(stripe, level int, path uint64) []Digest) (LeafRun, int, error) {
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
	var known func(key []byte) (string, bool)
	if local != nil && count > 0 {
		mine := local(stripe, level, path)
		known = func(key []byte) (string, bool) {
			pos := TreePos(key)
			for len(mine) > 0 {
				p := TreePos(mine[0].Key)
				if p > pos || p == pos && mine[0].Key >= string(key) {
					break
				}
				mine = mine[1:]
			}
			if len(mine) == 0 || mine[0].Key != string(key) {
				return "", false
			}
			k := mine[0].Key
			mine = mine[1:]
			return k, true
		}
	}
	ds := make([]Digest, 0, capped)
	for i := uint64(0); i < count; i++ {
		d, n, err := DecodeDigest(data, known)
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
