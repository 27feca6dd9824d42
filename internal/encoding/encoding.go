// Package encoding holds the binary shapes the store and the sync protocol
// build around stamps: the length-prefixed digest and entry codec (wire.go),
// the digest-tree hashes (summary.go) and the digest-tree frames (tree.go).
// Every stamp inside them is written in core's one binary format
// (core.Stamp.AppendBinary, read back by core.DecodeBinary).
//
// All decoders re-validate what they read: no frame can smuggle in a
// non-antichain component or an I1 violation.
//
// Decoders that read digest keys take an optional resolver, known
// (DecodeDigest; DecodeLeafRun's local run): a receiver that already holds a
// key as a string hands that string back and the decode copies nothing. The
// contract: an answer is taken only when its bytes equal the key's exactly
// (any other answer is ignored and the key copied), a nil resolver copies
// every key, and no decoded key, value or string ever aliases the input, so
// the input buffer may be reused as soon as the decode returns. The one
// exception is a tree node's child bitmap (DecodeTreeNode), documented there.
//
// Every element decoder reads its element from the front of its input and
// tells a short input apart from a corrupt one: input that ends inside the
// element is an error that is io.ErrUnexpectedEOF, and more bytes may
// complete it; any other error is final, whatever follows. An element that
// decodes takes the same bytes, with the same result, from any longer input.
// So a reader may hand a decoder as much of a stream as it holds and, on a
// short input, retry with more — which is how the sync protocol decodes
// frames longer than the window it reads them through.
package encoding

import "versionstamp/internal/core"

// MarshalCompact returns core.Stamp.MarshalBinary's bytes.
func MarshalCompact(s core.Stamp) []byte { return s.AppendBinary(make([]byte, 0, s.BinaryLen())) }

// AppendCompact forwards to core.Stamp.AppendBinary.
func AppendCompact(dst []byte, s core.Stamp) []byte { return s.AppendBinary(dst) }

// UnmarshalCompact forwards to core.DecodeBinary.
func UnmarshalCompact(data []byte) (core.Stamp, int, error) { return core.DecodeBinary(data) }

// AppendUpdateTrie appends the trie encoding of the stamp's update component
// alone. Compare relates stamps by their update components only, so this is
// the part of a stamp that two equivalent copies share byte for byte — the
// input digest-tree leaves hash over (the id components always differ
// between replicas, every transfer forks them). Served from the handle's
// cached encoding: rehashing a leaf re-encodes no tries.
func AppendUpdateTrie(dst []byte, s core.Stamp) []byte {
	return s.UpdateHandle().AppendEncoding(dst)
}
