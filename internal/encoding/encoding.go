// Package encoding holds the binary shapes the store and the sync protocol
// build around stamps: the length-prefixed digest and entry codec (wire.go),
// the digest-tree hashes (summary.go) and the digest-tree frames (tree.go).
// Every stamp inside them is written in core's one binary format
// (core.Stamp.AppendBinary, read back by core.DecodeBinary).
//
// All decoders re-validate what they read: no frame can smuggle in a
// non-antichain component or an I1 violation.
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
