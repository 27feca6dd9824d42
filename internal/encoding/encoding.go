// Package encoding provides interchange formats for version stamps beyond
// the canonical ones built into internal/core:
//
//   - a JSON representation (human-readable, for config files, HTTP APIs and
//     the example applications);
//   - a compact binary format that serializes both stamp components as
//     structural tries (internal/trie), which shares prefixes and is the
//     densest format for bushy ids (the E5 size experiments compare all
//     three formats).
//
// All decoders re-validate what they read: no format can smuggle in a
// non-antichain component or an I1 violation.
package encoding

import (
	"encoding/json"
	"fmt"

	"versionstamp/internal/core"
	"versionstamp/internal/name"
	"versionstamp/internal/trie"
)

// StampJSON is the JSON shape of a stamp: both components in the paper's
// sum-of-binary-strings notation.
//
//	{"update": "1", "id": "0+1"}
type StampJSON struct {
	Update string `json:"update"`
	ID     string `json:"id"`
}

// MarshalJSON serializes a stamp to JSON.
func MarshalJSON(s core.Stamp) ([]byte, error) {
	return json.Marshal(StampJSON{
		Update: s.UpdateName().String(),
		ID:     s.IDName().String(),
	})
}

// UnmarshalJSON parses and validates a stamp from JSON.
func UnmarshalJSON(data []byte) (core.Stamp, error) {
	var sj StampJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return core.Stamp{}, fmt.Errorf("encoding: %w", err)
	}
	u, err := name.Parse(sj.Update)
	if err != nil {
		return core.Stamp{}, fmt.Errorf("encoding: update component: %w", err)
	}
	i, err := name.Parse(sj.ID)
	if err != nil {
		return core.Stamp{}, fmt.Errorf("encoding: id component: %w", err)
	}
	return core.New(u, i)
}

// compactFormat tags the trie-structural stamp format.
const compactFormat = 0x02

// MarshalCompact serializes a stamp in the trie-structural format: a format
// byte followed by the trie encodings of the update and id components.
func MarshalCompact(s core.Stamp) []byte {
	return AppendCompact(make([]byte, 0, 16), s)
}

// AppendCompact appends the trie-structural format of s to dst — the
// buffer-reusing form of MarshalCompact for encoders that build frames
// incrementally. The component encodings are the stamp handles' cached
// intern keys, so nothing is walked or rebuilt; the bytes are identical to
// encoding the components' tries directly (the intern key is canonical).
func AppendCompact(dst []byte, s core.Stamp) []byte {
	dst = append(dst, compactFormat)
	dst = s.UpdateHandle().AppendEncoding(dst)
	return s.IDHandle().AppendEncoding(dst)
}

// AppendUpdateTrie appends the trie encoding of the stamp's update component
// alone. Compare relates stamps by their update components only, so this is
// the part of a stamp that two equivalent copies share byte for byte — the
// input digest-tree leaves hash over (the id components always differ
// between replicas, every transfer forks them). Served from the handle's
// cached encoding: rehashing a leaf re-encodes no tries.
func AppendUpdateTrie(dst []byte, s core.Stamp) []byte {
	return s.UpdateHandle().AppendEncoding(dst)
}

// UnmarshalCompact parses and validates a stamp from the trie-structural
// format, returning the number of bytes consumed. Both components intern on
// arrival (trie.InternEncoded): a component already known to the process —
// every component, once two replicas have converged — costs a map probe on
// the raw wire bytes, builds nothing, and yields the same handle the local
// copies already hold, so downstream comparison is pointer equality.
func UnmarshalCompact(data []byte) (core.Stamp, int, error) {
	if len(data) == 0 || data[0] != compactFormat {
		return core.Stamp{}, 0, fmt.Errorf("encoding: not a compact stamp")
	}
	off := 1
	u, used, err := trie.InternEncoded(data[off:])
	if err != nil {
		return core.Stamp{}, 0, fmt.Errorf("encoding: update component: %w", err)
	}
	off += used
	i, used, err := trie.InternEncoded(data[off:])
	if err != nil {
		return core.Stamp{}, 0, fmt.Errorf("encoding: id component: %w", err)
	}
	off += used
	s, err := core.NewInterned(u, i)
	if err != nil {
		return core.Stamp{}, 0, err
	}
	return s, off, nil
}

// Sizes reports the encoded size of one stamp under every format, the
// measurement behind experiment E5's format comparison.
type Sizes struct {
	// Flat is the canonical per-string binary format (core.MarshalBinary).
	Flat int
	// Compact is the trie-structural format (MarshalCompact).
	Compact int
	// Text is the paper notation (core.String).
	Text int
	// JSON is the JSON representation.
	JSON int
}

// Measure computes all format sizes for a stamp.
func Measure(s core.Stamp) Sizes {
	j, _ := MarshalJSON(s)
	return Sizes{
		Flat:    s.EncodedSize(),
		Compact: len(MarshalCompact(s)),
		Text:    len(s.String()),
		JSON:    len(j),
	}
}
