package core

import (
	"fmt"
	"io"
	"strings"

	"versionstamp/internal/name"
	"versionstamp/internal/trie"
)

// Binary format of a stamp: the format byte binaryFormat, then the trie
// encodings (package trie) of the update and id components. It is the one
// form the system stores: the WAL, checkpoints, snapshots, hint queues and
// the sync wire all carry it. The format is canonical: equal stamps encode
// to identical bytes.

// binaryFormat identifies the stamp binary format.
const binaryFormat = 0x02

// AppendBinary appends the binary encoding of s to dst. The component
// encodings are cached on the handles, so nothing is walked after a
// handle's first encoding, and appending into a buffer with room allocates
// nothing.
func (s Stamp) AppendBinary(dst []byte) []byte {
	dst = append(dst, binaryFormat)
	dst = s.u.AppendEncoding(dst)
	return s.i.AppendEncoding(dst)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s Stamp) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(make([]byte, 0, s.BinaryLen())), nil
}

// BinaryLen returns the length of AppendBinary's output, read off the
// handles' cached encodings.
func (s Stamp) BinaryLen() int {
	return 1 + s.u.EncodedLen() + s.i.EncodedLen()
}

// EncodedSize returns the stamp's size in the paper's flat measure: one
// format byte, then per component a string count and each string's bit
// length and packed bits (trie.Interned.FlatSize). It is a measure, not a
// codec: nothing writes this form, and the bytes the system stores number
// BinaryLen. The E3/E5/E6 tables report it. It is read off the components'
// cached flat sizes; no name is materialized.
func (s Stamp) EncodedSize() int {
	return 1 + s.u.FlatSize() + s.i.FlatSize()
}

// DecodeBinary reads one stamp from the front of src, returning the number
// of bytes consumed. The decoded stamp is validated against Invariant I1.
// Both components intern on arrival (trie.InternEncoded): a component
// already known to the process costs a map probe on the raw bytes, builds
// nothing, and yields the handle the local copies already hold, so
// downstream comparison is pointer equality. Input that ends inside the
// stamp is an error that is io.ErrUnexpectedEOF: more bytes may complete it.
func DecodeBinary(src []byte) (Stamp, int, error) {
	if len(src) == 0 {
		return Stamp{}, 0, fmt.Errorf("core: empty input: %w", io.ErrUnexpectedEOF)
	}
	if src[0] != binaryFormat {
		return Stamp{}, 0, fmt.Errorf("core: stamp format byte 0x%02x, want 0x%02x", src[0], binaryFormat)
	}
	off := 1
	u, used, err := trie.InternEncoded(src[off:])
	if err != nil {
		return Stamp{}, 0, fmt.Errorf("core: update component: %w", err)
	}
	off += used
	i, used, err := trie.InternEncoded(src[off:])
	if err != nil {
		return Stamp{}, 0, fmt.Errorf("core: id component: %w", err)
	}
	off += used
	s, err := NewInterned(u, i)
	if err != nil {
		return Stamp{}, 0, err
	}
	return s, off, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The input must
// contain exactly one encoded stamp.
func (s *Stamp) UnmarshalBinary(data []byte) error {
	decoded, used, err := DecodeBinary(data)
	if err != nil {
		return err
	}
	if used != len(data) {
		return fmt.Errorf("core: %d trailing bytes after encoded stamp", len(data)-used)
	}
	*s = decoded
	return nil
}

// MarshalText implements encoding.TextMarshaler using the paper's Figure 4
// notation, e.g. "[1|0+1]".
func (s Stamp) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Stamp) UnmarshalText(text []byte) error {
	decoded, err := Parse(string(text))
	if err != nil {
		return err
	}
	*s = decoded
	return nil
}

// Parse reads a stamp in the paper's notation "[u|i]", e.g. "[1|0+1]" or
// "[ε|ε]". Whitespace around components is ignored. The parsed stamp must
// satisfy Invariant I1.
func Parse(text string) (Stamp, error) {
	t := strings.TrimSpace(text)
	if len(t) < 2 || t[0] != '[' || t[len(t)-1] != ']' {
		return Stamp{}, fmt.Errorf("core: parse %q: want \"[u|i]\"", text)
	}
	body := t[1 : len(t)-1]
	parts := strings.Split(body, "|")
	if len(parts) != 2 {
		return Stamp{}, fmt.Errorf("core: parse %q: want exactly one '|'", text)
	}
	u, err := name.Parse(parts[0])
	if err != nil {
		return Stamp{}, fmt.Errorf("core: parse update component: %w", err)
	}
	i, err := name.Parse(parts[1])
	if err != nil {
		return Stamp{}, fmt.Errorf("core: parse id component: %w", err)
	}
	return New(u, i)
}

// MustParse is Parse but panics on error; intended for tests and examples.
func MustParse(text string) Stamp {
	s, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return s
}
