package core

import (
	"errors"
	"fmt"
	"strings"

	"versionstamp/internal/name"
)

// Binary wire format for a stamp: a format byte (currently formatV1)
// followed by the canonical encodings of the update and id components.
// The format is canonical: equal stamps encode to identical bytes.

// formatV1 identifies the current stamp wire format.
const formatV1 = 0x01

// errBadFormat is returned when decoding input with an unknown format byte.
var errBadFormat = errors.New("core: unknown stamp wire format")

// AppendBinary appends the canonical binary encoding of s to dst.
func (s Stamp) AppendBinary(dst []byte) []byte {
	dst = append(dst, formatV1)
	dst = s.u.Name().AppendBinary(dst)
	dst = s.i.Name().AppendBinary(dst)
	return dst
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (s Stamp) MarshalBinary() ([]byte, error) {
	return s.AppendBinary(nil), nil
}

// EncodedSize returns the exact length in bytes of the binary encoding,
// the size measure reported by the E5/E6 space experiments. It is read off
// the components' cached flat sizes; no name is materialized.
func (s Stamp) EncodedSize() int {
	return 1 + s.u.FlatSize() + s.i.FlatSize()
}

// DecodeBinary reads one stamp from the front of src, returning the number
// of bytes consumed. The decoded stamp is validated against Invariant I1.
func DecodeBinary(src []byte) (Stamp, int, error) {
	if len(src) == 0 {
		return Stamp{}, 0, errors.New("core: empty input")
	}
	if src[0] != formatV1 {
		return Stamp{}, 0, fmt.Errorf("%w: 0x%02x", errBadFormat, src[0])
	}
	off := 1
	u, used, err := name.DecodeBinary(src[off:])
	if err != nil {
		return Stamp{}, 0, fmt.Errorf("core: update component: %w", err)
	}
	off += used
	i, used, err := name.DecodeBinary(src[off:])
	if err != nil {
		return Stamp{}, 0, fmt.Errorf("core: id component: %w", err)
	}
	off += used
	s, err := New(u, i)
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
