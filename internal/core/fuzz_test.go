package core

import (
	"testing"
)

// FuzzParse checks that the text parser never panics, never accepts
// invariant-violating stamps, and that accepted stamps round-trip
// canonically. Run with `go test -fuzz=FuzzParse ./internal/core` for a
// full fuzzing session; the seed corpus runs on every `go test`.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"[ε|ε]", "[|ε]", "[1|0+1]", "[1|00+01+1]", "[0+10|0+10]",
		"", "[", "]", "[|]", "[x|y]", "[1|0]", "[0+01|0]", "[ε|ε]extra",
		"[ 1 | 1 ]", "[∅|∅]", "[e|e]",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, err := Parse(input)
		if err != nil {
			return
		}
		if err := CheckI1(s); err != nil {
			t.Fatalf("Parse(%q) accepted an invalid stamp: %v", input, err)
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("re-parse of %v failed: %v", s, err)
		}
		if !back.Equal(s) {
			t.Fatalf("canonical round trip changed %v to %v", s, back)
		}
	})
}

// FuzzDecodeBinary checks the binary decoder against arbitrary bytes: no
// panics, no stamp that breaks I1, and canonical re-encoding of accepted
// input (non-canonical padding bits decode to the canonical stamp).
func FuzzDecodeBinary(f *testing.F) {
	for _, s := range []Stamp{Seed(), MustParse("[1|0+1]"), MustParse("[ε|00]")} {
		data, _ := s.MarshalBinary()
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{binaryFormat, 0xff, 0xff})
	f.Add([]byte{binaryFormat, 0x02, 0xc1, 0x02, 0xc0}) // [ε|ε], a padding bit set
	f.Fuzz(func(t *testing.T, data []byte) {
		s, used, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if used <= 0 || used > len(data) {
			t.Fatalf("implausible consumed count %d of %d", used, len(data))
		}
		if err := CheckI1(s); err != nil {
			t.Fatalf("decoder accepted invalid stamp: %v", err)
		}
		re := s.AppendBinary(nil)
		back, used2, err := DecodeBinary(re)
		if err != nil || used2 != len(re) || len(re) != s.BinaryLen() || !back.Equal(s) {
			t.Fatalf("re-encode of %v not canonical: %v", s, err)
		}
	})
}
