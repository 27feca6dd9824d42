package core

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"versionstamp/internal/bitstr"
	"versionstamp/internal/name"
)

var (
	_ encoding.BinaryMarshaler   = Stamp{}
	_ encoding.BinaryUnmarshaler = (*Stamp)(nil)
	_ encoding.TextMarshaler     = Stamp{}
	_ encoding.TextUnmarshaler   = (*Stamp)(nil)
)

func TestParseExamples(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"[ε|ε]", "[ε|ε]"},
		{"[|ε]", "[∅|ε]"},
		{"[ 1 | 0+1 ]", "[1|0+1]"},
		{"[1|01+1]", "[1|01+1]"},
	}
	for _, tt := range tests {
		s, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if s.String() != tt.want {
			t.Errorf("Parse(%q) = %v, want %v", tt.in, s, tt.want)
		}
	}
}

func TestParseRejects(t *testing.T) {
	bad := []string{
		"",
		"1|0",
		"[1|0",
		"1|0]",
		"[1]",
		"[1|0|1]",
		"[x|0]",
		"[0+01|0+01]", // components not antichains
		"[1|0]",       // violates I1: {1} ⋢ {0}
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted invalid input", in)
		}
	}
}

func TestBinaryRoundTripStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for seed := 0; seed < 10; seed++ {
		frontier := randomFrontier(t, rng, 60)
		for _, s := range frontier {
			data, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary(%v): %v", s, err)
			}
			if len(data) != s.BinaryLen() {
				t.Fatalf("BinaryLen(%v) = %d, actual %d", s, s.BinaryLen(), len(data))
			}
			var back Stamp
			if err := back.UnmarshalBinary(data); err != nil {
				t.Fatalf("UnmarshalBinary(%v): %v", s, err)
			}
			if !back.Equal(s) {
				t.Fatalf("binary round trip %v -> %v", s, back)
			}
		}
	}
}

func TestBinaryCanonicalStamp(t *testing.T) {
	a := MustParse("[1|0+1]")
	b := MustParse("[ 1 | 1+0 ]")
	da, _ := a.MarshalBinary()
	db, _ := b.MarshalBinary()
	if !bytes.Equal(da, db) {
		t.Errorf("equal stamps encoded differently: %x vs %x", da, db)
	}
}

func TestTextRoundTripStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	frontier := randomFrontier(t, rng, 60)
	for _, s := range frontier {
		text, err := s.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText: %v", err)
		}
		var back Stamp
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%s): %v", text, err)
		}
		if !back.Equal(s) {
			t.Fatalf("text round trip %v -> %v", s, back)
		}
	}
}

func TestDecodeBinaryRejects(t *testing.T) {
	cases := [][]byte{
		nil,
		// [1|0+1] in the flat string-list format, format byte 0x01:
		{0x01, 0x01, 0x01, 0x80, 0x02, 0x01, 0x00, 0x01, 0x80},
		{0x03},                                 // unknown format
		{binaryFormat},                         // truncated update
		{binaryFormat, 0x01},                   // truncated trie
		{binaryFormat, 0x02, 0xc0},             // missing id component
		{binaryFormat, 0x02, 0xc0, 0x00},       // id trie with no bits
		{binaryFormat, 0x05, 0x98, 0x05, 0xa8}, // u={1}, i={0}: I1 violated
	}
	for _, data := range cases {
		if _, _, err := DecodeBinary(data); err == nil {
			t.Errorf("DecodeBinary(%x) accepted invalid input", data)
		}
	}
}

// TestDecodeIDPairsAndValidates: DecodeID takes back the id AppendBinary
// writes, paired with the receiver's update component, and refuses what
// DecodeBinary refuses of an id: a trie that does not decode, and a pair
// that violates I1.
func TestDecodeIDPairsAndValidates(t *testing.T) {
	for _, s := range []Stamp{Seed(), MustParse("[1|0+1]"), MustParse("[ε|00]"), MustParse("[1|1]")} {
		enc := s.IDHandle().AppendEncoding(nil)
		got, used, err := s.DecodeID(append(enc, 0xff))
		if err != nil || used != len(enc) || !got.Equal(s) {
			t.Errorf("%v: DecodeID = %v, %d of %d bytes, %v", s, got, used, len(enc), err)
		}
	}
	u1 := MustParse("[1|1]")
	for _, tc := range []struct {
		data []byte
		eof  bool
	}{
		{nil, true},
		{[]byte{0x05}, true},        // truncated trie
		{[]byte{0x00}, false},       // id trie with no bits
		{[]byte{0x05, 0xa8}, false}, // i={0} under u={1}: I1 violated
	} {
		_, _, err := u1.DecodeID(tc.data)
		if err == nil || errors.Is(err, io.ErrUnexpectedEOF) != tc.eof {
			t.Errorf("DecodeID(%x) = %v; want an error, short input %v", tc.data, err, tc.eof)
		}
	}
}

func TestUnmarshalBinaryRejectsTrailingStamp(t *testing.T) {
	data, _ := Seed().MarshalBinary()
	data = append(data, 0x00)
	var s Stamp
	if err := s.UnmarshalBinary(data); err == nil {
		t.Error("trailing bytes must be rejected")
	}
}

func TestDecodeBinaryStreamStamps(t *testing.T) {
	stamps := []Stamp{Seed(), MustParse("[1|0+1]"), MustParse("[ε|00]")}
	var buf []byte
	for _, s := range stamps {
		buf = s.AppendBinary(buf)
	}
	off := 0
	for i, want := range stamps {
		got, used, err := DecodeBinary(buf[off:])
		if err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("decode #%d = %v, want %v", i, got, want)
		}
		off += used
	}
	if off != len(buf) {
		t.Fatalf("stream not fully consumed")
	}
}

func TestSeedEncodedSize(t *testing.T) {
	// ({ε},{ε}) measures 1 (format) + 2 (count=1, len=0) * 2 = 5 flat bytes.
	if got := Seed().EncodedSize(); got != 5 {
		t.Errorf("Seed().EncodedSize() = %d, want 5", got)
	}
}

func TestCompactBeatsFlatOnBushyStamps(t *testing.T) {
	// A wide full-level id is the trie format's best case.
	s := MustParse("[ε|000+001+010+011+100+101+110+111]")
	if s.BinaryLen() >= s.EncodedSize() {
		t.Errorf("binary (%d B) not smaller than flat (%d B) for %v", s.BinaryLen(), s.EncodedSize(), s)
	}
}

// referenceTrieEncoding encodes a name's trie straight from its sorted
// strings — pre-order, a leaf as "1", an interior node as "0" plus two
// child-present flags, after a root flag, framed by a uvarint bit count —
// independently of the interned handles' cached bytes.
func referenceTrieEncoding(n name.Name) []byte {
	ss := n.Bits()
	bits := []bool{len(ss) > 0}
	var walk func(ss []bitstr.Bits, depth int)
	walk = func(ss []bitstr.Bits, depth int) {
		if ss[0].Len() == depth {
			bits = append(bits, true)
			return
		}
		split := 0
		for split < len(ss) && ss[split][depth] == bitstr.Zero {
			split++
		}
		bits = append(bits, false, split > 0, split < len(ss))
		if split > 0 {
			walk(ss[:split], depth+1)
		}
		if split < len(ss) {
			walk(ss[split:], depth+1)
		}
	}
	if len(ss) > 0 {
		walk(ss, 0)
	}
	packed := make([]byte, (len(bits)+7)/8)
	for k, b := range bits {
		if b {
			packed[k/8] |= 0x80 >> (k % 8)
		}
	}
	return append(binary.AppendUvarint(nil, uint64(len(bits))), packed...)
}

// TestCompactBytesMatchTrieReference is the wire-stability property of the
// interned kernel: AppendBinary serves each component's cached encoding,
// and those bytes must be identical to encoding the component names'
// tries directly. Digest and entry frames, WAL records and snapshots all
// embed this format, so byte equality here pins the whole stored surface.
func TestCompactBytesMatchTrieReference(t *testing.T) {
	reference := func(s Stamp) []byte {
		out := []byte{binaryFormat}
		out = append(out, referenceTrieEncoding(s.UpdateName())...)
		return append(out, referenceTrieEncoding(s.IDName())...)
	}
	rng := rand.New(rand.NewSource(5))
	frontier := []Stamp{Seed()}
	check := func(s Stamp) {
		t.Helper()
		got, _ := s.MarshalBinary()
		want := reference(s)
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalBinary(%v) = % x, trie reference % x", s, got, want)
		}
		back, used, err := DecodeBinary(got)
		if err != nil || used != len(got) || !back.Equal(s) {
			t.Fatalf("round trip of %v: %v (used %d) err %v", s, back, used, err)
		}
	}
	for k := 0; k < 300; k++ {
		switch op := rng.Intn(3); {
		case op == 0:
			i := rng.Intn(len(frontier))
			frontier[i] = frontier[i].Update()
		case op == 1 || len(frontier) == 1:
			i := rng.Intn(len(frontier))
			a, b := frontier[i].Fork()
			frontier[i] = a
			frontier = append(frontier, b)
		default:
			i, j := rng.Intn(len(frontier)), rng.Intn(len(frontier))
			if i == j {
				continue
			}
			if joined, err := Join(frontier[i], frontier[j]); err == nil {
				frontier[i] = joined
				frontier = append(frontier[:j], frontier[j+1:]...)
			}
		}
		for _, s := range frontier {
			check(s)
		}
	}
}

// TestAppendBinaryAllocs: encoding an interned stamp into a pre-sized
// buffer allocates nothing — the per-stamp cost of every WAL record and
// wire frame.
func TestAppendBinaryAllocs(t *testing.T) {
	a, _ := Seed().Update().Fork()
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(500, func() {
		buf = a.AppendBinary(buf[:0])
	}); allocs != 0 {
		t.Errorf("AppendBinary allocates %.1f/op, want 0", allocs)
	}
}
