package trie

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"versionstamp/internal/name"
)

// encodedBits reads the bit count that frames a handle's encoding.
func encodedBits(h *Interned) int {
	nbits, _ := binary.Uvarint(h.AppendEncoding(nil))
	return int(nbits)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		h := Intern(randName(rng, 10, 10))
		data := h.AppendEncoding(nil)
		back, used, err := InternEncoded(data)
		if err != nil {
			t.Fatalf("InternEncoded(%v): %v", h, err)
		}
		if used != len(data) {
			t.Fatalf("consumed %d of %d bytes", used, len(data))
		}
		if !back.Equal(h) {
			t.Fatalf("round trip %v -> %v", h, back)
		}
	}
}

func TestEncodedBitsExact(t *testing.T) {
	tests := []struct {
		in   string
		want int // 1 root flag + per-node bits
	}{
		{"∅", 1},
		{"ε", 2},        // root flag + leaf
		{"0", 5},        // root flag + interior(3) + leaf
		{"0+1", 6},      // root flag + interior(3) + leaf + leaf
		{"00+01+1", 10}, // root + int(3) + int(3) + leaf + leaf + leaf
	}
	for _, tt := range tests {
		if got := encodedBits(Intern(name.MustParse(tt.in))); got != tt.want {
			t.Errorf("encoded bits of %s = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestEncodeEmptyAndStream(t *testing.T) {
	var empty *Interned
	data := empty.AppendEncoding(nil)
	back, used, err := InternEncoded(data)
	if err != nil || used != len(data) || back != nil {
		t.Fatalf("InternEncoded(empty) = %v,%d,%v", back, used, err)
	}
	// Two names back to back.
	eps := Intern(name.Epsilon())
	buf := Intern(name.MustParse("0+10")).AppendEncoding(eps.AppendEncoding(nil))
	first, used, err := InternEncoded(buf)
	if err != nil || first != eps {
		t.Fatalf("stream decode 1: %v, %v", first, err)
	}
	second, used2, err := InternEncoded(buf[used:])
	if err != nil || second.String() != "0+10" {
		t.Fatalf("stream decode 2: %v, %v", second, err)
	}
	if used+used2 != len(buf) {
		t.Fatalf("stream not fully consumed")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x08},             // claims 8 bits, no payload
		{0x03, 0b10000000}, // root flag 1 then truncated node
		{0x04, 0b10000000}, // root flag 1, interior node with both child flags 0
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // huge bit count
	}
	for _, data := range cases {
		if _, _, err := InternEncoded(data); err == nil {
			t.Errorf("InternEncoded(%x) accepted garbage", data)
		}
	}
}

func TestDecodeRejectsUnreadBits(t *testing.T) {
	// Valid leaf ("1" after root flag "1") but bit count claims 10 bits.
	data := []byte{0x0A, 0b11000000, 0x00}
	if _, _, err := InternEncoded(data); err == nil {
		t.Error("unread bits must be rejected")
	}
}

func TestCompactness(t *testing.T) {
	// A bushy collapsible-adjacent name: the trie encoding shares prefixes,
	// the flat encoding repeats them. 8 strings of length 3 = full level:
	// flat: 1 + 8*(1+1) = 17 bytes; trie: 1+7*3+8 = 30 bits ≈ 4 bytes + frame.
	full := name.MustParse("000+001+010+011+100+101+110+111")
	h := Intern(full)
	flatBytes := full.EncodedSize()
	if h.FlatSize() != flatBytes {
		t.Errorf("FlatSize = %d, name encodes in %d", h.FlatSize(), flatBytes)
	}
	if trieBytes := h.EncodedLen(); trieBytes >= flatBytes {
		t.Errorf("trie encoding (%d B) not smaller than flat (%d B) for %v",
			trieBytes, flatBytes, full)
	}
}

func TestEncodedBitsMatchesEncodeLength(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		h := Intern(randName(rng, 12, 8))
		bits := encodedBits(h)
		data := h.AppendEncoding(nil)
		// Frame: uvarint(bits) + ceil(bits/8) payload bytes.
		wantPayload := (bits + 7) / 8
		frame := 1
		for v := uint64(bits); v >= 0x80; v >>= 7 {
			frame++
		}
		if len(data) != frame+wantPayload || h.EncodedLen() != len(data) {
			t.Fatalf("encoding length %d (EncodedLen %d), want %d (bits=%d)",
				len(data), h.EncodedLen(), frame+wantPayload, bits)
		}
	}
}
