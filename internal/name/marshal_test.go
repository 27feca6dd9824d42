package name

import (
	"encoding"
	"math/rand"
	"testing"
)

var (
	_ encoding.TextMarshaler   = Name{}
	_ encoding.TextUnmarshaler = (*Name)(nil)
)

func TestTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		n := randName(rng, 8, 8)
		text, err := n.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText: %v", err)
		}
		var back Name
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%s): %v", text, err)
		}
		if !back.Equal(n) {
			t.Fatalf("text round trip %v -> %v", n, back)
		}
	}
}

func TestEncodedSizeCompact(t *testing.T) {
	// A long string packs 8 bits per byte.
	long := MustParse("0101010101010101") // 16 bits
	if got := long.EncodedSize(); got != 1+1+2 {
		t.Errorf("EncodedSize(16-bit string) = %d, want 4", got)
	}
}
