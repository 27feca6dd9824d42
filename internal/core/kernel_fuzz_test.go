package core

import (
	"encoding/hex"
	"testing"

	"versionstamp/internal/bitstr"
	"versionstamp/internal/name"
	"versionstamp/internal/trie"
)

// committedEncodings pins the canonical trie encoding of a set of names, as
// produced before the hash-consed representation: the wire bytes must never
// change.
var committedEncodings = []struct{ name, hex string }{
	{"∅", "0100"},
	{"ε", "02c0"},
	{"0", "05a8"},
	{"1", "0598"},
	{"0+1", "06bc"},
	{"00+01", "09a780"},
	{"00+01+1", "0ab7c0"},
	{"0+10", "09ba80"},
	{"0+10+111", "0dbb98"},
	{"010+0111", "0fa2e6"},
	{"00+01+10+11", "0eb7bc"},
	{"000+001+010+011+100+101+110+111", "1eb6f7b7bc"},
	{"0101+011", "0fa2ce"},
	{"1101+0011+100", "1cb44daa30"},
	{"00000000", "1aa4924940"},
	{"0110100110010110", "32a25148948a2540"},
	{"0+10+110+1110+11110+111110", "19bbbbba80"},
	{"00+010+10+110", "14b75750"},
	{"1011+1100+0001+0110+111", "27b68cab26d6"},
}

func TestEncodingMatchesCommittedTable(t *testing.T) {
	for _, c := range committedEncodings {
		h := trie.Intern(name.MustParse(c.name))
		if got := hex.EncodeToString(h.AppendEncoding(nil)); got != c.hex {
			t.Errorf("encoding of %s = %s, committed %s", c.name, got, c.hex)
		}
		raw, _ := hex.DecodeString(c.hex)
		back, used, err := trie.InternEncoded(raw)
		if err != nil || used != len(raw) || !back.Name().Equal(name.MustParse(c.name)) {
			t.Errorf("InternEncoded(%s) = %v, %d, %v", c.hex, back, used, err)
		}
	}
}

// fuzzName derives a name from fuzz bytes: each byte pair is one string, the
// first byte's low nibble its length (0–8 bits, clamped) and the second byte
// its bits; the name is the strings' maximal elements.
func fuzzName(data []byte) name.Name {
	var bits []bitstr.Bits
	for k := 0; k+1 < len(data) && len(bits) < 12; k += 2 {
		l := min(int(data[k]&0x0f), 8)
		b := make([]byte, l)
		for j := range b {
			b[j] = bitstr.Zero + data[k+1]>>j&1
		}
		bits = append(bits, bitstr.Bits(b))
	}
	return name.MaxOf(bits...)
}

// fuzzBelow derives a name u ⊑ i: a prefix of each string of i that the
// selector byte keeps.
func fuzzBelow(i name.Name, sel []byte) name.Name {
	var bits []bitstr.Bits
	for k, s := range i.Bits() {
		if k < len(sel) && sel[k]&1 != 0 {
			bits = append(bits, s[:int(sel[k]>>1)%(s.Len()+1)])
		}
	}
	return name.MaxOf(bits...)
}

// FuzzKernelAgainstNames is the differential check of the handle kernel:
// every operation on interned tries must agree with the sorted-slice name
// oracle, and Reduce with the fixpoint of the one-step rewriting.
func FuzzKernelAgainstNames(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 0, 1, 1}, []byte{0, 0})
	f.Add([]byte{2, 0, 2, 2, 1, 1}, []byte{3, 0, 1})
	f.Add([]byte{3, 0, 3, 4, 2, 1, 2, 3}, []byte{2, 6, 5, 1})
	f.Add([]byte{8, 0xa5, 7, 0x13, 4, 0x0f, 1, 0}, []byte{0xff, 0x11, 0x21, 0x03})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		na, nb := fuzzName(a), fuzzName(b)
		ha, hb := trie.Intern(na), trie.Intern(nb)
		for _, h := range []*trie.Interned{ha, hb} {
			if err := h.Validate(); err != nil {
				t.Fatalf("Intern(%v): %v", h, err)
			}
		}
		if !ha.Name().Equal(na) || ha.Len() != na.Len() || ha.FlatSize() != na.EncodedSize() {
			t.Fatalf("Intern(%v) = %v (len %d, flat %d)", na, ha, ha.Len(), ha.FlatSize())
		}
		if got, want := trie.JoinInterned(ha, hb), name.Join(na, nb); !got.Name().Equal(want) {
			t.Fatalf("Join(%v, %v) = %v, want %v", na, nb, got, want)
		}
		if ha.Leq(hb) != na.Leq(nb) || hb.Leq(ha) != nb.Leq(na) {
			t.Fatalf("Leq(%v, %v) disagrees", na, nb)
		}
		if ha.Equal(hb) != na.Equal(nb) {
			t.Fatalf("Equal(%v, %v) disagrees", na, nb)
		}
		if ha.IncomparableTo(hb) != na.IncomparableTo(nb) {
			t.Fatalf("IncomparableTo(%v, %v) disagrees", na, nb)
		}
		for _, s := range nb.Bits() {
			for l := 0; l <= s.Len(); l++ {
				if ha.Covers(s[:l]) != na.Covers(s[:l]) {
					t.Fatalf("Covers(%v, %v) disagrees", na, s[:l])
				}
			}
		}
		if !ha.Append0().Name().Equal(na.Append0()) || !ha.Append1().Name().Equal(na.Append1()) {
			t.Fatalf("Append0/1(%v) disagree", na)
		}
		u := fuzzBelow(na, b)
		gotU, gotI := trie.Reduce(trie.Intern(u), ha)
		wantU, wantI := rewriteFixpoint(u, na)
		if !gotU.Name().Equal(wantU) || !gotI.Name().Equal(wantI) {
			t.Fatalf("Reduce(%v, %v) = (%v, %v), want (%v, %v)", u, na, gotU, gotI, wantU, wantI)
		}
		enc := ha.AppendEncoding(nil)
		if back, used, err := trie.InternEncoded(enc); err != nil || used != len(enc) || !back.Equal(ha) {
			t.Fatalf("InternEncoded round trip of %v: %v, %d, %v", na, back, used, err)
		}
	})
}
