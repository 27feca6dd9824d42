package trie

import (
	"bytes"
	"testing"

	"versionstamp/internal/name"
)

// FuzzDecode checks the decoder on arbitrary bytes: no panics, only valid
// tries, canonical re-encoding.
func FuzzDecode(f *testing.F) {
	f.Add((*Interned)(nil).AppendEncoding(nil))
	f.Add(Intern(name.Epsilon()).AppendEncoding(nil))
	f.Add([]byte{0x04, 0b10000000})
	f.Add([]byte{0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, used, err := InternEncoded(data)
		if err != nil {
			return
		}
		if used <= 0 || used > len(data) {
			t.Fatalf("implausible consumed count %d of %d", used, len(data))
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid trie: %v", err)
		}
		re := n.AppendEncoding(nil)
		back, used2, err := InternEncoded(re)
		if err != nil || used2 != len(re) || !back.Equal(n) {
			t.Fatalf("re-encode not canonical: %v", err)
		}
		// The decoded trie represents a valid name, which interns back to it.
		nm := n.Name()
		if err := nm.Validate(); err != nil {
			t.Fatalf("decoded trie yields invalid name: %v", err)
		}
		if !bytes.Equal(Intern(nm).AppendEncoding(nil), re) {
			t.Fatalf("name %v re-interns to a different encoding", nm)
		}
	})
}
