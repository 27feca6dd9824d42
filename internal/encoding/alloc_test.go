package encoding

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// TestDecodeKnownKeyAllocs pins what a decode costs when the receiver
// already holds the keys it names: a leaf run of 16 held keys allocates only
// its digest slice, each key sharing the bytes of the receiver's string,
// whether the keys come whole or as the ids that answer the receiver's
// terms, and a held digest allocates nothing. A key the receiver does not
// hold costs one copy more; an entry copies its key and its value.
func TestDecodeKnownKeyAllocs(t *testing.T) {
	st := testStamp(t)
	local := make([]Digest, 16)
	for i := range local {
		local[i] = Digest{Key: fmt.Sprintf("key-%06d", i*7919), Stamp: st}
	}
	slices.SortFunc(local, func(a, b Digest) int {
		return cmp.Or(cmp.Compare(TreePos(a.Key), TreePos(b.Key)), strings.Compare(a.Key, b.Key))
	})
	held := func(b []byte) (string, bool) {
		for _, d := range local {
			if d.Key == string(b) {
				return d.Key, true
			}
		}
		return "", false
	}
	mine := func(int, int, uint64) ([]Digest, bool) { return local, false }
	termed := func(int, int, uint64) ([]Digest, bool) { return local, true }
	shared := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

	run := AppendLeafRun(nil, LeafRun{Stripe: 3, Level: 2, Path: 0x41, Digests: local})
	got, _, err := DecodeLeafRun(run, 32, mine)
	if err != nil || len(got.Digests) != len(local) {
		t.Fatalf("DecodeLeafRun: %d digests, %v", len(got.Digests), err)
	}
	for i, d := range got.Digests {
		if d.Key != local[i].Key || !shared(d.Key, local[i].Key) {
			t.Fatalf("digest %d: key %q does not share the held string's bytes", i, d.Key)
		}
	}
	digest := AppendDigest(nil, local[5])
	if d, _, _ := DecodeDigest(digest, held); !shared(d.Key, local[5].Key) {
		t.Fatalf("held digest key %q was copied", d.Key)
	}

	// One key the receiver lacks, in each shape.
	newRun := slices.Clone(local)
	newRun[7].Key = "key-not-held"
	slices.SortFunc(newRun, func(a, b Digest) int {
		return cmp.Or(cmp.Compare(TreePos(a.Key), TreePos(b.Key)), strings.Compare(a.Key, b.Key))
	})
	unknownRun := AppendLeafRun(nil, LeafRun{Stripe: 3, Level: 2, Path: 0x41, Digests: newRun})
	var terms []uint64
	for _, d := range local {
		term, _ := DigestTerm(d, nil)
		terms = append(terms, term)
	}
	answer := func(ds []Digest) []byte {
		match, _ := MatchTerms(nil, ds, terms, nil)
		return AppendLeafRun(nil, LeafRun{Stripe: 3, Level: 2, Path: 0x41, Digests: ds, Terms: len(terms), Match: match})
	}
	matchedRun, matchedUnknownRun := answer(local), answer(newRun)
	unknownDigest := AppendDigest(nil, Digest{Key: "key-not-held", Stamp: st})
	entry := AppendEntry(nil, Entry{Key: "key-not-held", Value: []byte("value"), Stamp: st})

	cases := []struct {
		name string
		want float64
		fn   func() error
	}{
		{"leaf run of 16 held keys", 1, func() error { _, _, err := DecodeLeafRun(run, 32, mine); return err }},
		{"held digest", 0, func() error { _, _, err := DecodeDigest(digest, held); return err }},
		{"leaf run, one key not held", 2, func() error { _, _, err := DecodeLeafRun(unknownRun, 32, mine); return err }},
		{"leaf run of 16 matched terms", 1, func() error { _, _, err := DecodeLeafRun(matchedRun, 32, termed); return err }},
		{"leaf run of 15 matched terms and a key not held", 2, func() error {
			_, _, err := DecodeLeafRun(matchedUnknownRun, 32, termed)
			return err
		}},
		{"digest not held", 1, func() error { _, _, err := DecodeDigest(unknownDigest, held); return err }},
		{"entry", 2, func() error { _, _, err := DecodeEntry(entry); return err }},
	}
	for _, c := range cases {
		allocs := testing.AllocsPerRun(200, func() {
			if err := c.fn(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if allocs != c.want {
			t.Errorf("%s: %.2f allocs/op, want %.0f", c.name, allocs, c.want)
		}
	}
}

// TestDecodeTreeNodeAllocs: a tree node decodes into the caller's hash
// scratch and allocates nothing.
func TestDecodeTreeNodeAllocs(t *testing.T) {
	var bm uint16
	hashes := make([]uint64, 0, TreeFanout)
	for c := 0; c < TreeFanout; c += 3 {
		bm |= 1 << c
		hashes = append(hashes, uint64(c)<<40|uint64(c))
	}
	buf := AppendTreeNode(nil, TreeNode{Stripe: 5, Level: 2, Path: 0x3c, Bitmap: bm, Hashes: hashes})
	scratch := make([]uint64, 0, TreeFanout)
	allocs := testing.AllocsPerRun(200, func() {
		node, _, err := DecodeTreeNode(buf, 32, scratch[:0])
		if err != nil || len(node.Hashes) != len(hashes) || node.Hashes[1] != hashes[1] {
			t.Fatalf("DecodeTreeNode: %+v, %v", node, err)
		}
		scratch = node.Hashes
	})
	if allocs != 0 {
		t.Errorf("DecodeTreeNode allocates %.2f/op, want 0", allocs)
	}
}
