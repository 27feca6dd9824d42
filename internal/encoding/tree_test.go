package encoding

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"versionstamp/internal/core"
)

func TestValidTreeDepth(t *testing.T) {
	for _, d := range []int{1, 2, 8} {
		if !ValidTreeDepth(d) {
			t.Errorf("ValidTreeDepth(%d) = false, want true", d)
		}
	}
	for _, d := range []int{-1, 0, 9, 12} {
		if ValidTreeDepth(d) {
			t.Errorf("ValidTreeDepth(%d) = true, want false", d)
		}
	}
}

func TestBitmapHelpers(t *testing.T) {
	for _, n := range []int{2, 8, 16, 64} {
		bm := make([]byte, TreeBitmapLen(n))
		for c := 0; c < n; c += 3 {
			BitmapSet(bm, c)
		}
		for c := 0; c < n; c++ {
			if got, want := BitmapGet(bm, c), c%3 == 0; got != want {
				t.Fatalf("%d bits: bit %d = %v, want %v", n, c, got, want)
			}
		}
	}
}

func testStamp(t *testing.T) core.Stamp {
	t.Helper()
	return core.Seed().Update()
}

func TestTreeNodeRoundtrip(t *testing.T) {
	node := TreeNode{
		Stripe: 3, Level: 2, Path: 0x47,
		Bitmap: 1<<0 | 1<<7 | 1<<15, Hashes: []uint64{1, 1 << 40, ^uint64(0)},
	}
	buf := AppendTreeNode(nil, node)
	got, used, err := DecodeTreeNode(buf, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) || used != TreeNodeLen(node) {
		t.Fatalf("used %d of %d bytes, %d sized", used, len(buf), TreeNodeLen(node))
	}
	if got.Stripe != node.Stripe || got.Level != node.Level || got.Path != node.Path {
		t.Fatalf("coords: got %+v, want %+v", got, node)
	}
	// The bitmap's two bytes hold children 0-7, then 8-15, LSB first.
	if bm := buf[len(buf)-2-8*3:][:2]; got.Bitmap != node.Bitmap || !bytes.Equal(bm, []byte{0x81, 0x80}) {
		t.Fatalf("bitmap: got %#x (%x on the wire), want %#x", got.Bitmap, bm, node.Bitmap)
	}
	if len(got.Hashes) != 3 || got.Hashes[0] != 1 || got.Hashes[2] != ^uint64(0) {
		t.Fatalf("hashes: got %v", got.Hashes)
	}
}

func TestDecodeTreeNodeRejects(t *testing.T) {
	good := AppendTreeNode(nil, TreeNode{Stripe: 1, Level: 1, Path: 5})
	cases := map[string][]byte{
		"empty":             nil,
		"truncated":         good[:len(good)-1],
		"bad stripe":        AppendTreeNode(nil, TreeNode{Stripe: 99, Level: 1}),
		"level at max":      AppendTreeNode(nil, TreeNode{Stripe: 1, Level: MaxTreeDepth}),
		"path beyond level": AppendTreeNode(nil, TreeNode{Stripe: 1, Level: 1, Path: 16}),
		"missing hash":      AppendTreeNode(nil, TreeNode{Stripe: 1, Level: 1, Bitmap: 3, Hashes: []uint64{7}}),
	}
	for name, buf := range cases {
		if _, _, err := DecodeTreeNode(buf, 32, nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestLeafRunRoundtrip(t *testing.T) {
	st := testStamp(t)
	run := LeafRun{
		Stripe: 7, Level: 3, Path: 0x123,
		Digests: inTreeOrder([]Digest{{Key: "a", Stamp: st}, {Key: "bb", Stamp: st}}),
	}
	buf := AppendLeafRun(nil, sentRun(run, nil))
	got, used, err := DecodeLeafRun(buf, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Fatalf("used %d of %d bytes", used, len(buf))
	}
	if got.Stripe != run.Stripe || got.Level != run.Level || got.Path != run.Path {
		t.Fatalf("coords: got %+v", got)
	}
	if !sameDigests(got.Digests, run.Digests) {
		t.Fatalf("digests: got %v", got.Digests)
	}
	// Out of tree order, or with a key twice, the run is refused.
	run.Digests = []Digest{run.Digests[1], run.Digests[0]}
	if _, _, err := DecodeLeafRun(AppendLeafRun(nil, sentRun(run, nil)), 32, nil); err == nil {
		t.Error("a run out of tree order decoded")
	}
	run.Digests[1] = run.Digests[0]
	if _, _, err := DecodeLeafRun(AppendLeafRun(nil, sentRun(run, nil)), 32, nil); err == nil {
		t.Error("a run naming a key twice decoded")
	}
}

// inTreeOrder sorts ds into tree order, by position and then key.
func inTreeOrder(ds []Digest) []Digest {
	slices.SortFunc(ds, func(a, b Digest) int {
		return cmp.Or(cmp.Compare(TreePos(a.Key), TreePos(b.Key)), strings.Compare(a.Key, b.Key))
	})
	return ds
}

// sameDigests reports whether two runs hold the same keys under Equal
// stamps, in the same order.
func sameDigests(a, b []Digest) bool {
	return slices.EqualFunc(a, b, func(x, y Digest) bool { return x.Key == y.Key && x.Stamp.Equal(y.Stamp) })
}

// testContent is the content hash of every copy these tests build.
var testContent = ContentHash(false, []byte("v"))

// withTerms gives each of ds its term, as a digest tree holds its keys.
func withTerms(ds []Digest) []Termed {
	ks := make([]Termed, len(ds))
	for i, d := range ds {
		ks[i] = Termed{Digest: d, Term: DigestTerm(d, testContent)}
	}
	return ks
}

// termsOf returns the terms of ds, in order.
func termsOf(ds []Digest) []uint64 {
	var terms []uint64
	for _, k := range withTerms(ds) {
		terms = append(terms, k.Term)
	}
	return terms
}

// sentRun is r as its sender ships it, answering r.Terms terms as match says.
func sentRun(r LeafRun, match []int32) SentRun {
	return SentRun{Stripe: r.Stripe, Level: r.Level, Path: r.Path, Keys: withTerms(r.Digests), Terms: r.Terms, Match: match}
}

// TestLeafRunAnswersTerms: a run that answers a receiver's terms ships a
// matched key as its id alone and decodes, against the receiver's run, to
// exactly the sender's digests: matched keys under the receiver's update
// component and the sender's id, the rest as shipped. A key is matched when
// its key and update component are the receiver's, whatever its id. The
// decoder refuses bitmap padding bits, an id that fails validation, a key
// both matched and shipped, and a run out of tree order.
func TestLeafRunAnswersTerms(t *testing.T) {
	a, b := core.Seed().Update().Fork() // one update component, two ids
	key := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	var mine, theirs []Digest
	for i := 0; i < 10; i++ {
		mine = append(mine, Digest{Key: key(i), Stamp: a})
		switch i {
		case 3: // edited there: another update component
			theirs = append(theirs, Digest{Key: key(i), Stamp: b.Update()})
		case 6: // not there
		default:
			theirs = append(theirs, Digest{Key: key(i), Stamp: b})
		}
	}
	theirs = append(theirs, Digest{Key: "not-here", Stamp: b})
	mine, theirs = inTreeOrder(mine), inTreeOrder(theirs)
	terms := termsOf(mine)
	match := MatchTerms(nil, withTerms(theirs), terms)
	matched := 0
	for i, m := range match {
		if m >= 0 {
			matched++
			if mine[m].Key != theirs[i].Key {
				t.Fatalf("digest %q matched the term of %q", theirs[i].Key, mine[m].Key)
			}
		}
	}
	if matched != 8 {
		t.Fatalf("%d of %d digests matched, want 8", matched, len(theirs))
	}
	run := sentRun(LeafRun{Stripe: 1, Level: 1, Path: 5, Digests: theirs, Terms: len(terms)}, match)
	buf := AppendLeafRun(nil, run)
	if len(buf) != LeafRunLen(run) {
		t.Fatalf("LeafRunLen %d, appended %d", LeafRunLen(run), len(buf))
	}
	if whole := AppendLeafRun(nil, sentRun(LeafRun{Stripe: 1, Level: 1, Path: 5, Digests: theirs}, nil)); len(buf) >= len(whole)/2 {
		t.Errorf("answering terms took %d B, the whole run %d", len(buf), len(whole))
	}
	local := func(stripe, level int, path uint64) ([]Termed, bool) { return withTerms(mine), true }
	got, used, err := DecodeLeafRun(buf, 4, local)
	if err != nil || used != len(buf) || got.Terms != len(terms) || !sameDigests(got.Digests, theirs) {
		t.Fatalf("decoded %d of %d bytes, %v: %v", used, len(buf), err, got.Digests)
	}

	// refused decodes buf, edited, and wants an error that is not a short
	// input's.
	coord := treeCoordLen(1, 1, 5)
	refused := func(what string, buf []byte) {
		t.Helper()
		if _, _, err := DecodeLeafRun(buf, 4, local); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: %v, want a refusal", what, err)
		}
	}
	pad := bytes.Clone(buf)
	pad[coord+1] |= 0x80 // ten terms: bits 10-15 of the bitmap pad it
	refused("bitmap padding bits", pad)

	first := slices.IndexFunc(match, func(m int32) bool { return m >= 0 })
	// The first id, after the two bitmap bytes, becomes ∅ (bit count 1, a
	// zero bit): a trie that decodes, under an update component it does not
	// cover (I1).
	idLen := theirs[first].Stamp.IDHandle().EncodedLen()
	bad := slices.Concat(buf[:coord+2], []byte{0x01, 0x00}, buf[coord+2+idLen:])
	refused("an id that violates I1", bad)
	refused("an id that does not decode", slices.Concat(buf[:coord+2], []byte{0x00}, buf[coord+2+idLen:]))

	both := slices.Clone(match)
	both[first] = -1
	twice := AppendLeafRun(nil, sentRun(LeafRun{Stripe: 1, Level: 1, Path: 5, Digests: theirs, Terms: len(terms)}, both))
	// Mark the unmatched digest's term again: it is both matched and shipped.
	BitmapSet(twice[coord:], int(match[first]))
	twice = slices.Insert(twice, coord+2, theirs[first].Stamp.IDHandle().AppendEncoding(nil)...)
	refused("a key both matched and shipped", twice)

	unordered := slices.Clone(theirs)
	var shipped []int
	for i, m := range match {
		if m < 0 {
			shipped = append(shipped, i)
		}
	}
	unordered[shipped[0]], unordered[shipped[1]] = unordered[shipped[1]], unordered[shipped[0]]
	refused("shipped digests out of tree order",
		AppendLeafRun(nil, sentRun(LeafRun{Stripe: 1, Level: 1, Path: 5, Digests: unordered, Terms: len(terms)}, match)))
}

func TestTreePosDeterministic(t *testing.T) {
	if TreePos("hello") != TreePos("hello") {
		t.Fatal("TreePos not deterministic")
	}
	if TreePos("a") == TreePos("b") {
		t.Fatal("TreePos(a) == TreePos(b): suspicious for FNV-64a")
	}
}

// decodeThroughWindow decodes the element at the front of data the way a
// reader with a small window does: from the first step bytes, and again
// with step more each time the decoder reports that its input ends inside
// the element.
func decodeThroughWindow[T any](data []byte, step int, dec func([]byte) (T, int, error)) (T, int, error) {
	for n := min(step, len(data)); ; n = min(n+step, len(data)) {
		v, used, err := dec(data[:n])
		if err == nil || n == len(data) || !errors.Is(err, io.ErrUnexpectedEOF) {
			return v, used, err
		}
	}
}

// FuzzDecodeTreeNode feeds hostile bytes to the tree-node decoder: it must
// error or return a structurally valid node, never panic or allocate
// unbounded memory (hash counts are pinned to the bitmap's population), and
// a node that decodes re-encodes to one that decodes the same. Decoded
// through a small window, it must read the same node or fail with the same
// error.
func FuzzDecodeTreeNode(f *testing.F) {
	f.Add(AppendTreeNode(nil, TreeNode{Stripe: 1, Level: 1, Path: 2, Bitmap: 1 << 3, Hashes: []uint64{42}}), 32)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 65536)
	f.Add([]byte{0}, 1)
	f.Fuzz(func(t *testing.T, data []byte, maxStripe int) {
		node, used, err := DecodeTreeNode(data, maxStripe, nil)
		wnode, wused, werr := decodeThroughWindow(data, 5, func(b []byte) (TreeNode, int, error) {
			return DecodeTreeNode(b, maxStripe, nil)
		})
		if fmt.Sprint(werr) != fmt.Sprint(err) || wused != used || fmt.Sprint(wnode) != fmt.Sprint(node) {
			t.Fatalf("through a window: %+v, %d bytes, %v; whole: %+v, %d bytes, %v", wnode, wused, werr, node, used, err)
		}
		if err != nil {
			return
		}
		if used <= 0 || used > len(data) {
			t.Fatalf("used %d of %d bytes", used, len(data))
		}
		buf := AppendTreeNode(nil, node)
		again, used2, err := DecodeTreeNode(buf, maxStripe, nil)
		if err != nil || used2 != len(buf) || len(buf) != TreeNodeLen(node) || fmt.Sprint(again) != fmt.Sprint(node) {
			t.Fatalf("re-encoded node of %d B (%d sized) decodes to %+v, %d bytes, %v", len(buf), TreeNodeLen(node), again, used2, err)
		}
		if len(node.Hashes) != bits.OnesCount16(node.Bitmap) {
			t.Fatalf("%d hashes for bitmap %#x", len(node.Hashes), node.Bitmap)
		}
		if node.Level >= MaxTreeDepth || node.Path>>(node.Level*TreeFanoutBits) != 0 {
			t.Fatalf("node at level %d, path %#x", node.Level, node.Path)
		}
	})
}

// fuzzBaseRun is the fixed part of the receiver's run FuzzDecodeLeafRun
// decodes against: ten keys, in tree order, under one stamp.
var fuzzBaseRun = func() []Digest {
	st, _ := core.Seed().Update().Fork()
	var ds []Digest
	for i := 0; i < 10; i++ {
		ds = append(ds, Digest{Key: fmt.Sprintf("key-%03d", i), Stamp: st})
	}
	return inTreeOrder(ds)
}()

// FuzzDecodeLeafRun feeds hostile bytes to the leaf-run decoder. Each input
// is decoded copying every key, and against a receiver's run derived from
// the input: as a run with no terms, which must return exactly what the
// copying decode does, or (termed) as one that answers the receiver's terms.
// Either way a decode must error or return a run in strict tree order whose
// preallocation the body bounds (a matched key takes at least one byte of
// id), with no key aliasing the input; through a small window it must read
// the same run or fail with the same error; and a run that decodes
// re-encodes, answering the same terms, to one that decodes the same.
func FuzzDecodeLeafRun(f *testing.F) {
	st := core.Seed().Update()
	f.Add([]byte{1, 3, 0, 0}, 32, false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0}, 4, false)
	f.Add(AppendLeafRun(nil, sentRun(LeafRun{Stripe: 1, Level: 2, Path: 9, Digests: inTreeOrder([]Digest{
		{Key: "k1", Stamp: st}, {Key: "k2", Stamp: st}, {Key: "zz", Stamp: st}})}, nil)), 32, false)
	// Answering the fixed run's terms: two keys edited, one new, one lacking.
	_, other := fuzzBaseRun[0].Stamp.Fork()
	theirs := []Digest{{Key: "key-new", Stamp: other}}
	for i, d := range fuzzBaseRun[1:] {
		if i%4 == 1 {
			d.Stamp = d.Stamp.Update()
		}
		theirs = append(theirs, Digest{Key: d.Key, Stamp: d.Stamp})
	}
	theirs = inTreeOrder(theirs)
	match := MatchTerms(nil, withTerms(theirs), termsOf(fuzzBaseRun))
	for _, n := range []int{2, 5} { // input lengths ≡ 2 (mod 3): the fixed run alone
		run := AppendLeafRun(nil, sentRun(LeafRun{Stripe: 1, Level: 2, Path: 9, Digests: theirs,
			Terms: len(fuzzBaseRun)}, match))
		f.Add(append(run, make([]byte, (n-len(run)%3+3)%3)...), 32, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, maxStripe int, termed bool) {
		run, used, err := DecodeLeafRun(data, maxStripe, nil)
		mine := fuzzLocalRun(run.Digests, data)
		local := func(stripe, level int, path uint64) ([]Termed, bool) {
			if err == nil && (stripe != run.Stripe || level != run.Level || path != run.Path) {
				t.Fatalf("local asked for (%d, %d, %#x), run is at (%d, %d, %#x)",
					stripe, level, path, run.Stripe, run.Level, run.Path)
			}
			return withTerms(mine), termed
		}
		input := slices.Clone(data)
		run2, used2, err2 := DecodeLeafRun(input, maxStripe, local)
		var keys []string
		for _, d := range run2.Digests {
			keys = append(keys, strings.Clone(d.Key))
		}
		clear(input) // a key that aliased the input would change here
		for i, d := range run2.Digests {
			if d.Key != keys[i] {
				t.Fatalf("digest %d: key %q aliases the input", i, keys[i])
			}
		}
		if !termed && (fmt.Sprint(err) != fmt.Sprint(err2) || used != used2 || !sameDigests(run.Digests, run2.Digests)) {
			t.Fatalf("resolving decode: %d bytes, error %v; copying decode: %d bytes, error %v", used2, err2, used, err)
		}
		run3, used3, err3 := decodeThroughWindow(data, 7, func(b []byte) (LeafRun, int, error) {
			return DecodeLeafRun(b, maxStripe, local)
		})
		if fmt.Sprint(err2) != fmt.Sprint(err3) || used2 != used3 || !sameDigests(run2.Digests, run3.Digests) {
			t.Fatalf("decode through a window: %d bytes, error %v; whole: %d bytes, error %v", used3, err3, used2, err2)
		}
		if err2 != nil {
			return
		}
		if used2 <= 0 || used2 > len(data) || cap(run2.Digests) > len(data) {
			t.Fatalf("used %d of %d bytes, preallocated %d digests", used2, len(data), cap(run2.Digests))
		}
		if !slices.IsSortedFunc(run2.Digests, cmpTreeOrder) || len(slices.CompactFunc(slices.Clone(run2.Digests), sameKey)) != len(run2.Digests) {
			t.Fatalf("decoded a run out of tree order: %v", run2.Digests)
		}
		if (run2.Terms > 0) != termed {
			t.Fatalf("a run decoded with %d terms, %d sent (%v)", run2.Terms, len(mine), termed)
		}
		var match []int32
		if termed {
			match = MatchTerms(nil, withTerms(run2.Digests), termsOf(mine))
		}
		again := sentRun(run2, match)
		buf := AppendLeafRun(nil, again)
		run4, used4, err4 := DecodeLeafRun(buf, maxStripe, local)
		if err4 != nil || used4 != len(buf) || len(buf) != LeafRunLen(again) || !sameDigests(run4.Digests, run2.Digests) {
			t.Fatalf("re-encoded run of %d B (%d sized) decodes to %d digests of %d, %d bytes, %v",
				len(buf), LeafRunLen(again), len(run4.Digests), len(run2.Digests), used4, err4)
		}
	})
}

func cmpTreeOrder(a, b Digest) int {
	return cmp.Or(cmp.Compare(TreePos(a.Key), TreePos(b.Key)), strings.Compare(a.Key, b.Key))
}

func sameKey(a, b Digest) bool { return a.Key == b.Key }

// fuzzLocalRun derives a receiver's run, in tree order and naming each key
// once, as its digest tree holds one: the fixed run and the digests of a
// decoded run (or, when the input did not decode, snippets of the input),
// shaped by the input's length: all of them, every other one, or the fixed
// run alone.
func fuzzLocalRun(ds []Digest, data []byte) []Digest {
	extra := slices.Clone(ds)
	if len(extra) == 0 {
		for i := 0; i < len(data) && i < 8; i++ {
			extra = append(extra, Digest{Key: string(data[i:min(i+3, len(data))]), Stamp: fuzzBaseRun[0].Stamp})
		}
	}
	switch len(data) % 3 {
	case 1:
		var half []Digest
		for i := 0; i < len(extra); i += 2 {
			half = append(half, extra[i])
		}
		extra = half
	case 2:
		extra = nil
	}
	local := inTreeOrder(append(slices.Clone(fuzzBaseRun), extra...))
	local = slices.CompactFunc(local, sameKey)
	for i := range local {
		local[i].Key = strings.Clone(local[i].Key)
	}
	return local
}
