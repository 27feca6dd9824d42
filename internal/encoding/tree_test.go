package encoding

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"versionstamp/internal/core"
)

func TestValidTreeShape(t *testing.T) {
	valid := [][2]int{{2, 1}, {16, 1}, {16, 8}, {64, 10}, {2, 12}, {16, 12}}
	for _, s := range valid {
		if !ValidTreeShape(s[0], s[1]) {
			t.Errorf("ValidTreeShape(%d, %d) = false, want true", s[0], s[1])
		}
	}
	invalid := [][2]int{
		{0, 1}, {1, 1}, {3, 2}, {128, 1}, {16, 0}, {16, -1}, {16, 13},
		{64, 11}, // 11×6 = 66 position bits > 64
		{-16, 2},
	}
	for _, s := range invalid {
		if ValidTreeShape(s[0], s[1]) {
			t.Errorf("ValidTreeShape(%d, %d) = true, want false", s[0], s[1])
		}
	}
}

func TestBitmapHelpers(t *testing.T) {
	for _, fanout := range []int{2, 8, 16, 64} {
		bm := make([]byte, TreeBitmapLen(fanout))
		for c := 0; c < fanout; c += 3 {
			BitmapSet(bm, c)
		}
		for c := 0; c < fanout; c++ {
			if got, want := BitmapGet(bm, c), c%3 == 0; got != want {
				t.Fatalf("fanout %d bit %d = %v, want %v", fanout, c, got, want)
			}
		}
	}
}

func testStamp(t *testing.T) core.Stamp {
	t.Helper()
	return core.Seed().Update()
}

func TestTreeNodeRoundtrip(t *testing.T) {
	const fanout = 16
	bm := make([]byte, TreeBitmapLen(fanout))
	BitmapSet(bm, 0)
	BitmapSet(bm, 7)
	BitmapSet(bm, 15)
	node := TreeNode{
		Stripe: 3, Depth: 4, Level: 2, Path: 0x47,
		Bitmap: bm, Hashes: []uint64{1, 1 << 40, ^uint64(0)},
	}
	buf := AppendTreeNode(nil, node)
	got, used, err := DecodeTreeNode(buf, fanout, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Fatalf("used %d of %d bytes", used, len(buf))
	}
	if got.Stripe != node.Stripe || got.Depth != node.Depth ||
		got.Level != node.Level || got.Path != node.Path {
		t.Fatalf("coords: got %+v, want %+v", got, node)
	}
	if !bytes.Equal(got.Bitmap, node.Bitmap) {
		t.Fatalf("bitmap: got %x, want %x", got.Bitmap, node.Bitmap)
	}
	if len(got.Hashes) != 3 || got.Hashes[0] != 1 || got.Hashes[2] != ^uint64(0) {
		t.Fatalf("hashes: got %v", got.Hashes)
	}
}

func TestDecodeTreeNodeRejects(t *testing.T) {
	const fanout = 16
	good := AppendTreeNode(nil, TreeNode{
		Stripe: 1, Depth: 3, Level: 1, Path: 5,
		Bitmap: make([]byte, TreeBitmapLen(fanout)),
	})
	cases := map[string][]byte{
		"empty":      nil,
		"truncated":  good[:len(good)-1],
		"bad stripe": AppendTreeNode(nil, TreeNode{Stripe: 99, Depth: 3, Level: 1, Bitmap: make([]byte, 2)}),
		"level at depth": AppendTreeNode(nil, TreeNode{
			Stripe: 1, Depth: 3, Level: 3, Bitmap: make([]byte, 2)}),
		"path beyond level": AppendTreeNode(nil, TreeNode{
			Stripe: 1, Depth: 3, Level: 1, Path: 16, Bitmap: make([]byte, 2)}),
	}
	for name, buf := range cases {
		if _, _, err := DecodeTreeNode(buf, fanout, 32, nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// Padding bits beyond the fan-out must be zero (fanout 2: 6 spare bits).
	pad := AppendTreeNode(nil, TreeNode{Stripe: 1, Depth: 3, Level: 1, Path: 1,
		Bitmap: []byte{0x80}})
	if _, _, err := DecodeTreeNode(pad, 2, 32, nil); err == nil {
		t.Error("padding bits set: decoded without error")
	}
}

func TestLeafRunRoundtrip(t *testing.T) {
	st := testStamp(t)
	run := LeafRun{
		Stripe: 7, Depth: 3, Level: 3, Path: 0x123,
		Digests: []Digest{{Key: "a", Stamp: st}, {Key: "bb", Stamp: st}},
	}
	buf := AppendLeafRun(nil, run)
	got, used, err := DecodeLeafRun(buf, 16, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(buf) {
		t.Fatalf("used %d of %d bytes", used, len(buf))
	}
	if got.Stripe != run.Stripe || got.Depth != run.Depth ||
		got.Level != run.Level || got.Path != run.Path {
		t.Fatalf("coords: got %+v", got)
	}
	if len(got.Digests) != 2 || got.Digests[0].Key != "a" || got.Digests[1].Key != "bb" {
		t.Fatalf("digests: got %v", got.Digests)
	}
	for _, d := range got.Digests {
		if !d.Stamp.Leq(st) || !st.Leq(d.Stamp) {
			t.Fatalf("digest %q stamp did not round-trip", d.Key)
		}
	}
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
// unbounded memory (hash counts are pinned to the bitmap's population).
// Decoded through a small window, it must read the same node or fail with
// the same error.
func FuzzDecodeTreeNode(f *testing.F) {
	bm := make([]byte, TreeBitmapLen(16))
	BitmapSet(bm, 3)
	f.Add(AppendTreeNode(nil, TreeNode{Stripe: 1, Depth: 3, Level: 1, Path: 2,
		Bitmap: bm, Hashes: []uint64{42}}), 16, 32)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 64, 65536)
	f.Add([]byte{0}, 2, 1)
	f.Fuzz(func(t *testing.T, data []byte, fanout, maxStripe int) {
		node, used, err := DecodeTreeNode(data, fanout, maxStripe, nil)
		wnode, wused, werr := decodeThroughWindow(data, 5, func(b []byte) (TreeNode, int, error) {
			return DecodeTreeNode(b, fanout, maxStripe, nil)
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
		if len(node.Bitmap) != TreeBitmapLen(fanout) {
			t.Fatalf("bitmap length %d for fanout %d", len(node.Bitmap), fanout)
		}
		pop := 0
		for c := 0; c < fanout; c++ {
			if BitmapGet(node.Bitmap, c) {
				pop++
			}
		}
		if len(node.Hashes) != pop {
			t.Fatalf("%d hashes for %d set bits", len(node.Hashes), pop)
		}
	})
}

// FuzzDecodeLeafRun feeds hostile bytes to the leaf-run decoder: declared
// digest counts must never make it allocate past the input's own size. Each
// input is decoded twice, once copying every key and once resolving keys
// against a local run derived from the input — unsorted, with duplicates,
// partly matching or reversed — and both must return the same digests,
// length and error, with no key aliasing the input, and so must a decode
// through a small window.
func FuzzDecodeLeafRun(f *testing.F) {
	st := core.Seed().Update()
	f.Add([]byte{1, 3, 3, 0, 0}, 16, 32)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0}, 2, 4)
	f.Add(AppendLeafRun(nil, LeafRun{Stripe: 1, Depth: 2, Level: 2, Path: 9, Digests: []Digest{
		{Key: "k1", Stamp: st}, {Key: "k2", Stamp: st}, {Key: "k1", Stamp: st}, {Key: "zz", Stamp: st}}}), 16, 32)
	f.Fuzz(func(t *testing.T, data []byte, fanout, maxStripe int) {
		run, used, err := DecodeLeafRun(data, fanout, maxStripe, nil)
		if err == nil {
			if used <= 0 || used > len(data) {
				t.Fatalf("used %d of %d bytes", used, len(data))
			}
			if len(run.Digests) > len(data) {
				t.Fatalf("%d digests out of %d input bytes", len(run.Digests), len(data))
			}
		}
		mine := fuzzLocalRun(run.Digests, data)
		input := slices.Clone(data)
		local := func(stripe, level int, path uint64) []Digest {
			if err == nil && (stripe != run.Stripe || level != run.Level || path != run.Path) {
				t.Fatalf("local asked for (%d, %d, %#x), run is at (%d, %d, %#x)",
					stripe, level, path, run.Stripe, run.Level, run.Path)
			}
			return mine
		}
		run2, used2, err2 := DecodeLeafRun(input, fanout, maxStripe, local)
		clear(input) // a key that aliased the input would change here
		if fmt.Sprint(err) != fmt.Sprint(err2) || used != used2 {
			t.Fatalf("resolving decode: %d bytes, error %v; copying decode: %d bytes, error %v", used2, err2, used, err)
		}
		run3, used3, err3 := decodeThroughWindow(data, 7, func(b []byte) (LeafRun, int, error) {
			return DecodeLeafRun(b, fanout, maxStripe, nil)
		})
		if fmt.Sprint(err) != fmt.Sprint(err3) || used != used3 {
			t.Fatalf("decode through a window: %d bytes, error %v; whole: %d bytes, error %v", used3, err3, used, err)
		}
		for _, other := range []LeafRun{run2, run3} {
			if len(other.Digests) != len(run.Digests) {
				t.Fatalf("%d digests, copying decode %d", len(other.Digests), len(run.Digests))
			}
			for i, d := range other.Digests {
				if want := run.Digests[i]; d.Key != want.Key || !d.Stamp.Equal(want.Stamp) {
					t.Fatalf("digest %d: %q, copying decode %q", i, d.Key, want.Key)
				}
			}
		}
	})
}

// fuzzLocalRun derives a receiver's run from a decoded one (or, when the
// input did not decode, from snippets of the input), shaped by the input's
// length: as decoded, sorted with every digest twice, every other digest
// plus a key the run lacks, or reversed.
func fuzzLocalRun(ds []Digest, data []byte) []Digest {
	local := slices.Clone(ds)
	if len(local) == 0 {
		for i := 0; i < len(data) && i < 8; i++ {
			local = append(local, Digest{Key: string(data[i:min(i+3, len(data))])})
		}
	}
	byPos := func(a, b Digest) int {
		return cmp.Or(cmp.Compare(TreePos(a.Key), TreePos(b.Key)), strings.Compare(a.Key, b.Key))
	}
	switch len(data) % 4 {
	case 1:
		local = append(local, local...)
		slices.SortFunc(local, byPos)
	case 2:
		var half []Digest
		for i := 0; i < len(local); i += 2 {
			half = append(half, local[i])
		}
		local = append(half, Digest{Key: "not-in-the-run"})
		slices.SortFunc(local, byPos)
	case 3:
		slices.Reverse(local)
	}
	for i := range local {
		local[i].Key = strings.Clone(local[i].Key)
	}
	return local
}
