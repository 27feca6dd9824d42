package antientropy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// appendFrame appends the frame [uvarint length][kind][body].
func appendFrame(dst []byte, kind byte, body []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(body))+1)
	dst = append(dst, kind)
	return append(dst, body...)
}

// writeRoot sends a kindRoot or kindRootProbe frame.
func writeRoot(fw *frameWriter, kind byte, of int, root uint64) error {
	beginRoot(fw, kind, of, root)
	return fw.end()
}

// writeResultFrame sends the kindResult frame for res and reply.
func writeResultFrame(fw *frameWriter, res kvstore.SyncResult, reply kvstore.DeltaReply) error {
	beginResult(fw, res, reply)
	return fw.end()
}

// expect reads the next frame's kind byte and checks it is kind (is).
func (fr *frameReader) expect(kind byte) error {
	got, err := fr.next()
	if err != nil {
		return err
	}
	return fr.is(got, kind)
}

// readFrame reads a whole frame through fr: its kind byte and the body
// after it, valid until the next read.
func readFrame(fr *frameReader) (byte, []byte, error) {
	kind, err := fr.next()
	if err != nil {
		return 0, nil, err
	}
	body, err := fr.bytes(fr.remaining())
	return kind, body, err
}

// readerOver returns a reader of the frames in stream, through a window of
// the given size.
func readerOver(stream []byte, window int) *frameReader {
	return &frameReader{br: bufio.NewReader(bytes.NewReader(stream)), window: window}
}

// frameBody returns the body of the frame write sends, kind byte excluded.
func frameBody(t testing.TB, write func(fw *frameWriter) error) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := write(&frameWriter{w: &out}); err != nil {
		t.Fatal(err)
	}
	_, used := binary.Uvarint(out.Bytes())
	return out.Bytes()[used+1:]
}

// resultBody is the body of the kindResult frame for res and reply.
func resultBody(t testing.TB, res kvstore.SyncResult, reply kvstore.DeltaReply) []byte {
	return frameBody(t, func(fw *frameWriter) error { return writeResultFrame(fw, res, reply) })
}

// decodeResultThrough decodes a kindResult body read through a window of the
// given size.
func decodeResultThrough(body []byte, window int, known func(key []byte) (string, bool)) (kvstore.SyncResult, kvstore.DeltaReply, error) {
	fr := readerOver(appendFrame(nil, kindResult, body), window)
	if _, err := fr.next(); err != nil {
		return kvstore.SyncResult{}, kvstore.DeltaReply{}, err
	}
	return decodeResultFrame(fr, known)
}

// bulkFrame is one bulk frame kind's test body: the body, the offsets at
// which its elements end, and a decode of it that reads it the way a round
// reads that kind, element by element through the reader, and re-encodes
// what it read.
type bulkFrame struct {
	name   string
	kind   byte
	body   []byte
	bounds []int
	decode func(fr *frameReader) ([]byte, error)
}

// bodyParts appends a body's elements, noting where each ends.
type bodyParts struct {
	body   []byte
	bounds []int
}

func (b *bodyParts) add(elem []byte) {
	b.body = append(b.body, elem...)
	b.bounds = append(b.bounds, len(b.body))
}

// bulkFrames builds one frame of each bulk kind. Each holds small elements
// and, last but one, an element 1.5 times each window the test reads it
// through, where the kind's grammar allows one that long.
func bulkFrames(t *testing.T) []bulkFrame {
	stamps := []core.Stamp{core.Seed().Update()}
	for a, b := stamps[0].Fork(); len(stamps) < 6; a, b = a.Update().Fork() {
		stamps = append(stamps, a, b.Update())
	}
	stamp := func(i int) core.Stamp { return stamps[i%len(stamps)] }
	key := func(i, n int) string { return fmt.Sprintf("k%d-%s", i, strings.Repeat("x", n)) }
	bigs := []int{96, 1536, 3 * frameKeep / 2}
	uv := func(n int) []byte { return binary.AppendUvarint(nil, uint64(n)) }
	var frames []bulkFrame

	// Leaf digest runs (0x0E): a long run is many digests.
	var lb bodyParts
	var runs [][]byte
	for i := 0; i < 24; i++ {
		var ds []encoding.Digest
		for j := 0; j < i%4; j++ {
			ds = append(ds, encoding.Digest{Key: key(i*10+j, i%7), Stamp: stamp(i + j)})
		}
		runs = append(runs, encoding.AppendLeafRun(nil, encoding.LeafRun{Stripe: i % 8, Depth: 2, Level: 2, Path: uint64(i), Digests: ds}))
	}
	for _, size := range bigs {
		var ds []encoding.Digest
		for n := 0; n < size; n += encoding.DigestLen(ds[len(ds)-1]) {
			ds = append(ds, encoding.Digest{Key: key(len(ds), size/24), Stamp: stamp(len(ds))})
		}
		runs = append(runs, encoding.AppendLeafRun(nil, encoding.LeafRun{Stripe: 3, Depth: 1, Level: 1, Path: 5, Digests: ds}))
	}
	runs = append(runs, encoding.AppendLeafRun(nil, encoding.LeafRun{Stripe: 1, Depth: 1, Level: 0}))
	lb.add(uv(len(runs)))
	for _, r := range runs {
		lb.add(r)
	}
	frames = append(frames, bulkFrame{"leaf digests", kindLeafDigests, lb.body, lb.bounds, func(fr *frameReader) ([]byte, error) {
		n, err := fr.uvarint()
		out := binary.AppendUvarint(nil, n)
		for i := uint64(0); err == nil && i < n; i++ {
			var run encoding.LeafRun
			err = fr.elem(func(b []byte) (used int, err error) {
				run, used, err = encoding.DecodeLeafRun(b, 16, 8, nil)
				return used, err
			})
			out = encoding.AppendLeafRun(out, run)
		}
		return out, err
	}})

	// Needs (0x02): keys.
	var nb bodyParts
	var keys []string
	for i := 0; i < 30; i++ {
		keys = append(keys, key(i, i%9))
	}
	for _, size := range bigs {
		keys = append(keys, key(size, size))
	}
	keys = append(keys, "last")
	nb.add(uv(len(keys)))
	for _, k := range keys {
		nb.add(appendString(nil, k))
	}
	frames = append(frames, bulkFrame{"need", kindNeed, nb.body, nb.bounds, func(fr *frameReader) ([]byte, error) {
		n, err := fr.uvarint()
		out := binary.AppendUvarint(nil, n)
		for i := uint64(0); err == nil && i < n; i++ {
			var k string
			k, err = fr.str(nil)
			out = appendString(out, k)
		}
		return out, err
	}})

	// Entries (0x03): a long entry is a long value.
	var eb bodyParts
	var entries []encoding.Entry
	for i := 0; i < 30; i++ {
		entries = append(entries, encoding.Entry{Key: key(i, i%5), Value: bytes.Repeat([]byte{byte(i)}, i%11),
			Deleted: i%6 == 5, Stamp: stamp(i)})
	}
	for i, size := range bigs {
		entries = append(entries, encoding.Entry{Key: key(i, 1), Value: bytes.Repeat([]byte("v"), size), Stamp: stamp(i)})
	}
	entries = append(entries, encoding.Entry{Key: "last", Deleted: true, Stamp: stamp(1)})
	eb.add(uv(len(entries)))
	for _, e := range entries {
		eb.add(encoding.AppendEntry(nil, e))
	}
	frames = append(frames, bulkFrame{"entries", kindEntries, eb.body, eb.bounds, func(fr *frameReader) ([]byte, error) {
		n, err := fr.uvarint()
		out := binary.AppendUvarint(nil, n)
		for i := uint64(0); err == nil && i < n; i++ {
			var e encoding.Entry
			err = fr.elem(func(b []byte) (used int, err error) {
				e, used, err = encoding.DecodeEntry(b, nil)
				return used, err
			})
			out = encoding.AppendEntry(out, e)
		}
		return out, err
	}})

	// Result (0x04): counters, conflicts, restamps and entries, the body
	// writeResultFrame sends. Its bounds are the restamps' and entries'.
	var rb bodyParts
	res := kvstore.SyncResult{Transferred: 20, Reconciled: 7, Merged: 3, Pruned: 2, Conflicts: []string{"c1", "c2"}}
	var reply kvstore.DeltaReply
	for i := 0; i < 12; i++ {
		reply.Restamps = append(reply.Restamps, encoding.Digest{Key: key(i, i%4), Stamp: stamp(i)})
	}
	reply.Entries = entries
	body := resultBody(t, res, reply)
	rb.add(body[:len(body)-len(eb.body)+len(uv(len(entries)))])
	for _, e := range entries {
		rb.add(encoding.AppendEntry(nil, e))
	}
	if !bytes.Equal(rb.body, body) {
		t.Fatal("result body does not end in the entries")
	}
	frames = append(frames, bulkFrame{"result", kindResult, rb.body, rb.bounds, func(fr *frameReader) ([]byte, error) {
		res, reply, err := decodeResultFrame(fr, nil)
		if err != nil {
			return nil, err
		}
		return resultBody(t, res, reply), nil
	}})

	// Tree nodes (0x0C): a node is at most a bitmap and 16 hashes, so only
	// the smallest window sees one longer than itself.
	var tb bodyParts
	tb.add(uv(16))
	tb.add(uv(40))
	for i := 0; i < 40; i++ {
		bm := make([]byte, encoding.TreeBitmapLen(16))
		var hs []uint64
		for c := 0; c < 16; c++ {
			if (i+c)%(1+i%5) == 0 {
				encoding.BitmapSet(bm, c)
				hs = append(hs, uint64(i)<<32|uint64(c))
			}
		}
		tb.add(encoding.AppendTreeNode(nil, encoding.TreeNode{Stripe: i % 8, Depth: 3, Level: i % 3, Path: uint64(i % 3),
			Bitmap: bm, Hashes: hs}))
	}
	frames = append(frames, bulkFrame{"tree nodes", kindTreeNodes, tb.body, tb.bounds, func(fr *frameReader) ([]byte, error) {
		fanout, err := fr.uvarint()
		if err != nil || !encoding.ValidTreeShape(int(fanout), 1) {
			return nil, errors.New("bad fanout")
		}
		n, err := fr.uvarint()
		out := binary.AppendUvarint(binary.AppendUvarint(nil, fanout), n)
		var hashes []uint64
		for i := uint64(0); err == nil && i < n; i++ {
			var node encoding.TreeNode
			err = fr.elem(func(b []byte) (used int, err error) {
				node, used, err = encoding.DecodeTreeNode(b, int(fanout), 8, hashes[:0])
				return used, err
			})
			hashes = node.Hashes
			out = encoding.AppendTreeNode(out, node)
		}
		return out, err
	}})
	return frames
}

// decodeBulk reads stream's one frame through a window of the given size
// and decodes its body with decode, which must consume it exactly. It
// returns what decode printed, or the first error.
func decodeBulk(stream []byte, window int, decode func(fr *frameReader) ([]byte, error)) (string, error) {
	fr := readerOver(stream, window)
	if _, err := fr.next(); err != nil {
		return "", err
	}
	out, err := decode(fr)
	if err == nil && fr.remaining() != 0 {
		err = fmt.Errorf("%d trailing bytes", fr.remaining())
	}
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// TestFrameWindowMatchesWholeBody: decoding a bulk frame through the
// session's window must read exactly what decoding it whole does — the same
// elements and the same error text — at every window size, for a clean body,
// a body cut at every element boundary ±8 bytes, a stream that ends inside
// the frame, and a byte flipped at every boundary and 3 bytes before it. Every body
// holds an element 1.5 times the window long, which the reader must grow
// for and then drop.
func TestFrameWindowMatchesWholeBody(t *testing.T) {
	windows := []int{64, 1 << 10, frameKeep}
	for _, bf := range bulkFrames(t) {
		check := func(what string, stream []byte) {
			t.Helper()
			want, wantErr := decodeBulk(stream, maxFrame, bf.decode)
			for _, w := range windows {
				got, err := decodeBulk(stream, w, bf.decode)
				if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s, %s, %d-byte window: decoded %d bytes, %v; whole body %d bytes, %v",
						bf.name, what, w, len(got), err, len(want), wantErr)
				}
			}
		}
		clean := appendFrame(nil, bf.kind, bf.body)
		if out, err := decodeBulk(clean, maxFrame, bf.decode); err != nil || out != string(bf.body) {
			t.Fatalf("%s: clean body re-encodes to %d bytes of %d, %v", bf.name, len(out), len(bf.body), err)
		}
		check("clean", clean)
		check("stream ends inside the frame", clean[:len(clean)-len(bf.body)/3])
		seen := map[int]bool{}
		for _, b := range bf.bounds {
			for d := -8; d <= 8; d++ {
				at := b + d
				if at < 0 || at > len(bf.body) || seen[at] {
					continue
				}
				seen[at] = true
				check(fmt.Sprintf("cut at %d", at), appendFrame(nil, bf.kind, bf.body[:at]))
				if at < len(bf.body) && (d == 0 || d == -3) {
					flipped := bytes.Clone(bf.body)
					flipped[at] ^= 0x5A
					check(fmt.Sprintf("byte %d flipped", at), appendFrame(nil, bf.kind, flipped))
				}
			}
		}
	}
}

// writeRecorder records the size of every Write.
type writeRecorder struct {
	bytes.Buffer
	writes []int
}

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.writes = append(w.writes, len(p))
	return w.Buffer.Write(p)
}

// TestFrameWriterWindows: a frame goes out as the bytes a whole-frame
// encoding would be, in one Write when it is at most frameKeep bytes long
// and otherwise in Writes of at most a window each, but for an element
// longer than the window, which goes out in a Write of its own from a buffer
// the writer does not keep. A round that had a long frame drops the window.
func TestFrameWriterWindows(t *testing.T) {
	s, _ := core.Seed().Update().Fork()
	res := kvstore.SyncResult{Transferred: 3, Merged: 1, Conflicts: []string{"c"}}
	for _, values := range [][]int{{10, 20}, {frameKeep / 3, frameKeep / 3}, {frameKeep - 200, 900, frameKeep, 10}, {3 * frameKeep / 2, 7}} {
		var reply kvstore.DeltaReply
		reply.Restamps = []encoding.Digest{{Key: "r", Stamp: s}}
		body := []byte{3, 0, 1, 0, 1, 1, 'c', 1} // counters, one conflict, one restamp
		body = encoding.AppendDigest(body, reply.Restamps[0])
		long := false
		for i, n := range values {
			e := encoding.Entry{Key: fmt.Sprint("e", i), Value: bytes.Repeat([]byte{byte(i)}, n), Stamp: s}
			reply.Entries = append(reply.Entries, e)
			body = encoding.AppendEntry(body, e)
			long = long || encoding.EntryLen(e) > frameKeep
		}
		res.Reconciled = len(values) - 1
		body[1] = byte(res.Reconciled)
		var out writeRecorder
		fw := frameWriter{w: &out}
		if err := writeResultFrame(&fw, res, reply); err != nil {
			t.Fatal(err)
		}
		want := appendFrame(nil, kindResult, body)
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("values %v: wrote %d bytes, want the %d of the whole frame", values, out.Len(), len(want))
		}
		switch {
		case len(want) <= frameKeep && len(out.writes) != 1:
			t.Errorf("values %v: a %d-byte frame went out in %d Writes", values, len(want), len(out.writes))
		case len(want) > frameKeep && len(out.writes) < 2:
			t.Errorf("values %v: a %d-byte frame went out in one Write", values, len(want))
		}
		for _, n := range out.writes {
			if n > frameKeep && !long {
				t.Errorf("values %v: a %d-byte Write, window %d", values, n, frameKeep)
			}
		}
		if cap(fw.keep) > frameKeep {
			t.Errorf("values %v: the writer keeps %d bytes; cap is %d", values, cap(fw.keep), frameKeep)
		}
		if fw.trim(); (fw.keep == nil) != (len(want) > frameKeep) {
			t.Errorf("values %v: after a %d-byte frame the round's end kept %d bytes", values, len(want), cap(fw.keep))
		}
	}
}
