package antientropy

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// fuzzWindow is the window the frame fuzzers read frames through: small, so
// most elements are cut at its end and some are longer than it.
const fuzzWindow = 16

// FuzzDecodeResultFrame feeds hostile bytes to the result decoder of a round
// of needs needs and digests shipped digests, read through a small window: it
// must error or return a reply, never panic, and the restamp and entry
// counts it preallocates for must stay within what the body can hold
// (capCount). What it returns names each restamp by a need ordinal and each
// entry by a digest ordinal or its key, every list of ordinals ascending and
// in range; it decodes the same read whole, and re-encodes to a frame that
// decodes the same way.
func FuzzDecodeResultFrame(f *testing.F) {
	s, _ := core.Seed().Update().Fork()
	f.Add(uint16(4), uint16(9), resultBody(f, kvstore.SyncResult{Transferred: 1, Reconciled: 1, Conflicts: []string{"c"}},
		kvstore.DeltaReply{
			Restamps: []encoding.Digest{{Stamp: s}},
			Entries:  []encoding.Entry{{Value: []byte("v"), Stamp: s}, {Key: "d", Deleted: true, Stamp: s}},
		}, replyRefs{restamps: []int{2}, entries: []int{5, -1}}))
	f.Add(uint16(1), uint16(1), []byte{0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1})
	f.Add(uint16(3), uint16(3), []byte{0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1})
	f.Add(uint16(0), uint16(0), []byte{})
	f.Add(uint16(8), uint16(8), []byte{0, 1, 0, 0, 0, 2, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, needs, digests uint16, body []byte) {
		res, reply, refs, err := decodeResultThrough(body, fuzzWindow, int(needs), int(digests))
		if cap(reply.Restamps) > len(body) || cap(reply.Entries) > len(body) {
			t.Fatalf("preallocated %d restamps and %d entries for a %d-byte body",
				cap(reply.Restamps), cap(reply.Entries), len(body))
		}
		res2, reply2, refs2, err2 := decodeResultThrough(slices.Clone(body), maxFrame, int(needs), int(digests))
		if fmt.Sprint(err) != fmt.Sprint(err2) || !sameResult(res, reply, refs, res2, reply2, refs2) {
			t.Fatalf("decoded whole: %v; through the window: %v", err2, err)
		}
		if err != nil {
			return
		}
		if len(refs.restamps) != len(reply.Restamps) || len(refs.entries) != len(reply.Entries) {
			t.Fatalf("%d restamps and %d entries named by %d and %d references",
				len(reply.Restamps), len(reply.Entries), len(refs.restamps), len(refs.entries))
		}
		for i, ord := range refs.restamps {
			if ord >= int(needs) || i > 0 && ord <= refs.restamps[i-1] {
				t.Fatalf("restamp need ordinals %v of %d needs", refs.restamps, needs)
			}
		}
		last := -1
		for i, ord := range refs.entries {
			if ord >= 0 && (ord >= int(digests) || ord <= last || reply.Entries[i].Key != "") {
				t.Fatalf("entry %d: digest ordinal %d after %d of %d digests, key %q", i, ord, last, digests, reply.Entries[i].Key)
			}
			last = max(last, ord)
		}
		// What decodes re-encodes to a frame that decodes the same way.
		res2, reply2, refs2, err = decodeResultThrough(resultBody(t, res, reply, refs), fuzzWindow, int(needs), int(digests))
		if err != nil || !sameResult(res, reply, refs, res2, reply2, refs2) {
			t.Fatalf("re-encoded reply of %d copies decodes differently: %v", reply.Len(), err)
		}
	})
}

// sameResult reports whether two decoded results are the same.
func sameResult(res kvstore.SyncResult, reply kvstore.DeltaReply, refs replyRefs,
	res2 kvstore.SyncResult, reply2 kvstore.DeltaReply, refs2 replyRefs) bool {
	if fmt.Sprint(res) != fmt.Sprint(res2) || !slices.Equal(refs.restamps, refs2.restamps) ||
		!slices.Equal(refs.entries, refs2.entries) || len(reply.Restamps) != len(reply2.Restamps) ||
		len(reply.Entries) != len(reply2.Entries) {
		return false
	}
	for i, d := range reply.Restamps {
		if !d.Stamp.Equal(reply2.Restamps[i].Stamp) {
			return false
		}
	}
	for i, e := range reply.Entries {
		if !sameEntry(e, reply2.Entries[i]) {
			return false
		}
	}
	return true
}

func sameEntry(a, b encoding.Entry) bool {
	return a.Key == b.Key && a.Deleted == b.Deleted && bytes.Equal(a.Value, b.Value) && a.Stamp.Equal(b.Stamp)
}

// FuzzDecodeEntriesFrame feeds hostile bytes to the server's decode of an
// entries frame against a list of needs needs, read through a small window.
// It must error or return entries, never panic, preallocate no more entries
// than the body has bytes, and decode the same read whole. What it returns
// is a subsequence of the needs, each under its need's key, and under its
// need's stamp where its body carried none.
func FuzzDecodeEntriesFrame(f *testing.F) {
	s := core.Seed().Update()
	f.Add(uint8(3), append(encoding.AppendEntryBody(encoding.AppendVanishedBody([]byte{3}),
		encoding.Entry{Value: []byte("v"), Stamp: s}, false), encoding.AppendEntryBody(nil, encoding.Entry{Deleted: true, Stamp: s.Update()}, true)...))
	f.Add(uint8(1), []byte{1, 0, 0x80})
	f.Add(uint8(2), []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(uint8(0), []byte{0})
	f.Fuzz(func(t *testing.T, needs uint8, body []byte) {
		stamps := []core.Stamp{core.Seed(), s}
		need := make([]encoding.Digest, needs)
		for i := range need {
			need[i] = encoding.Digest{Key: fmt.Sprint("need-", i), Stamp: stamps[i%2]}
		}
		decode := func(window int) ([]encoding.Entry, error) {
			fr := readerOver(appendFrame(nil, kindEntries, body), window)
			if _, err := fr.next(); err != nil {
				return nil, err
			}
			entries, err := decodeEntriesOf(fr, need)
			if err == nil && fr.remaining() != 0 {
				err = fmt.Errorf("%d trailing bytes", fr.remaining())
			}
			return entries, err
		}
		entries, err := decode(fuzzWindow)
		if cap(entries) > len(body) {
			t.Fatalf("preallocated %d entries for a %d-byte body", cap(entries), len(body))
		}
		whole, errWhole := decode(maxFrame)
		if fmt.Sprint(err) != fmt.Sprint(errWhole) || len(whole) != len(entries) {
			t.Fatalf("decoded whole: %d entries, %v; through the window: %d, %v", len(whole), errWhole, len(entries), err)
		}
		rest := need
		for i, e := range entries {
			if !sameEntry(e, whole[i]) {
				t.Fatalf("entry %q decodes differently whole", e.Key)
			}
			for len(rest) > 0 && rest[0].Key != e.Key {
				rest = rest[1:]
			}
			if len(rest) == 0 {
				t.Fatalf("entry %q is not a need, or out of need order", e.Key)
			}
			rest = rest[1:]
		}
	})
}
