package antientropy

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// fuzzWindow is the window the result fuzzer reads frames through: small, so
// most elements are cut at its end and some are longer than it.
const fuzzWindow = 16

// FuzzDecodeResultFrame feeds hostile bytes to the result decoder, read
// through a small window: it must error or return a reply, never panic, and
// the restamp and entry counts it preallocates for must stay within what the
// body can hold (capCount). A second decode resolves keys against strings
// held apart from the body — every other key the first decode named, while
// a lying resolver answers the rest with other bytes — and must return the
// same reply and error.
func FuzzDecodeResultFrame(f *testing.F) {
	s, _ := core.Seed().Update().Fork()
	f.Add(resultBody(f, kvstore.SyncResult{Transferred: 1, Reconciled: 1, Conflicts: []string{"c"}},
		kvstore.DeltaReply{
			Restamps: []encoding.Digest{{Key: "a", Stamp: s}},
			Entries:  []encoding.Entry{{Key: "b", Value: []byte("v"), Stamp: s}, {Key: "d", Deleted: true, Stamp: s}},
		}))
	f.Add([]byte{0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		res, reply, err := decodeResultThrough(body, fuzzWindow, nil)
		if cap(reply.Restamps) > len(body) || cap(reply.Entries) > len(body) {
			t.Fatalf("preallocated %d restamps and %d entries for a %d-byte body",
				cap(reply.Restamps), cap(reply.Entries), len(body))
		}
		held := map[string]string{}
		for i, k := range resultKeys(res, reply) {
			if i%2 == 0 {
				held[k] = strings.Clone(k)
			}
		}
		resolve := func(b []byte) (string, bool) {
			if k, ok := held[string(b)]; ok {
				return k, true
			}
			return string(b) + "?", true
		}
		res2, reply2, err2 := decodeResultThrough(slices.Clone(body), fuzzWindow, resolve)
		if fmt.Sprint(err) != fmt.Sprint(err2) {
			t.Fatalf("resolving decode: error %v, copying decode: %v", err2, err)
		}
		if got, want := resultKeys(res2, reply2), resultKeys(res, reply); !slices.Equal(got, want) {
			t.Fatalf("resolving decode names %q, copying decode %q", got, want)
		}
		for i, d := range reply2.Restamps {
			if !d.Stamp.Equal(reply.Restamps[i].Stamp) {
				t.Fatalf("restamp %q: stamps differ between decodes", d.Key)
			}
		}
		for i, e := range reply2.Entries {
			if want := reply.Entries[i]; !e.Stamp.Equal(want.Stamp) || !bytes.Equal(e.Value, want.Value) || e.Deleted != want.Deleted {
				t.Fatalf("entry %q differs between decodes", e.Key)
			}
		}
		if err != nil {
			return
		}
		// What decodes re-encodes to a frame that decodes the same way.
		res, reply2, err = decodeResultThrough(resultBody(t, kvstore.SyncResult{}, reply), fuzzWindow, nil)
		if err != nil || res.Transferred != 0 || reply2.Len() != reply.Len() {
			t.Fatalf("re-encoded reply of %d copies decodes to %d: %v", reply.Len(), reply2.Len(), err)
		}
	})
}

// resultKeys lists the keys a decoded result names: conflicts, restamps,
// then entries.
func resultKeys(res kvstore.SyncResult, reply kvstore.DeltaReply) []string {
	keys := slices.Clone(res.Conflicts)
	for _, d := range reply.Restamps {
		keys = append(keys, d.Key)
	}
	for _, e := range reply.Entries {
		keys = append(keys, e.Key)
	}
	return keys
}
