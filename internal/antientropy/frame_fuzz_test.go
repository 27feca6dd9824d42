package antientropy

import (
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// FuzzDecodeResultFrame feeds hostile bytes to the result decoder: it must
// error or return a reply, never panic, and the restamp and entry counts it
// preallocates for must stay within what the body can hold (capCount).
func FuzzDecodeResultFrame(f *testing.F) {
	s, _ := core.Seed().Update().Fork()
	frame := encodeResultFrame(nil, kvstore.SyncResult{Transferred: 1, Reconciled: 1, Conflicts: []string{"c"}},
		kvstore.DeltaReply{
			Restamps: []encoding.Digest{{Key: "a", Stamp: s}},
			Entries:  []encoding.Entry{{Key: "b", Value: []byte("v"), Stamp: s}, {Key: "d", Deleted: true, Stamp: s}},
		})
	f.Add(frame[lenSlot+1:])
	f.Add([]byte{0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		_, reply, err := decodeResultFrame(body)
		if cap(reply.Restamps) > len(body) || cap(reply.Entries) > len(body) {
			t.Fatalf("preallocated %d restamps and %d entries for a %d-byte body",
				cap(reply.Restamps), cap(reply.Entries), len(body))
		}
		if err != nil {
			return
		}
		// What decodes re-encodes to a frame that decodes the same way.
		res, reply2, err := decodeResultFrame(encodeResultFrame(nil, kvstore.SyncResult{}, reply)[lenSlot+1:])
		if err != nil || res.Transferred != 0 || reply2.Len() != reply.Len() {
			t.Fatalf("re-encoded reply of %d copies decodes to %d: %v", reply.Len(), reply2.Len(), err)
		}
	})
}
