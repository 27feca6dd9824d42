package kvstore

import (
	"bytes"
	"testing"
)

// FuzzRestore feeds Restore mutated snapshots — truncations, bit flips and
// arbitrary bytes. The contract under test is the satellite bugfix: corrupt
// input must produce an error, never a panic, an unbounded allocation (the
// stripe-count bound) or a silently mis-loaded replica. Whatever loads must
// round-trip through Snapshot and Restore again.
func FuzzRestore(f *testing.F) {
	seedReplica := NewReplicaShards("fuzz-seed", 4)
	seedReplica.Put("alpha", []byte("one"))
	seedReplica.Put("beta", []byte("two"))
	seedReplica.Delete("beta")
	clone := seedReplica.Clone("fuzz-clone") // forked stamps, bushier tries

	for _, r := range []*Replica{seedReplica, clone} {
		if snap, err := r.Snapshot(); err == nil {
			f.Add(snap)
			f.Add(snap[:len(snap)/2]) // truncated
			f.Add(append(snap, 0x01)) // trailing bytes
			mutated := bytes.Clone(snap)
			mutated[len(mutated)/3] ^= 0x40 // flipped mid-document
			f.Add(mutated)
			f.Add(snap[:2*len(snap)/3]) // truncated inside a later entry
			foreign := bytes.Clone(snap)
			foreign[0] = '{' // not this format's version byte
			f.Add(foreign)
		}
	}
	// Hostile layout: empty label, 2^30 stripes, no entries.
	f.Add([]byte{binarySnapshotVersion, 0x00, 0x80, 0x80, 0x80, 0x80, 0x04, 0x00})
	f.Add([]byte{binarySnapshotVersion})
	f.Add([]byte{binarySnapshotVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Restore(data)
		if err != nil {
			return
		}
		if r.Shards() < 1 || r.Shards() > maxSnapshotShards {
			t.Fatalf("restored replica has %d stripes", r.Shards())
		}
		// A loaded snapshot must re-serialize and load back identically.
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatalf("snapshot of restored replica: %v", err)
		}
		again, err := Restore(snap)
		if err != nil {
			t.Fatalf("round-trip restore: %v", err)
		}
		ka, kb := r.Keys(), again.Keys()
		if len(ka) != len(kb) {
			t.Fatalf("round trip changed key count: %d -> %d", len(ka), len(kb))
		}
		for i, k := range ka {
			va, _ := r.Version(k)
			vb, _ := again.Version(kb[i])
			if k != kb[i] || va.Deleted != vb.Deleted ||
				!bytes.Equal(va.Value, vb.Value) || !va.Stamp.Equal(vb.Stamp) {
				t.Fatalf("round trip changed key %q", k)
			}
		}
	})
}
