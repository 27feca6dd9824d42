package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"testing"

	"versionstamp/internal/storage/wal"
)

// FuzzLoadCheckpoint feeds the same bytes, as stripe 0's checkpoint, to the
// hot loader and the paged loader — real checkpoints and their truncations,
// bit flips and arbitrary bytes. Corrupt input must produce an error, never a
// panic or an unbounded allocation (the header bounds), and both loaders
// must refuse it with the same kind of error. Whatever loads must load alike:
// the same keys, tombstone flags, stamps and values, and the same tombstone
// ledger, with the hot stripe holding copies of the value bytes.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	r, err := openPaged(dir, 2)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		r.Put(fmt.Sprintf("key-%02d", i), fmt.Appendf(nil, "value %d", i))
	}
	for _, k := range r.Keys() {
		if ShardIndex(k, 2) == 0 {
			r.Delete(k)
			break
		}
	}
	checkpoint := func() []byte {
		if err := r.Checkpoint(); err != nil {
			f.Fatal(err)
		}
		gen, _ := r.backend.CheckpointRegion(0)
		snap, err := r.backend.CheckpointPayload(0, gen)
		if err != nil {
			f.Fatal(err)
		}
		return snap
	}
	plain := checkpoint()
	r.Clone("fuzz-clone") // forks the source's stamps too: bushier tries
	for _, snap := range [][]byte{plain, checkpoint()} {
		f.Add(snap)
		f.Add(snap[:len(snap)/2])              // truncated
		f.Add(append(bytes.Clone(snap), 0x01)) // one trailing byte
		mutated := bytes.Clone(snap)
		mutated[len(mutated)/3] ^= 0x40 // flipped mid-document
		f.Add(mutated)
		f.Add(snap[:2*len(snap)/3]) // truncated inside a later entry
		foreign := bytes.Clone(snap)
		foreign[0] = '{' // not this format's version byte
		f.Add(foreign)
	}
	if err := r.Close(); err != nil {
		f.Fatal(err)
	}
	// Hostile layout: empty label, 2^30 stripes, no entries.
	f.Add([]byte{binarySnapshotVersion, 0x00, 0x80, 0x80, 0x80, 0x80, 0x04, 0x00})
	f.Add([]byte{binarySnapshotVersion})
	f.Add([]byte{binarySnapshotVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		hot, paged := NewReplicaShards("hot", 2), NewReplicaShards("paged", 2)
		paged.paged = true
		own := bytes.Clone(data)
		herr, perr := hot.loadShardCheckpoint(0, own), paged.loadShardCheckpoint(0, data)
		clear(own)
		if herr != nil || perr != nil {
			var hc, pc *wal.CorruptError
			if herr == nil || perr == nil || errors.As(herr, &hc) != errors.As(perr, &pc) ||
				herr.Error() != perr.Error() {
				t.Fatalf("hot load: %v; paged load: %v", herr, perr)
			}
			return
		}
		hs, ps := &hot.shards[0], &paged.shards[0]
		if !maps.Equal(hs.tombs, ps.tombs) {
			t.Fatalf("tombstone ledgers differ: hot %v, paged %v", hs.tombs, ps.tombs)
		}
		hotKeys := make(map[string]Versioned)
		hs.eachLocked(func(k string, v Versioned, _ int) { hotKeys[k] = v })
		for x := 1; x < len(hs.keys); x++ {
			if cmpTreeOrder(hs.keys[x-1].Key, hs.keys[x].Key) >= 0 {
				t.Fatalf("hot base out of tree order at %d: %q, %q", x, hs.keys[x-1].Key, hs.keys[x].Key)
			}
		}
		cs := ps.cold
		if cs == nil {
			if len(hotKeys) != 0 {
				t.Fatalf("hot load holds %d keys, paged none", len(hotKeys))
			}
			return
		}
		if len(hotKeys) != cs.count() {
			t.Fatalf("hot load holds %d keys, paged %d", len(hotKeys), cs.count())
		}
		for k, v := range hotKeys {
			x := cs.find(k)
			if x < 0 {
				t.Fatalf("key %q loads hot but cannot be found in the cold index", k)
			}
			value := data[cs.offs[x] : cs.offs[x]+int64(cs.lens[x])]
			if v.Deleted != cs.deleted[x] || !v.Stamp.Equal(cs.stamps[x]) || !bytes.Equal(v.Value, value) {
				t.Fatalf("key %q: hot %+v, paged deleted %v stamp %v value %q",
					k, v, cs.deleted[x], cs.stamps[x], value)
			}
		}
	})
}
