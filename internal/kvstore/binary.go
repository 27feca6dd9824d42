package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
)

// Snapshots: a replica's label, shard layout and entries, in the
// length-prefixed entry codec with compact binary stamps, behind a leading
// version byte. This is the one snapshot format — Snapshot, Restore and the
// durable checkpoints all use it — and anything else is rejected.
//
//	snapshot := version-byte uvarint(len(label)) label uvarint(shards)
//	            uvarint(count) entry*

// binarySnapshotVersion tags the snapshot format.
const binarySnapshotVersion = 0x02

// maxSnapshotEntries bounds the entry count a decoder will pre-trust.
const maxSnapshotEntries = 1 << 31

// maxSnapshotShards bounds a snapshot's recorded stripe count: a corrupt or
// hostile layout field must not force allocating millions of stripes.
const maxSnapshotShards = 1 << 16

// Snapshot serializes the replica (label, shard layout and all entries
// including tombstones) for durable storage; Restore loads it back.
// Together they support crash/restart testing. Each stripe is read
// atomically; the snapshot is a per-key-consistent view. Paged stripes fault
// their cold values in (through the cache, without promoting them) — a
// snapshot is a full copy by definition.
func (r *Replica) Snapshot() ([]byte, error) {
	var entries []encoding.Entry
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for k, v := range sh.data {
			entries = append(entries, encoding.Entry{
				Key: k, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp,
			})
		}
		if cs := sh.cold; cs != nil {
			for x := 0; x < cs.count(); x++ {
				if cs.dropped[x] {
					continue
				}
				k := cs.key(x)
				if _, shadowed := sh.data[k]; shadowed {
					continue
				}
				e := encoding.Entry{Key: k, Deleted: cs.deleted[x], Stamp: cs.stamps[x]}
				if !e.Deleted {
					buf, err := r.coldValue(i, cs, x, k)
					if err != nil {
						sh.mu.RUnlock()
						return nil, fmt.Errorf("kvstore: snapshot shard %d: %w", i, err)
					}
					e.Value = buf
				}
				entries = append(entries, e)
			}
		}
		sh.mu.RUnlock()
	}
	return encodeBinarySnapshot(r.label, len(r.shards), entries), nil
}

// encodeBinarySnapshot builds the binary snapshot document from already
// collected entries — shared by Snapshot and the durable checkpoint
// path, which holds the stripe lock itself.
func encodeBinarySnapshot(label string, shards int, entries []encoding.Entry) []byte {
	sort.Slice(entries, func(a, b int) bool { return entries[a].Key < entries[b].Key })
	out := []byte{binarySnapshotVersion}
	out = binary.AppendUvarint(out, uint64(len(label)))
	out = append(out, label...)
	out = binary.AppendUvarint(out, uint64(shards))
	out = binary.AppendUvarint(out, uint64(len(entries)))
	for _, e := range entries {
		out = encoding.AppendEntry(out, e)
	}
	return out
}

// decodeBinarySnapshot parses a binary snapshot document (data starts at
// the already-verified version byte) into its label, recorded stripe count
// and flat entry list.
func decodeBinarySnapshot(data []byte) (label string, shards int, entries []encoding.Entry, err error) {
	off := 1
	n, used := binary.Uvarint(data[off:])
	if used <= 0 || n > 1<<16 {
		return "", 0, nil, fmt.Errorf("kvstore: restore: bad label length")
	}
	off += used
	if uint64(len(data)-off) < n {
		return "", 0, nil, fmt.Errorf("kvstore: restore: truncated label")
	}
	label = string(data[off : off+int(n)])
	off += int(n)
	shards64, used := binary.Uvarint(data[off:])
	if used <= 0 || shards64 > maxSnapshotShards {
		return "", 0, nil, fmt.Errorf("kvstore: restore: bad shard count")
	}
	off += used
	count, used := binary.Uvarint(data[off:])
	if used <= 0 || count > maxSnapshotEntries {
		return "", 0, nil, fmt.Errorf("kvstore: restore: bad entry count")
	}
	off += used
	entries = make([]encoding.Entry, 0, capEntries(count, data[off:]))
	for i := uint64(0); i < count; i++ {
		e, used, err := encoding.DecodeEntry(data[off:])
		if err != nil {
			return "", 0, nil, fmt.Errorf("kvstore: restore entry %d: %w", i, err)
		}
		off += used
		entries = append(entries, e)
	}
	if off != len(data) {
		return "", 0, nil, fmt.Errorf("kvstore: restore: %d trailing bytes", len(data)-off)
	}
	return label, int(shards64), entries, nil
}

// coldEntryMeta is one entry of a binary snapshot as the paged loader sees
// it: metadata plus the value's location within the snapshot bytes (valOff
// -1 for tombstones), never the value itself.
type coldEntryMeta struct {
	key     string
	deleted bool
	stamp   core.Stamp
	valOff  int // offset of the value bytes within the snapshot, -1 if none
	valLen  int
}

// decodeBinarySnapshotMeta walks a binary snapshot (data starts at the
// already-verified version byte) calling fn per entry without copying any
// value bytes — the decoder behind cold stripe indexes. Layout checks mirror
// decodeBinarySnapshot.
func decodeBinarySnapshotMeta(data []byte, fn func(coldEntryMeta) error) error {
	off := 1
	n, used := binary.Uvarint(data[off:])
	if used <= 0 || n > 1<<16 {
		return fmt.Errorf("kvstore: restore: bad label length")
	}
	off += used
	if uint64(len(data)-off) < n {
		return fmt.Errorf("kvstore: restore: truncated label")
	}
	off += int(n)
	shards64, used := binary.Uvarint(data[off:])
	if used <= 0 || shards64 > maxSnapshotShards {
		return fmt.Errorf("kvstore: restore: bad shard count")
	}
	off += used
	count, used := binary.Uvarint(data[off:])
	if used <= 0 || count > maxSnapshotEntries {
		return fmt.Errorf("kvstore: restore: bad entry count")
	}
	off += used
	for i := uint64(0); i < count; i++ {
		e, valOff, valLen, used, err := encoding.DecodeEntryMeta(data[off:])
		if err != nil {
			return fmt.Errorf("kvstore: restore entry %d: %w", i, err)
		}
		m := coldEntryMeta{key: e.Key, deleted: e.Deleted, stamp: e.Stamp, valOff: -1}
		if valOff >= 0 {
			m.valOff, m.valLen = off+valOff, valLen
		}
		off += used
		if err := fn(m); err != nil {
			return err
		}
	}
	if off != len(data) {
		return fmt.Errorf("kvstore: restore: %d trailing bytes", len(data)-off)
	}
	return nil
}

// capEntries bounds a wire-supplied entry count by the bytes present (every
// encoded entry consumes at least one byte), so a hostile count prefix
// cannot force a huge preallocation.
func capEntries(count uint64, rest []byte) int {
	if count > uint64(len(rest)) {
		return len(rest)
	}
	return int(count)
}

// Restore deserializes a snapshot into a fresh replica with the stripe
// layout recorded in the snapshot.
func Restore(data []byte) (*Replica, error) {
	if len(data) == 0 || data[0] != binarySnapshotVersion {
		return nil, fmt.Errorf("kvstore: restore: not a snapshot")
	}
	label, shards, entries, err := decodeBinarySnapshot(data)
	if err != nil {
		return nil, err
	}
	if shards < 1 {
		shards = DefaultShards
	}
	r := NewReplicaShards(label, shards)
	for _, e := range entries {
		sh := r.shardFor(e.Key)
		sh.data[e.Key] = Versioned{Value: e.Value, Deleted: e.Deleted, Stamp: e.Stamp}
		if e.Deleted {
			sh.tombs[e.Key] = 0
		}
	}
	return r, nil
}
