package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
)

// Checkpoints: a stripe's label, shard layout and entries, in the
// length-prefixed entry codec with compact binary stamps, behind a leading
// version byte. The durable checkpoints are the format's only writer and
// reader: checkpointShardLocked writes it and loadShardCheckpoint reads it
// back, skipping the label (a data directory's label lives in its metadata).
// Anything else is rejected.
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

// encodeBinarySnapshot builds the binary snapshot document from already
// collected entries — the checkpoint paths, which hold the stripe lock
// themselves.
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

// checkpointEntry is one entry of a binary snapshot as the checkpoint loader
// sees it: metadata plus the value's location within the snapshot bytes
// (valOff -1 for tombstones), never the value itself.
type checkpointEntry struct {
	key     string
	deleted bool
	stamp   core.Stamp
	valOff  int // offset of the value bytes within the snapshot, -1 if none
	valLen  int
}

// decodeBinarySnapshotMeta walks a binary snapshot calling fn per entry
// without copying any value bytes — the one decoder of the format. It checks
// the version byte, the header's bounds and that the keys ascend strictly, as
// encodeBinarySnapshot writes them (a cold index is searched by key), and
// skips the label. An error fn returns is returned as it is.
func decodeBinarySnapshotMeta(data []byte, fn func(checkpointEntry) error) error {
	if len(data) == 0 || data[0] != binarySnapshotVersion {
		return fmt.Errorf("not a binary snapshot")
	}
	off := 1
	n, used := binary.Uvarint(data[off:])
	if used <= 0 || n > 1<<16 {
		return fmt.Errorf("bad label length")
	}
	off += used
	if uint64(len(data)-off) < n {
		return fmt.Errorf("truncated label")
	}
	off += int(n)
	shards64, used := binary.Uvarint(data[off:])
	if used <= 0 || shards64 > maxSnapshotShards {
		return fmt.Errorf("bad shard count")
	}
	off += used
	count, used := binary.Uvarint(data[off:])
	if used <= 0 || count > maxSnapshotEntries {
		return fmt.Errorf("bad entry count")
	}
	off += used
	var prev string
	for i := uint64(0); i < count; i++ {
		e, valOff, valLen, used, err := encoding.DecodeEntryMeta(data[off:])
		if err != nil {
			return fmt.Errorf("entry %d: %w", i, err)
		}
		if i > 0 && e.Key <= prev {
			return fmt.Errorf("entry %d: key %q not after %q", i, e.Key, prev)
		}
		prev = e.Key
		m := checkpointEntry{key: e.Key, deleted: e.Deleted, stamp: e.Stamp, valOff: -1}
		if valOff >= 0 {
			m.valOff, m.valLen = off+valOff, valLen
		}
		off += used
		if err := fn(m); err != nil {
			return err
		}
	}
	if off != len(data) {
		return fmt.Errorf("%d trailing bytes", len(data)-off)
	}
	return nil
}
