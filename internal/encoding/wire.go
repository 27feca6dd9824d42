package encoding

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"versionstamp/internal/core"
)

// This file defines the length-prefixed binary codec the delta anti-entropy
// protocol ships entries with. Both shapes end in the stamp's binary form
// (core.Stamp.AppendBinary), so a converged keyspace costs a few bytes per
// key on the wire instead of a JSON document with text stamps.
//
//	digest := uvarint(len(key)) key stamp
//	entry  := uvarint(len(key)) key flags [uvarint(len(value)) value] stamp
//
// flags bit 0 marks a tombstone; tombstones carry no value field.

// entryFlagDeleted marks a tombstone entry (no value field follows).
const entryFlagDeleted = 0x01

// maxKeyLen bounds decoded key sizes so a corrupt length prefix cannot force
// a huge allocation.
const maxKeyLen = 1 << 20

// maxValueLen bounds decoded value sizes for the same reason.
const maxValueLen = 1 << 30

// Digest is the phase-1 wire shape of one key: the key and its copy's stamp,
// no value. Comparing digests decides equivalence without moving data.
type Digest struct {
	Key   string
	Stamp core.Stamp
}

// Entry is the phase-2 wire shape of one key: the full stored copy.
type Entry struct {
	Key     string
	Value   []byte
	Deleted bool
	Stamp   core.Stamp
}

// DigestLen returns the length of AppendDigest's output for d, so a frame of
// digests can be sized before it is encoded.
func DigestLen(d Digest) int {
	return UvarintLen(uint64(len(d.Key))) + len(d.Key) + d.Stamp.BinaryLen()
}

// EntryLen returns the length of AppendEntry's output for e.
func EntryLen(e Entry) int {
	n := UvarintLen(uint64(len(e.Key))) + len(e.Key) + 1 + e.Stamp.BinaryLen()
	if !e.Deleted {
		n += UvarintLen(uint64(len(e.Value))) + len(e.Value)
	}
	return n
}

// UvarintLen returns the length of x's uvarint encoding.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// AppendDigest appends the length-prefixed binary form of d.
func AppendDigest(dst []byte, d Digest) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.Key)))
	dst = append(dst, d.Key...)
	return d.Stamp.AppendBinary(dst)
}

// DecodeDigest parses one digest from the front of data, returning the bytes
// consumed.
func DecodeDigest(data []byte) (Digest, int, error) {
	key, off, err := decodeKey(data)
	if err != nil {
		return Digest{}, 0, fmt.Errorf("encoding: digest: %w", err)
	}
	s, used, err := core.DecodeBinary(data[off:])
	if err != nil {
		return Digest{}, 0, fmt.Errorf("encoding: digest %q: %w", key, err)
	}
	return Digest{Key: key, Stamp: s}, off + used, nil
}

// AppendEntry appends the length-prefixed binary form of e.
func AppendEntry(dst []byte, e Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.Key)))
	dst = append(dst, e.Key...)
	if e.Deleted {
		dst = append(dst, entryFlagDeleted)
	} else {
		dst = append(dst, 0)
		dst = binary.AppendUvarint(dst, uint64(len(e.Value)))
		dst = append(dst, e.Value...)
	}
	return e.Stamp.AppendBinary(dst)
}

// DecodeEntryMeta parses one entry from the front of data like DecodeEntry,
// but does not copy the value bytes: the returned entry has a nil Value, and
// valOff/valLen locate the value field within data (valOff = -1 for
// tombstones, which encode none). This is the decoder of paged restarts —
// the caller keeps keys, stamps and value locations resident and leaves the
// bytes where they are.
func DecodeEntryMeta(data []byte) (e Entry, valOff, valLen, used int, err error) {
	key, off, err := decodeKey(data)
	if err != nil {
		return Entry{}, 0, 0, 0, fmt.Errorf("encoding: entry: %w", err)
	}
	if off >= len(data) {
		return Entry{}, 0, 0, 0, fmt.Errorf("encoding: entry %q: truncated flags", key)
	}
	flags := data[off]
	off++
	e = Entry{Key: key}
	valOff = -1
	switch flags {
	case entryFlagDeleted:
		e.Deleted = true
	case 0:
		n, u := binary.Uvarint(data[off:])
		if u <= 0 || n > maxValueLen {
			return Entry{}, 0, 0, 0, fmt.Errorf("encoding: entry %q: bad value length", key)
		}
		off += u
		if uint64(len(data)-off) < n {
			return Entry{}, 0, 0, 0, fmt.Errorf("encoding: entry %q: truncated value", key)
		}
		valOff, valLen = off, int(n)
		off += int(n)
	default:
		return Entry{}, 0, 0, 0, fmt.Errorf("encoding: entry %q: unknown flags 0x%02x", key, flags)
	}
	s, u, err := core.DecodeBinary(data[off:])
	if err != nil {
		return Entry{}, 0, 0, 0, fmt.Errorf("encoding: entry %q: %w", key, err)
	}
	e.Stamp = s
	return e, valOff, valLen, off + u, nil
}

// DecodeEntry parses one entry from the front of data, returning the bytes
// consumed.
func DecodeEntry(data []byte) (Entry, int, error) {
	key, off, err := decodeKey(data)
	if err != nil {
		return Entry{}, 0, fmt.Errorf("encoding: entry: %w", err)
	}
	if off >= len(data) {
		return Entry{}, 0, fmt.Errorf("encoding: entry %q: truncated flags", key)
	}
	flags := data[off]
	off++
	e := Entry{Key: key}
	switch flags {
	case entryFlagDeleted:
		e.Deleted = true
	case 0:
		n, used := binary.Uvarint(data[off:])
		if used <= 0 || n > maxValueLen {
			return Entry{}, 0, fmt.Errorf("encoding: entry %q: bad value length", key)
		}
		off += used
		if uint64(len(data)-off) < n {
			return Entry{}, 0, fmt.Errorf("encoding: entry %q: truncated value", key)
		}
		e.Value = append([]byte(nil), data[off:off+int(n)]...)
		off += int(n)
	default:
		return Entry{}, 0, fmt.Errorf("encoding: entry %q: unknown flags 0x%02x", key, flags)
	}
	s, used, err := core.DecodeBinary(data[off:])
	if err != nil {
		return Entry{}, 0, fmt.Errorf("encoding: entry %q: %w", key, err)
	}
	e.Stamp = s
	return e, off + used, nil
}

// decodeKey parses a uvarint-prefixed key from the front of data.
func decodeKey(data []byte) (string, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n > maxKeyLen {
		return "", 0, fmt.Errorf("bad key length")
	}
	off := used
	if uint64(len(data)-off) < n {
		return "", 0, fmt.Errorf("truncated key")
	}
	return string(data[off : off+int(n)]), off + int(n), nil
}
