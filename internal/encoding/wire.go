package encoding

import (
	"encoding/binary"
	"fmt"
	"io"
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
//	body   := flags [uvarint(len(value)) value] [stamp]
//
// flags bit 0 marks a tombstone; tombstones carry no value field. A body is
// an entry without its key, for a receiver that already knows which key it
// is: bit 1 marks a stamp that follows (without it the receiver already
// holds the stamp), and bit 2 a key that has no copy to ship (vanished),
// whose body is its flags byte alone.

// Entry and body flags.
const (
	entryFlagDeleted = 0x01 // a tombstone: no value field follows
	bodyFlagStamp    = 0x02 // the body's stamp follows its value
	bodyFlagVanished = 0x04 // the body's key has no copy: nothing follows
)

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
// consumed. known resolves the key under the package's resolver contract:
// a string it returns with exactly the key's bytes is taken, anything else
// is copied, and nil copies.
func DecodeDigest(data []byte, known func(key []byte) (string, bool)) (Digest, int, error) {
	key, off, err := decodeKey(data, known)
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

// EntryBodyLen returns the length of AppendEntryBody's output for e.
func EntryBodyLen(e Entry, withStamp bool) int {
	n := 1
	if !e.Deleted {
		n += UvarintLen(uint64(len(e.Value))) + len(e.Value)
	}
	if withStamp {
		n += e.Stamp.BinaryLen()
	}
	return n
}

// AppendEntryBody appends e's body: its flags, its value unless it is a
// tombstone, and its stamp if withStamp. The key is not written.
func AppendEntryBody(dst []byte, e Entry, withStamp bool) []byte {
	flags := byte(0)
	if e.Deleted {
		flags |= entryFlagDeleted
	}
	if withStamp {
		flags |= bodyFlagStamp
	}
	dst = append(dst, flags)
	if !e.Deleted {
		dst = binary.AppendUvarint(dst, uint64(len(e.Value)))
		dst = append(dst, e.Value...)
	}
	if withStamp {
		dst = e.Stamp.AppendBinary(dst)
	}
	return dst
}

// AppendVanishedBody appends the body of a key that has no copy to ship.
func AppendVanishedBody(dst []byte) []byte { return append(dst, bodyFlagVanished) }

// DecodeEntryBody parses one body from the front of data, returning the
// bytes consumed. The entry has no key, and a zero stamp unless one followed
// (withStamp); vanished reports the body of a key with no copy, which
// carries nothing else. The value is copied.
func DecodeEntryBody(data []byte) (e Entry, withStamp, vanished bool, used int, err error) {
	if len(data) == 0 {
		return Entry{}, false, false, 0, fmt.Errorf("encoding: entry body: truncated flags: %w", io.ErrUnexpectedEOF)
	}
	flags := data[0]
	switch {
	case flags == bodyFlagVanished:
		return Entry{}, false, true, 1, nil
	case flags&^(entryFlagDeleted|bodyFlagStamp) != 0:
		return Entry{}, false, false, 0, fmt.Errorf("encoding: entry body: unknown flags 0x%02x", flags)
	}
	e.Deleted, withStamp = flags&entryFlagDeleted != 0, flags&bodyFlagStamp != 0
	off := 1
	if !e.Deleted {
		if e.Value, off, err = decodeValue(data, off, ""); err != nil {
			return Entry{}, false, false, 0, err
		}
	}
	if withStamp {
		s, n, err := core.DecodeBinary(data[off:])
		if err != nil {
			return Entry{}, false, false, 0, fmt.Errorf("encoding: entry body: %w", err)
		}
		e.Stamp, off = s, off+n
	}
	return e, withStamp, false, off, nil
}

// decodeValue copies the value field at data[off:] of key's entry or body,
// returning the offset past it.
func decodeValue(data []byte, off int, key string) ([]byte, int, error) {
	n, used := binary.Uvarint(data[off:])
	if err := valueLenErr(key, n, used); err != nil {
		return nil, 0, err
	}
	off += used
	if uint64(len(data)-off) < n {
		return nil, 0, fmt.Errorf("encoding: entry %q: truncated value: %w", key, io.ErrUnexpectedEOF)
	}
	return append([]byte(nil), data[off:off+int(n)]...), off + int(n), nil
}

// DecodeEntryMeta parses one entry from the front of data like DecodeEntry,
// but does not copy the value bytes: the returned entry has a nil Value, and
// valOff/valLen locate the value field within data (valOff = -1 for
// tombstones, which encode none). This is the decoder of paged restarts —
// the caller keeps keys, stamps and value locations resident and leaves the
// bytes where they are.
func DecodeEntryMeta(data []byte) (e Entry, valOff, valLen, used int, err error) {
	key, off, err := decodeKey(data, nil)
	if err != nil {
		return Entry{}, 0, 0, 0, fmt.Errorf("encoding: entry: %w", err)
	}
	if off >= len(data) {
		return Entry{}, 0, 0, 0, fmt.Errorf("encoding: entry %q: truncated flags: %w", key, io.ErrUnexpectedEOF)
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
		if err := valueLenErr(key, n, u); err != nil {
			return Entry{}, 0, 0, 0, err
		}
		off += u
		if uint64(len(data)-off) < n {
			return Entry{}, 0, 0, 0, fmt.Errorf("encoding: entry %q: truncated value: %w", key, io.ErrUnexpectedEOF)
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
// consumed. The key and the value are copied.
func DecodeEntry(data []byte) (Entry, int, error) {
	key, off, err := decodeKey(data, nil)
	if err != nil {
		return Entry{}, 0, fmt.Errorf("encoding: entry: %w", err)
	}
	if off >= len(data) {
		return Entry{}, 0, fmt.Errorf("encoding: entry %q: truncated flags: %w", key, io.ErrUnexpectedEOF)
	}
	flags := data[off]
	off++
	e := Entry{Key: key}
	switch flags {
	case entryFlagDeleted:
		e.Deleted = true
	case 0:
		if e.Value, off, err = decodeValue(data, off, key); err != nil {
			return Entry{}, 0, err
		}
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

// valueLenErr checks an entry's value length field: n as binary.Uvarint
// read it in used bytes.
func valueLenErr(key string, n uint64, used int) error {
	switch {
	case used == 0:
		return fmt.Errorf("encoding: entry %q: truncated value length: %w", key, io.ErrUnexpectedEOF)
	case used < 0 || n > maxValueLen:
		return fmt.Errorf("encoding: entry %q: bad value length", key)
	}
	return nil
}

// decodeKey parses a uvarint-prefixed key from the front of data. The key
// never aliases data: it is known's answer when that equals the key's bytes
// exactly, and a copy otherwise.
func decodeKey(data []byte, known func(key []byte) (string, bool)) (string, int, error) {
	b, end, err := keyBytes(data)
	if err != nil {
		return "", 0, err
	}
	if known != nil {
		if k, ok := known(b); ok && k == string(b) {
			return k, end, nil
		}
	}
	return string(b), end, nil
}

// keyBytes returns the bytes of the uvarint-prefixed key at the front of
// data, aliasing it, and the offset past the key.
func keyBytes(data []byte) ([]byte, int, error) {
	n, used := binary.Uvarint(data)
	switch {
	case used == 0:
		return nil, 0, fmt.Errorf("truncated key length: %w", io.ErrUnexpectedEOF)
	case used < 0 || n > maxKeyLen:
		return nil, 0, fmt.Errorf("bad key length")
	}
	if uint64(len(data)-used) < n {
		return nil, 0, fmt.Errorf("truncated key: %w", io.ErrUnexpectedEOF)
	}
	end := used + int(n)
	return data[used:end], end, nil
}
