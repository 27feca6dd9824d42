package antientropy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// Frames: everything after a session's version byte is a sequence of
// [uvarint length][kind byte][body] messages. All multi-byte integers are
// uvarints except hashes (8 bytes, big-endian); stamps use core's binary
// format (core.Stamp.AppendBinary), keys and entries the length-prefixed
// codec of internal/encoding. See the package comment for
// which kind follows which.

// protocolVersion is the first byte of a session, and the byte the server
// acks the opening with.
const protocolVersion = 0x05

// Frame kinds. The numbering has gaps where retired protocols had frames of
// their own.
const (
	kindNeed           = 0x02 // server: keys whose full copies it needs
	kindEntries        = 0x03 // client: the requested full entries
	kindResult         = 0x04 // server: sync counters, restamps + entries the client adopts
	kindRoot           = 0x08 // client: layout + fold of its stripe tree roots
	kindRootMatch      = 0x09 // server: 1 = roots agree (round over), 0 = diverged
	kindStripeRoots    = 0x0A // client: of, fanout, count×(stripe, depth, root)
	kindStripeRootDiff = 0x0B // server: stripes whose tree roots differ
	kindTreeNodes      = 0x0C // client: fanout, count×tree-node (child bitmap + hashes)
	kindTreeDiff       = 0x0D // server: per queried node: differ bitmap + server bitmap
	kindLeafDigests    = 0x0E // client: count×leaf digest run
	kindRootProbe      = 0x0F // client: of, root; answered kindRootMatch, no round state
	kindError          = 0x7F // server: error text; terminates the session
)

// maxFrame bounds a single frame body. Entries frames carry full values, so
// the cap is generous; a corrupt length prefix still cannot force an
// unbounded allocation.
const maxFrame = 1 << 30

// maxWireStripes bounds a wire-supplied stripe layout so a corrupt frame
// cannot force a huge allocation.
const maxWireStripes = 1 << 16

// frameKeep caps the buffers a session keeps from one frame to the next: the
// body a frameReader reads into and the buffer outgoing frames are built in.
// Anything larger is allocated for its frame and dropped after it.
const frameKeep = 64 << 10

// frameGrowth bounds how far a large body's buffer runs ahead of the bytes
// that have arrived: each step is at most this multiple of what the peer has
// already sent.
const frameGrowth = 8

// lenSlot is the room a frame under construction keeps in front of its kind
// byte for the uvarint body length, which writeFrame fills in.
const lenSlot = binary.MaxVarintLen64

// startFrame starts a frame of the given kind in buf, reusing its array when
// it can hold the length slot, the kind byte and size more bytes, and
// allocating exactly that much when it cannot — so a frame sized from the
// counts in hand is encoded once, with no growth on the way.
func startFrame(buf []byte, kind byte, size int) []byte {
	if need := lenSlot + 1 + size; cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	buf = append(buf[:0], make([]byte, lenSlot)...)
	return append(buf, kind)
}

// writeFrame sends a frame built with startFrame: it fills the body length
// in at the end of the length slot and writes [uvarint length][kind][body]
// with one Write, copying nothing. A frame never splits into a header-only
// segment, and a session's write boundaries are exactly its frames.
func writeFrame(w io.Writer, frame []byte) error {
	n := uint64(len(frame) - lenSlot)
	at := lenSlot - encoding.UvarintLen(n)
	binary.PutUvarint(frame[at:], n)
	_, err := w.Write(frame[at:])
	return err
}

// keepBuf returns buf for reuse by the session's next frame, or nil when it
// grew past frameKeep.
func keepBuf(buf []byte) []byte {
	if cap(buf) > frameKeep {
		return nil
	}
	return buf
}

// frameReader reads one session's frames. A body up to frameKeep bytes is
// read into a buffer the reader keeps, so a session's steady state allocates
// nothing; a larger body gets a buffer of its own that is dropped after use.
// Either way a body is valid only until the next read on the session.
// Decoders copy whatever outlives it: keys, values, strings and tree-node
// bitmaps are copied out, and stamps are interned.
type frameReader struct {
	br  *bufio.Reader
	buf []byte // kept body buffer, at most frameKeep bytes
}

// read reads one frame body. A body larger than frameKeep starts in a
// frameKeep-byte chunk and grows at most frameGrowth-fold per step as its
// bytes arrive, the last step to its exact size, so a length prefix near
// maxFrame cannot pin memory the peer never sends.
func (fr *frameReader) read() ([]byte, error) {
	n, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errors.New("empty frame")
	}
	if n > maxFrame {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	size := int(n)
	if size <= frameKeep {
		if cap(fr.buf) < size {
			fr.buf = make([]byte, max(size, min(2*cap(fr.buf), frameKeep)))
		}
		body := fr.buf[:size]
		if _, err := io.ReadFull(fr.br, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	body := make([]byte, frameKeep)
	if _, err := io.ReadFull(fr.br, body); err != nil {
		return nil, err
	}
	for len(body) < size {
		next := make([]byte, min(frameGrowth*len(body), size))
		copy(next, body)
		if _, err := io.ReadFull(fr.br, next[len(body):]); err != nil {
			return nil, err
		}
		body = next
	}
	return body, nil
}

// capCount bounds a wire-supplied element count by the bytes actually
// present (every encoded element consumes at least one byte), so a corrupt
// or hostile count prefix cannot force a huge preallocation.
func capCount(count uint64, body []byte) int {
	if count > uint64(len(body)) {
		return len(body)
	}
	return int(count)
}

// appendString appends a uvarint-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readString consumes a uvarint-prefixed string from data.
func readString(data []byte) (string, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || uint64(len(data)-used) < n {
		return "", 0, errors.New("bad string")
	}
	return string(data[used : used+int(n)]), used + int(n), nil
}

// expectKind strips and checks the kind byte of a frame body.
func expectKind(body []byte, kind byte) ([]byte, error) {
	if body[0] == kindError {
		msg, _, err := readString(body[1:])
		if err != nil {
			return nil, fmt.Errorf("%w: unreadable error frame", ErrProtocol)
		}
		return nil, fmt.Errorf("%w: %s", ErrProtocol, msg)
	}
	if body[0] != kind {
		return nil, fmt.Errorf("%w: frame kind 0x%02x, want 0x%02x", ErrProtocol, body[0], kind)
	}
	return body[1:], nil
}

// decodeRootBody parses the shared body of kindRoot/kindRootProbe:
// of (uvarint) + 8-byte root.
func decodeRootBody(body []byte) (of int, root uint64, err error) {
	of64, used := binary.Uvarint(body)
	if used <= 0 || of64 < 1 || of64 > maxWireStripes || len(body[used:]) != 8 {
		return 0, 0, errors.New("bad root frame")
	}
	return int(of64), binary.BigEndian.Uint64(body[used:]), nil
}

// encodeResultFrame builds the kindResult frame in buf: kind, four counters,
// conflicts, counted restamps, then the reply entries to the end of the
// frame. The frame is sized before it is encoded.
//
// The entries carry no count of their own: the frame's length delimits them.
// So a result is never longer than the same copies all sent in full would
// be, since the restamp count is no wider than a count of every copy.
func encodeResultFrame(buf []byte, res kvstore.SyncResult, reply kvstore.DeltaReply) []byte {
	size := 6 * lenSlot
	for _, k := range res.Conflicts {
		size += encoding.UvarintLen(uint64(len(k))) + len(k)
	}
	for _, d := range reply.Restamps {
		size += encoding.DigestLen(d)
	}
	for _, e := range reply.Entries {
		size += encoding.EntryLen(e)
	}
	buf = startFrame(buf, kindResult, size)
	buf = binary.AppendUvarint(buf, uint64(res.Transferred))
	buf = binary.AppendUvarint(buf, uint64(res.Reconciled))
	buf = binary.AppendUvarint(buf, uint64(res.Merged))
	buf = binary.AppendUvarint(buf, uint64(res.Pruned))
	buf = binary.AppendUvarint(buf, uint64(len(res.Conflicts)))
	for _, k := range res.Conflicts {
		buf = appendString(buf, k)
	}
	buf = binary.AppendUvarint(buf, uint64(len(reply.Restamps)))
	for _, d := range reply.Restamps {
		buf = encoding.AppendDigest(buf, d)
	}
	for _, e := range reply.Entries {
		buf = encoding.AppendEntry(buf, e)
	}
	return buf
}

// decodeResultFrame parses a kindResult body (kind byte already stripped).
// It checks the grammar only; what the reply may name is the round's to
// check (checkReply). The counters size the entries list: each key the round
// transferred, reconciled or merged is one reply copy, so their sum less the
// restamps is the entry count. It is only a capacity hint, bounded by the
// body like every wire-supplied count.
func decodeResultFrame(body []byte) (kvstore.SyncResult, kvstore.DeltaReply, error) {
	var res kvstore.SyncResult
	var reply kvstore.DeltaReply
	counters := []*int{&res.Transferred, &res.Reconciled, &res.Merged, &res.Pruned}
	for _, c := range counters {
		v, used := binary.Uvarint(body)
		if used <= 0 {
			return res, reply, fmt.Errorf("%w: bad result counters", ErrProtocol)
		}
		*c = int(v)
		body = body[used:]
	}
	nConf, used := binary.Uvarint(body)
	if used <= 0 {
		return res, reply, fmt.Errorf("%w: bad conflict count", ErrProtocol)
	}
	body = body[used:]
	for i := uint64(0); i < nConf; i++ {
		k, n, err := readString(body)
		if err != nil {
			return res, reply, fmt.Errorf("%w: bad conflict key", ErrProtocol)
		}
		body = body[n:]
		res.Conflicts = append(res.Conflicts, k)
	}
	nRestamps, used := binary.Uvarint(body)
	if used <= 0 {
		return res, reply, fmt.Errorf("%w: bad restamp count", ErrProtocol)
	}
	body = body[used:]
	reply.Restamps = make([]encoding.Digest, 0, capCount(nRestamps, body))
	for i := uint64(0); i < nRestamps; i++ {
		d, n, err := encoding.DecodeDigest(body)
		if err != nil {
			return res, reply, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		body = body[n:]
		reply.Restamps = append(reply.Restamps, d)
	}
	if copies := uint64(res.Transferred + res.Reconciled + res.Merged); copies > nRestamps && len(body) > 0 {
		reply.Entries = make([]encoding.Entry, 0, capCount(copies-nRestamps, body))
	}
	for len(body) > 0 {
		e, n, err := encoding.DecodeEntry(body)
		if err != nil {
			return res, reply, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		body = body[n:]
		reply.Entries = append(reply.Entries, e)
	}
	return res, reply, nil
}
