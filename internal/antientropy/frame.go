package antientropy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// Frames: everything after a session's version byte is a sequence of
// [uvarint length][kind byte][body] messages. All multi-byte integers are
// uvarints except hashes (8 bytes, big-endian); stamps use the compact
// trie-structural format (encoding.MarshalCompact), keys and entries the
// length-prefixed codec of internal/encoding. See the package comment for
// which kind follows which.

// protocolVersion is the first byte of a session, and the byte the server
// acks the opening with.
const protocolVersion = 0x04

// Frame kinds. The numbering has gaps where retired protocols had frames of
// their own.
const (
	kindNeed           = 0x02 // server: keys whose full copies it needs
	kindEntries        = 0x03 // client: the requested full entries
	kindResult         = 0x04 // server: sync counters + entries the client adopts
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

// writeFrame sends one [uvarint length][body] frame as a single write, so a
// frame never splits into a header-only TCP segment.
func writeFrame(w io.Writer, body []byte) error {
	buf := binary.AppendUvarint(make([]byte, 0, len(body)+binary.MaxVarintLen64), uint64(len(body)))
	buf = append(buf, body...)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame body. The body buffer grows with the bytes that
// actually arrive, so a length prefix near maxFrame cannot pin memory the
// peer never sends.
func readFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errors.New("empty frame")
	}
	if n > maxFrame {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, br, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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

// encodeResultFrame builds the kindResult body: kind, four counters,
// conflicts, reply entries.
func encodeResultFrame(res kvstore.SyncResult, reply []encoding.Entry) []byte {
	body := []byte{kindResult}
	body = binary.AppendUvarint(body, uint64(res.Transferred))
	body = binary.AppendUvarint(body, uint64(res.Reconciled))
	body = binary.AppendUvarint(body, uint64(res.Merged))
	body = binary.AppendUvarint(body, uint64(res.Pruned))
	body = binary.AppendUvarint(body, uint64(len(res.Conflicts)))
	for _, k := range res.Conflicts {
		body = appendString(body, k)
	}
	body = binary.AppendUvarint(body, uint64(len(reply)))
	for _, e := range reply {
		body = encoding.AppendEntry(body, e)
	}
	return body
}

// decodeResultFrame parses a kindResult body (kind byte already stripped).
func decodeResultFrame(body []byte) (kvstore.SyncResult, []encoding.Entry, error) {
	var res kvstore.SyncResult
	counters := []*int{&res.Transferred, &res.Reconciled, &res.Merged, &res.Pruned}
	for _, c := range counters {
		v, used := binary.Uvarint(body)
		if used <= 0 {
			return res, nil, fmt.Errorf("%w: bad result counters", ErrProtocol)
		}
		*c = int(v)
		body = body[used:]
	}
	nConf, used := binary.Uvarint(body)
	if used <= 0 {
		return res, nil, fmt.Errorf("%w: bad conflict count", ErrProtocol)
	}
	body = body[used:]
	for i := uint64(0); i < nConf; i++ {
		k, n, err := readString(body)
		if err != nil {
			return res, nil, fmt.Errorf("%w: bad conflict key", ErrProtocol)
		}
		body = body[n:]
		res.Conflicts = append(res.Conflicts, k)
	}
	nEntries, used := binary.Uvarint(body)
	if used <= 0 {
		return res, nil, fmt.Errorf("%w: bad reply entry count", ErrProtocol)
	}
	body = body[used:]
	reply := make([]encoding.Entry, 0, capCount(nEntries, body))
	for i := uint64(0); i < nEntries; i++ {
		e, n, err := encoding.DecodeEntry(body)
		if err != nil {
			return res, nil, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		body = body[n:]
		reply = append(reply, e)
	}
	return res, reply, nil
}
