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
//
// Neither end holds a long frame whole. A sender sizes each frame exactly
// from the counts in hand, so the length prefix goes out first, and writes
// it through a fixed window (frameWriter); a receiver decodes it element by
// element through a window of its own (frameReader). The bytes on the wire
// are the same as if each frame were built whole.

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

// frameKeep is the window each end of a session reads and writes its frames
// through, and caps the buffers it keeps from one frame to the next. A frame
// of at most frameKeep bytes is read whole into the window and goes out in
// one Write, so up to frameKeep a session's write boundaries are exactly its
// frames; a longer frame streams through the window, one Write per window
// filled, and is never held whole at either end. A round that had such a
// frame drops the window when it ends (trim).
const frameKeep = 64 << 10

// frameGrowth bounds how far the buffer of an element longer than the window
// runs ahead of the bytes that have arrived: each step is at most this
// multiple of what the peer has already sent.
const frameGrowth = 8

// frameWriter writes one session's frames through a buffer it keeps. A
// frame is sized exactly before it is encoded (begin), each element is
// appended to the buffer room returns, and end sends what is left. The
// buffer grows past frameKeep only for an element longer than that, and
// only until the element is written.
type frameWriter struct {
	w    io.Writer
	buf  []byte // the current frame's bytes not yet written
	keep []byte // the kept buffer buf starts from, at most frameKeep bytes
	want int    // the current frame's length, prefix included
	sent int    // how much of it is written
	err  error  // the current frame's first write error
	long bool   // a frame since the last trim was longer than frameKeep
}

// begin starts a frame of the given kind whose body after the kind byte is
// size bytes long.
func (fw *frameWriter) begin(kind byte, size int) {
	fw.want = encoding.UvarintLen(uint64(size)+1) + 1 + size
	fw.long = fw.long || fw.want > frameKeep
	if c := min(fw.want, frameKeep); cap(fw.keep) < c {
		fw.keep = make([]byte, 0, max(c, min(2*cap(fw.keep), frameKeep)))
	}
	fw.buf = binary.AppendUvarint(fw.keep[:0], uint64(size)+1)
	fw.buf = append(fw.buf, kind)
	fw.sent, fw.err = 0, nil
}

// room makes room in the window for the next n bytes of the frame, and
// returns the buffer to append them to: when they would take the window
// past frameKeep, what it holds is written first.
func (fw *frameWriter) room(n int) []byte {
	if len(fw.buf) > 0 && len(fw.buf)+n > frameKeep {
		fw.flush()
	}
	return fw.buf
}

// flush writes what buf holds and starts it over in the kept buffer.
func (fw *frameWriter) flush() {
	if fw.err == nil {
		if _, err := fw.w.Write(fw.buf); err != nil {
			fw.err = fmt.Errorf("antientropy: send: %w", err)
		}
	}
	fw.sent += len(fw.buf)
	fw.buf = fw.keep[:0]
}

// end writes the rest of the frame and reports the frame's first write
// error. A frame whose bytes differ in number from the size begin declared
// is a bug; one of at most frameKeep bytes is then not sent at all.
func (fw *frameWriter) end() error {
	if n := fw.sent + len(fw.buf); n != fw.want {
		fw.buf = fw.keep[:0]
		return fmt.Errorf("antientropy: frame of %d bytes, %d declared", n, fw.want)
	}
	fw.flush()
	fw.want = 0
	return fw.err
}

// midFrame reports whether part of a frame is on the wire and the rest is
// not: the session's next bytes belong to that frame, so no other may start.
func (fw *frameWriter) midFrame() bool { return fw.want > 0 && fw.sent > 0 }

// trim drops the buffer after a round that had a frame longer than
// frameKeep, as frameReader.trim drops the window.
func (fw *frameWriter) trim() {
	if fw.long {
		fw.buf, fw.keep, fw.long = nil, nil, false
	}
}

// errRecv marks a frame whose bytes stopped arriving: the session's
// transport failed, whatever the peer meant to send.
var errRecv = errors.New("antientropy: receive")

// frameReader reads one session's frames through a window it keeps, an
// element at a time. next reads a frame's length prefix and kind byte and
// fills the window with as much of the body as it holds; a body of at most
// frameKeep bytes is then read whole. elem decodes the body's next element
// (a digest, leaf run, need key, entry, tree node or count) from the
// window; an element cut at the window's end moves to the front and the
// window is refilled behind it. Only an element longer than the window gets
// a buffer of its own, grown at most frameGrowth-fold per step as its bytes
// arrive and dropped once it is decoded, so a length prefix near maxFrame
// cannot pin memory the peer never sends, and a long frame is never held
// whole.
//
// Bytes an element decoder sees are valid only until the next element.
// Nothing a round keeps aliases them: values and strings are copied out, a
// key is copied or resolved to a string the receiver already holds
// (encoding.DecodeDigest), stamps are interned, and a decoded tree node's
// bitmap, which does alias the window, is used before the next element.
type frameReader struct {
	br     *bufio.Reader
	window int    // the window's size; 0 means frameKeep (tests pass smaller ones)
	keep   []byte // the kept window, grown on demand up to its size
	cur    []byte // the frame's bytes read and not yet decoded
	left   int    // the frame's bytes not yet read from br
	got    int    // the body's bytes read so far, kind byte excluded
	long   bool   // a frame since the last trim was longer than the window
}

// size returns the window's size.
func (fr *frameReader) size() int {
	if fr.window == 0 {
		return frameKeep
	}
	return fr.window
}

// trim drops the window after a round that had a frame longer than it: the
// window is what streaming that frame needed, and a session that idles
// until its next long round keeps only what its short frames need, as it
// did before any long frame. Called between rounds, when nothing is left
// to decode.
func (fr *frameReader) trim() {
	if fr.long {
		fr.keep, fr.cur, fr.long = nil, nil, false
	}
}

// next reads the next frame's length prefix and returns its kind byte,
// leaving the body to elem.
func (fr *frameReader) next() (byte, error) {
	n, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return 0, fmt.Errorf("%w: %w", errRecv, err)
	}
	if n == 0 {
		return 0, fmt.Errorf("%w: empty frame", ErrProtocol)
	}
	if n > maxFrame {
		return 0, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	fr.cur, fr.left = fr.keep[:0], int(n)
	fr.long = fr.long || fr.left > fr.size()
	if err := fr.fill(); err != nil {
		return 0, err
	}
	kind := fr.cur[0]
	fr.cur, fr.got = fr.cur[1:], len(fr.cur)-1
	return kind, nil
}

// fill moves the undecoded bytes to the front of the window and reads as
// many more of the frame as fit behind them. When they already fill the
// window, which happens only inside an element longer than it, they move to
// a buffer of that element's own instead, at most frameGrowth times their
// size and never longer than the rest of the frame.
func (fr *frameReader) fill() error {
	w := fr.size()
	have, rest := len(fr.cur), len(fr.cur)+fr.left
	var buf []byte
	if have < w {
		if c := min(rest, w); cap(fr.keep) < c {
			fr.keep = make([]byte, max(c, min(2*cap(fr.keep), w)))
		}
		buf = fr.keep[:min(rest, cap(fr.keep))]
	} else {
		buf = make([]byte, min(frameGrowth*have, rest))
	}
	copy(buf, fr.cur)
	if _, err := io.ReadFull(fr.br, buf[have:]); err != nil {
		return fmt.Errorf("%w: %w", errRecv, err)
	}
	fr.left -= len(buf) - have
	fr.got += len(buf) - have
	fr.cur = buf
	return nil
}

// remaining returns how many bytes of the frame are not yet decoded.
func (fr *frameReader) remaining() int { return len(fr.cur) + fr.left }

// elem decodes the frame's next element with dec, which returns how many
// bytes of its input the element took. dec is called on the undecoded bytes
// in the window; while it reports that they end inside the element (an
// error that is io.ErrUnexpectedEOF) and the frame has more, the window is
// refilled and dec called again. So an element decodes from exactly the
// bytes it would from the whole body, and fails with the same error.
func (fr *frameReader) elem(dec func(b []byte) (int, error)) error {
	for {
		n, err := dec(fr.cur)
		if err == nil {
			fr.cur = fr.cur[n:]
			return nil
		}
		if fr.left == 0 || !errors.Is(err, io.ErrUnexpectedEOF) {
			return err
		}
		if err := fr.fill(); err != nil {
			return err
		}
	}
}

// uvarint decodes a uvarint element.
func (fr *frameReader) uvarint() (uint64, error) {
	var v uint64
	err := fr.elem(func(b []byte) (int, error) {
		x, n := binary.Uvarint(b)
		switch {
		case n == 0:
			return 0, io.ErrUnexpectedEOF
		case n < 0:
			return 0, errors.New("uvarint overflows 64 bits")
		}
		v = x
		return n, nil
	})
	return v, err
}

// bytes returns the frame's next n bytes, valid until the next element.
func (fr *frameReader) bytes(n int) ([]byte, error) {
	var out []byte
	err := fr.elem(func(b []byte) (int, error) {
		if len(b) < n {
			return 0, io.ErrUnexpectedEOF
		}
		out = b[:n:n]
		return n, nil
	})
	return out, err
}

// str decodes a uvarint-prefixed string element, resolving it with known as
// readString does.
func (fr *frameReader) str(known func(key []byte) (string, bool)) (string, error) {
	var s string
	err := fr.elem(func(b []byte) (n int, err error) {
		s, n, err = readString(b, known)
		return n, err
	})
	return s, err
}

// capCount bounds a wire-supplied element count by the body bytes that have
// actually arrived (every encoded element consumes at least one byte), so a
// corrupt or hostile count prefix cannot force a huge preallocation.
func (fr *frameReader) capCount(count uint64) int {
	return int(min(count, uint64(fr.got)))
}

// is checks that got, the kind byte next returned, is want. An error frame
// instead is ErrProtocol carrying the peer's text.
func (fr *frameReader) is(got, want byte) error {
	if got == kindError {
		msg, err := fr.str(nil)
		if err != nil {
			return fmt.Errorf("%w: unreadable error frame", ErrProtocol)
		}
		return fmt.Errorf("%w: %s", ErrProtocol, msg)
	}
	if got != want {
		return fmt.Errorf("%w: frame kind 0x%02x, want 0x%02x", ErrProtocol, got, want)
	}
	return nil
}

// appendString appends a uvarint-prefixed string.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// stringLen returns the length of appendString's output for s.
func stringLen(s string) int { return encoding.UvarintLen(uint64(len(s))) + len(s) }

// readString consumes a uvarint-prefixed string from data. known resolves
// it as encoding.DecodeDigest resolves a key: a string it returns with
// exactly these bytes is taken as it is, and anything else is copied. nil
// copies. Data that ends inside the string is io.ErrUnexpectedEOF.
func readString(data []byte, known func(key []byte) (string, bool)) (string, int, error) {
	n, used := binary.Uvarint(data)
	switch {
	case used == 0 || used > 0 && uint64(len(data)-used) < n:
		return "", 0, io.ErrUnexpectedEOF
	case used < 0:
		return "", 0, errors.New("bad string")
	}
	b := data[used : used+int(n)]
	if known != nil {
		if k, ok := known(b); ok && k == string(b) {
			return k, used + int(n), nil
		}
	}
	return string(b), used + int(n), nil
}

// badFrame reports an element that did not decode: a failure to receive it
// as it is, anything else as ErrProtocol saying what was bad.
func badFrame(err error, what string) error {
	if errors.Is(err, errRecv) {
		return err
	}
	return fmt.Errorf("%w: %s", ErrProtocol, what)
}

// beginRoot begins a kindRoot or kindRootProbe frame.
func beginRoot(fw *frameWriter, kind byte, of int, root uint64) {
	fw.begin(kind, encoding.UvarintLen(uint64(of))+8)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(of))
	fw.buf = binary.BigEndian.AppendUint64(fw.buf, root)
}

// beginResult begins the kindResult frame: four counters, conflicts,
// counted restamps, then the reply entries to the end of the frame.
//
// The entries carry no count of their own: the frame's length delimits them.
// So a result is never longer than the same copies all sent in full would
// be, since the restamp count is no wider than a count of every copy.
func beginResult(fw *frameWriter, res kvstore.SyncResult, reply kvstore.DeltaReply) {
	counts := [...]uint64{uint64(res.Transferred), uint64(res.Reconciled), uint64(res.Merged),
		uint64(res.Pruned), uint64(len(res.Conflicts))}
	size := encoding.UvarintLen(uint64(len(reply.Restamps)))
	for _, c := range counts {
		size += encoding.UvarintLen(c)
	}
	for _, k := range res.Conflicts {
		size += stringLen(k)
	}
	for _, d := range reply.Restamps {
		size += encoding.DigestLen(d)
	}
	for _, e := range reply.Entries {
		size += encoding.EntryLen(e)
	}
	fw.begin(kindResult, size)
	for _, c := range counts {
		fw.buf = binary.AppendUvarint(fw.room(encoding.UvarintLen(c)), c)
	}
	for _, k := range res.Conflicts {
		fw.buf = appendString(fw.room(stringLen(k)), k)
	}
	n := uint64(len(reply.Restamps))
	fw.buf = binary.AppendUvarint(fw.room(encoding.UvarintLen(n)), n)
	for _, d := range reply.Restamps {
		fw.buf = encoding.AppendDigest(fw.room(encoding.DigestLen(d)), d)
	}
	for _, e := range reply.Entries {
		fw.buf = encoding.AppendEntry(fw.room(encoding.EntryLen(e)), e)
	}
}

// decodeResultFrame reads a kindResult body, its kind byte already read. It
// checks the grammar only; what the reply may name is the round's to check
// (checkReply). The counters size the entries list: each key the round
// transferred, reconciled or merged is one reply copy, so their sum less the
// restamps is the entry count. It is only a capacity hint, bounded by the
// bytes received like every wire-supplied count. known resolves the keys it
// names, as for readString.
func decodeResultFrame(fr *frameReader, known func(key []byte) (string, bool)) (kvstore.SyncResult, kvstore.DeltaReply, error) {
	var res kvstore.SyncResult
	var reply kvstore.DeltaReply
	for _, c := range [...]*int{&res.Transferred, &res.Reconciled, &res.Merged, &res.Pruned} {
		v, err := fr.uvarint()
		if err != nil {
			return res, reply, badFrame(err, "bad result counters")
		}
		*c = int(v)
	}
	nConf, err := fr.uvarint()
	if err != nil {
		return res, reply, badFrame(err, "bad conflict count")
	}
	for i := uint64(0); i < nConf; i++ {
		k, err := fr.str(known)
		if err != nil {
			return res, reply, badFrame(err, "bad conflict key")
		}
		res.Conflicts = append(res.Conflicts, k)
	}
	nRestamps, err := fr.uvarint()
	if err != nil {
		return res, reply, badFrame(err, "bad restamp count")
	}
	reply.Restamps = make([]encoding.Digest, 0, fr.capCount(nRestamps))
	for i := uint64(0); i < nRestamps; i++ {
		var d encoding.Digest
		if err := fr.elem(func(b []byte) (n int, err error) {
			d, n, err = encoding.DecodeDigest(b, known)
			return n, err
		}); err != nil {
			return res, reply, badFrame(err, err.Error())
		}
		reply.Restamps = append(reply.Restamps, d)
	}
	if copies := uint64(res.Transferred + res.Reconciled + res.Merged); copies > nRestamps && fr.remaining() > 0 {
		reply.Entries = make([]encoding.Entry, 0, fr.capCount(copies-nRestamps))
	}
	for fr.remaining() > 0 {
		var e encoding.Entry
		if err := fr.elem(func(b []byte) (n int, err error) {
			e, n, err = encoding.DecodeEntry(b, known)
			return n, err
		}); err != nil {
			return res, reply, badFrame(err, err.Error())
		}
		reply.Entries = append(reply.Entries, e)
	}
	return res, reply, nil
}
