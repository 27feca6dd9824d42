package antientropy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"versionstamp/internal/core"
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
// From the leaf digests on, a round names a key the client shipped a digest
// of by the digest's ordinal: its place in the client's whole leaf runs,
// counted from 0 across the runs, which the client ships in walk order; a
// key it shipped as its id alone, answering the server's term for it, has
// an ordinal too. A list of ordinals is strictly ascending and delta-coded
// (ordinals).
//
// Neither end holds a long frame whole. A sender sizes each frame exactly
// from the counts in hand, so the length prefix goes out first, and writes
// it through a fixed window (frameWriter); a receiver decodes it element by
// element through a window of its own (frameReader). The bytes on the wire
// are the same as if each frame were built whole.

// protocolVersion is the first byte of a session, and the byte the server
// acks the opening with.
const protocolVersion = 0x09

// Frame kinds. The numbering has gaps where retired protocols had frames of
// their own.
const (
	kindNeed           = 0x02 // server: ordinals of the digests whose full copies it needs
	kindEntries        = 0x03 // client: one entry body per need, in need order
	kindResult         = 0x04 // server: sync counters, restamps + entries the client adopts
	kindRoot           = 0x08 // client: layout + XOR of its stripe tree roots
	kindRootMatch      = 0x09 // server: 1 = roots agree (round over), 0 = diverged
	kindStripeRoots    = 0x0A // client: of, count×(stripe, depth, root): each stripe's depth, once a round
	kindStripeRootDiff = 0x0B // server: stripes whose tree roots differ
	kindTreeNodes      = 0x0C // client: count×tree-node (stripe, level, path, child bitmap + hashes)
	kindTreeDiff       = 0x0D // server: per queried node: differ bitmap + server bitmap + leaf terms
	kindLeafDigests    = 0x0E // client: count×leaf digest run, answering the terms
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
		fw.keep = grown(max(c, min(2*cap(fw.keep), frameKeep)))
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

// grown returns an empty buffer for at least n bytes, n > 0, its capacity
// rounded up to a power of two, so that a later frame a little longer than
// the one it was grown for still fits. frameKeep is a power of two, so a
// buffer grown for at most frameKeep bytes stays within it.
func grown(n int) []byte { return make([]byte, 0, 1<<bits.Len(uint(n-1))) }

// errRecv marks a frame whose bytes stopped arriving: the session's
// transport failed, whatever the peer meant to send.
var errRecv = errors.New("antientropy: receive")

// frameReader reads one session's frames through a window it keeps, an
// element at a time. next reads a frame's length prefix and kind byte and
// fills the window with as much of the body as it holds; a body of at most
// frameKeep bytes is then read whole. elem decodes the body's next element
// (a digest, leaf run, ordinal, entry body, tree node or count) from the
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
// (encoding.DecodeDigest), and stamps are interned.
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
			fr.keep = grown(max(c, min(2*cap(fr.keep), w)))
		}
		buf = fr.keep[:min(rest, cap(fr.keep), w)]
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

// str decodes a uvarint-prefixed string element (readString).
func (fr *frameReader) str() (string, error) {
	var s string
	err := fr.elem(func(b []byte) (n int, err error) {
		s, n, err = readString(b)
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
		msg, err := fr.str()
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

// readString consumes a uvarint-prefixed string from data, copying it.
// Data that ends inside the string is io.ErrUnexpectedEOF.
func readString(data []byte) (string, int, error) {
	n, used := binary.Uvarint(data)
	switch {
	case used == 0 || used > 0 && uint64(len(data)-used) < n:
		return "", 0, io.ErrUnexpectedEOF
	case used < 0:
		return "", 0, errors.New("bad string")
	}
	return string(data[used : used+int(n)]), used + int(n), nil
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

// ordinals delta-codes a strictly ascending list of ordinals: each goes on
// the wire as its distance from the one before, the first as its distance
// from -1, so no distance is 0. The zero value starts a list.
type ordinals struct{ next int } // the least ordinal the next may be

// put returns ord's distance, ord being at least next.
func (o *ordinals) put(ord int) uint64 {
	d := uint64(ord-o.next) + 1
	o.next = ord + 1
	return d
}

// take returns the ordinal the distance d leads to, refusing a repeated
// ordinal (d = 0), one that does not ascend (a distance that wraps past the
// top) and one at or past limit.
func (o *ordinals) take(d uint64, limit int) (int, error) {
	ord := uint64(o.next) + d - 1
	switch {
	case d == 0:
		return 0, errors.New("repeated ordinal")
	case ord < uint64(o.next):
		return 0, errors.New("ordinals not ascending")
	case ord >= uint64(limit):
		return 0, fmt.Errorf("ordinal %d out of range of %d", ord, limit)
	}
	o.next = int(ord) + 1
	return int(ord), nil
}

// decodeEntriesFrame reads a kindEntries body, its kind byte already read:
// a count that must be the need's, then one entry body per ordinal of need,
// in need order. It returns the entries of the keys that did not vanish,
// each under the key of its need's digest in runs and, unless its body
// carries a stamp, under that digest's stamp. It runs on the server, whose
// errors go back to the client as an error frame's text.
func decodeEntriesFrame(fr *frameReader, runs *shippedRuns, need []int) ([]encoding.Entry, error) {
	count, err := fr.uvarint()
	if err != nil {
		return nil, fmt.Errorf("bad entry count: %w", err)
	}
	if count != uint64(len(need)) {
		return nil, fmt.Errorf("%d entries for %d needs", count, len(need))
	}
	entries := make([]encoding.Entry, 0, fr.capCount(count))
	for _, ord := range need {
		var e encoding.Entry
		var withStamp, vanished bool
		if err := fr.elem(func(b []byte) (n int, err error) {
			e, withStamp, vanished, n, err = encoding.DecodeEntryBody(b)
			return n, err
		}); err != nil {
			return nil, err
		}
		if vanished {
			continue
		}
		d := runs.digest(ord)
		e.Key = d.Key
		if !withStamp {
			e.Stamp = d.Stamp
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// replyRefs names each copy of a reply by its place in the round.
type replyRefs struct {
	restamps []int // per restamp: its need's ordinal, its place in the need frame
	entries  []int // per entry: its key's digest ordinal, or -1 for a key the client shipped no digest of
}

// beginResult begins the kindResult frame: four counters, conflicts,
// counted restamps, then the reply entries to the end of the frame. A
// restamp is its need ordinal's distance and the stamp; an entry is a
// reference — 0 and the key, for a key the client shipped no digest of, or
// else its digest ordinal's distance — and the entry's body, stamp included.
//
// The entries carry no count of their own: the frame's length delimits them.
func beginResult(fw *frameWriter, res kvstore.SyncResult, reply kvstore.DeltaReply, refs replyRefs) {
	counts := [...]uint64{uint64(res.Transferred), uint64(res.Reconciled), uint64(res.Merged),
		uint64(res.Pruned), uint64(len(res.Conflicts))}
	size := encoding.UvarintLen(uint64(len(reply.Restamps)))
	for _, c := range counts {
		size += encoding.UvarintLen(c)
	}
	for _, k := range res.Conflicts {
		size += stringLen(k)
	}
	var ro, eo ordinals
	for i, d := range reply.Restamps {
		size += encoding.UvarintLen(ro.put(refs.restamps[i])) + d.Stamp.BinaryLen()
	}
	for i, e := range reply.Entries {
		if ord := refs.entries[i]; ord < 0 {
			size += 1 + stringLen(e.Key)
		} else {
			size += encoding.UvarintLen(eo.put(ord))
		}
		size += encoding.EntryBodyLen(e, true)
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
	ro = ordinals{}
	for i, d := range reply.Restamps {
		fw.buf = binary.AppendUvarint(fw.room(binary.MaxVarintLen64+d.Stamp.BinaryLen()), ro.put(refs.restamps[i]))
		fw.buf = d.Stamp.AppendBinary(fw.buf)
	}
	eo = ordinals{}
	for i, e := range reply.Entries {
		ord := refs.entries[i]
		if ord < 0 {
			fw.buf = appendString(append(fw.room(1+stringLen(e.Key)), 0), e.Key)
		} else {
			fw.buf = binary.AppendUvarint(fw.room(binary.MaxVarintLen64), eo.put(ord))
		}
		fw.buf = encoding.AppendEntryBody(fw.room(encoding.EntryBodyLen(e, true)), e, true)
	}
}

// decodeResultFrame reads a kindResult body, its kind byte already read, for
// a round of needs needs and digests shipped digests. It checks the grammar
// and that each ordinal is in range and each list of them ascends; what the
// reply may name is the round's to check (clientRound.checkReply). A reply
// copy named by an ordinal is returned without its key. The counters size the
// entries list: each key the round transferred, reconciled or merged is one
// reply copy, so their sum less the restamps is the entry count. It is only
// a capacity hint, bounded by the bytes received like every wire-supplied
// count.
func decodeResultFrame(fr *frameReader, needs, digests int) (kvstore.SyncResult, kvstore.DeltaReply, replyRefs, error) {
	var res kvstore.SyncResult
	var reply kvstore.DeltaReply
	var refs replyRefs
	for _, c := range [...]*int{&res.Transferred, &res.Reconciled, &res.Merged, &res.Pruned} {
		v, err := fr.uvarint()
		if err != nil {
			return res, reply, refs, badFrame(err, "bad result counters")
		}
		*c = int(v)
	}
	nConf, err := fr.uvarint()
	if err != nil {
		return res, reply, refs, badFrame(err, "bad conflict count")
	}
	for i := uint64(0); i < nConf; i++ {
		k, err := fr.str()
		if err != nil {
			return res, reply, refs, badFrame(err, "bad conflict key")
		}
		res.Conflicts = append(res.Conflicts, k)
	}
	nRestamps, err := fr.uvarint()
	if err != nil || nRestamps > uint64(needs) {
		return res, reply, refs, badFrame(err, "bad restamp count")
	}
	reply.Restamps = make([]encoding.Digest, 0, fr.capCount(nRestamps))
	refs.restamps = make([]int, 0, fr.capCount(nRestamps))
	var ro ordinals
	for i := uint64(0); i < nRestamps; i++ {
		d, err := fr.uvarint()
		if err != nil {
			return res, reply, refs, badFrame(err, "bad restamp ordinal")
		}
		ord, err := ro.take(d, needs)
		if err != nil {
			return res, reply, refs, fmt.Errorf("%w: restamp: %v", ErrProtocol, err)
		}
		var s core.Stamp
		if err := fr.elem(func(b []byte) (n int, err error) {
			s, n, err = core.DecodeBinary(b)
			return n, err
		}); err != nil {
			return res, reply, refs, badFrame(err, err.Error())
		}
		reply.Restamps = append(reply.Restamps, encoding.Digest{Stamp: s})
		refs.restamps = append(refs.restamps, ord)
	}
	if copies := uint64(res.Transferred + res.Reconciled + res.Merged); copies > nRestamps && fr.remaining() > 0 {
		reply.Entries = make([]encoding.Entry, 0, fr.capCount(copies-nRestamps))
		refs.entries = make([]int, 0, fr.capCount(copies-nRestamps))
	}
	var eo ordinals
	for fr.remaining() > 0 {
		tag, err := fr.uvarint()
		if err != nil {
			return res, reply, refs, badFrame(err, "bad reply entry reference")
		}
		ord, key := -1, ""
		if tag == 0 {
			if key, err = fr.str(); err != nil {
				return res, reply, refs, badFrame(err, "bad reply entry key")
			}
		} else if ord, err = eo.take(tag, digests); err != nil {
			return res, reply, refs, fmt.Errorf("%w: reply entry: %v", ErrProtocol, err)
		}
		var e encoding.Entry
		var withStamp, vanished bool
		if err := fr.elem(func(b []byte) (n int, err error) {
			e, withStamp, vanished, n, err = encoding.DecodeEntryBody(b)
			return n, err
		}); err != nil {
			return res, reply, refs, badFrame(err, err.Error())
		}
		if !withStamp || vanished {
			return res, reply, refs, fmt.Errorf("%w: reply entry body without a stamp", ErrProtocol)
		}
		e.Key = key
		reply.Entries = append(reply.Entries, e)
		refs.entries = append(refs.entries, ord)
	}
	return res, reply, refs, nil
}
