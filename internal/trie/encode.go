package trie

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Structural bit encoding. Each node costs:
//
//	leaf:           1 bit  ("1")
//	interior node:  3 bits ("0" + zero-child flag + one-child flag)
//
// in pre-order, preceded by one root flag bit (0 = empty set). Strings
// sharing prefixes share the bits of those prefixes, so bushy names encode
// smaller than their flat per-string size (FlatSize). The stream is
// padded with zero bits to a byte boundary and framed by a uvarint bit
// count.

// errCorrupt is returned for syntactically invalid encodings.
var errCorrupt = errors.New("trie: corrupt encoding")

// maxEncodedBits bounds decoder work against adversarial input.
const maxEncodedBits = 1 << 26

// emptyEncoding is the canonical encoding of ∅: bit count 1, a zero bit.
const emptyEncoding = "\x01\x00"

// bitWriter appends MSB-first bits to buf; n counts the bits written.
type bitWriter struct {
	buf []byte
	n   int
}

func (w *bitWriter) bit(b bool) {
	if w.n%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b {
		w.buf[len(w.buf)-1] |= 0x80 >> (w.n % 8)
	}
	w.n++
}

// bodyBits is the size of the node's body: its encoding minus the root flag.
func (t *Interned) bodyBits() int {
	if t == nil {
		return 0
	}
	return int(t.nbits) - 1
}

// appendBody appends the node's body in pre-order.
func (t *Interned) appendBody(w *bitWriter) {
	switch {
	case t == nil:
	case t == leaf:
		w.bit(true)
	default:
		w.bit(false)
		w.bit(t.zero != nil)
		w.bit(t.one != nil)
		t.zero.appendBody(w)
		t.one.appendBody(w)
	}
}

// appendEncoding appends the framed encoding of the interior node with
// children z and o, which encodes in nbits bits.
func appendEncoding(dst []byte, nbits int, z, o *Interned) []byte {
	w := bitWriter{buf: binary.AppendUvarint(dst, uint64(nbits))}
	w.bit(true) // root flag
	w.bit(false)
	w.bit(z != nil)
	w.bit(o != nil)
	z.appendBody(&w)
	o.appendBody(&w)
	return w.buf
}

// encodedLen is the framed size in bytes of an nbits-bit encoding.
func encodedLen(nbits int) int { return uvarintLen(nbits) + (nbits+7)/8 }

func uvarintLen(v int) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// AppendEncoding appends the canonical encoding, cached on the node after
// its first use.
func (t *Interned) AppendEncoding(dst []byte) []byte {
	if t == nil {
		return append(dst, emptyEncoding...)
	}
	if t.id == 0 {
		return appendEncoding(dst, int(t.nbits), t.zero, t.one) // not cached
	}
	return append(dst, t.encoding()...)
}

// encoding returns the table-resident node's encoding, computing and
// caching it on first use. Concurrent first uses store equal strings.
func (t *Interned) encoding() string {
	if enc := t.enc.Load(); enc != nil {
		return *enc
	}
	enc := string(appendEncoding(nil, int(t.nbits), t.zero, t.one))
	t.enc.Store(&enc)
	return enc
}

// EncodedLen returns the length of AppendEncoding's output.
func (t *Interned) EncodedLen() int {
	if t == nil {
		return len(emptyEncoding)
	}
	return encodedLen(int(t.nbits))
}

// frameLen reads the uvarint bit count at the front of src and returns the
// encoding's total byte length and its bit count, or 0 when the frame is
// malformed or truncated.
func frameLen(src []byte) (int, int) {
	nbits, off := binary.Uvarint(src)
	if off <= 0 || nbits > maxEncodedBits {
		return 0, 0
	}
	total := off + (int(nbits)+7)/8
	if total > len(src) {
		return 0, 0
	}
	return total, int(nbits)
}

// bitReader consumes MSB-first bits.
type bitReader struct {
	buf  []byte
	pos  int
	nbit int
}

func (r *bitReader) bit() (bool, error) {
	if r.pos >= r.nbit {
		return false, errCorrupt
	}
	b := r.buf[r.pos/8]&(0x80>>(r.pos%8)) != 0
	r.pos++
	return b, nil
}

// decode builds the name encoded by the nbits-bit stream in payload through
// the normalizing constructor; every bit must be used.
func decode(payload []byte, nbits int) (*Interned, error) {
	r := &bitReader{buf: payload, nbit: nbits}
	root, err := r.bit()
	if err != nil {
		return nil, err
	}
	var t *Interned
	if root {
		if t, err = r.node(); err != nil {
			return nil, err
		}
	}
	if r.pos != r.nbit {
		return nil, fmt.Errorf("trie: %d unread bits", r.nbit-r.pos)
	}
	return t, nil
}

func (r *bitReader) node() (*Interned, error) {
	isLeaf, err := r.bit()
	if err != nil || isLeaf {
		return leaf, err
	}
	hasZero, err := r.bit()
	if err != nil {
		return nil, err
	}
	hasOne, err := r.bit()
	if err != nil {
		return nil, err
	}
	if !hasZero && !hasOne {
		return nil, errCorrupt
	}
	var z, o *Interned
	if hasZero {
		if z, err = r.node(); err != nil {
			return nil, err
		}
	}
	if hasOne {
		if o, err = r.node(); err != nil {
			return nil, err
		}
	}
	return node(z, o), nil
}
