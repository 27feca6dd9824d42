package name

// EncodedSize returns the name's size in the flat measure: a uvarint string
// count, then for each string in canonical order a uvarint bit length and
// its bits packed eight to a byte. No codec writes this form; it is the
// oracle trie.Interned.FlatSize is tested against.
func (n Name) EncodedSize() int {
	size := uvarintLen(uint64(len(n.ss)))
	for _, s := range n.ss {
		size += uvarintLen(uint64(s.Len())) + (s.Len()+7)/8
	}
	return size
}

// MarshalText implements encoding.TextMarshaler using the paper's notation.
func (n Name) MarshalText() ([]byte, error) {
	return []byte(n.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (n *Name) UnmarshalText(text []byte) error {
	decoded, err := Parse(string(text))
	if err != nil {
		return err
	}
	*n = decoded
	return nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
