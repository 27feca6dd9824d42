package encoding

import "encoding/binary"

// Digest-tree hashes. Every key of a stripe's digest tree has a term
// (DigestTerm): a 64-bit hash of its key, of the trie encoding of its stamp's
// *update component only*, and of its content (ContentHash: the deleted flag
// and the value). A tree computes a key's term once, when it takes the key
// in, and keeps it beside the key's digest (Termed). Every tree hash is the
// XOR of the terms under it — a leaf's, an internal node's, a stripe's root,
// and a replica's root over its stripe roots — so the hash of nothing is 0,
// a write patches its key's path by XOR-ing the old term out and the new one
// in, and a node's hash does not depend on the depth of the tree it sits
// in. The terms of a divergent leaf are also what a sync round's server
// sends, so that the client can ship a key whose term matches as its id.
//
// Compare relates stamps by their update components, and equivalent copies
// share the update name byte for byte (joins hand both sides the same name;
// only the id component forks), and their content too (a reconcile installs
// one result everywhere), so two converged stripes hash identically even
// though no two replicas ever hold identical full stamps. Structurally
// different but semantically equivalent update names would only make hashes
// differ spuriously, which costs one digest exchange and never correctness.
// The content is there for copies no stamp orders: a key created at two
// replicas is Seed().Update() at both, and only what each wrote tells the
// creations apart and sends a round down to the key. Two creations of one
// value stay invisible to the hashes until either end writes the key again.
//
// A 64-bit FNV-1a is deliberate: the hashes guard honest replicas against
// recomparing converged data, not against adversaries. A finalizer (mix64)
// spreads every input bit over the term, so distinct sets of terms XOR alike
// with probability ~2^-64. Such a collision of two divergent subtrees would
// mask divergence until either side's next write under it; two keys of one
// leaf whose terms collide would make a round's server take one for the
// other.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds b into a running FNV-1a hash.
func fnvMix[K string | []byte](h uint64, b K) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// mix64 is MurmurHash3's 64-bit finalizer: a bijection that spreads every
// input bit over the whole output.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Termed is one key of a digest tree's leaf run: its digest and its term,
// computed once, when the tree took the key in. Only the tree's runs carry
// terms; a digest decoded off the wire is a bare Digest.
type Termed struct {
	Digest
	Term uint64
}

// ContentHash hashes a copy's content: 0 for a tombstone; for a live copy,
// its value's length and then its bytes, eight at a time, in FNV-1a's
// steps. A nil and an empty value hash alike.
func ContentHash(deleted bool, value []byte) uint64 {
	if deleted {
		return 0
	}
	h := (fnvOffset64 ^ uint64(len(value))) * fnvPrime64
	for ; len(value) >= 8; value = value[8:] {
		h = (h ^ binary.LittleEndian.Uint64(value)) * fnvPrime64
	}
	return fnvMix(h, value)
}

// DigestTerm returns the term of a copy of d's key whose content hashes to
// content (ContentHash): the finalized FNV-1a of the uvarint length of the
// key, the key, the trie encoding of the stamp's update component and the
// content hash, big-endian. Two copies share a term when they share their
// key, their update components and their content, whatever their ids.
func DigestTerm(d Digest, content uint64) uint64 {
	var b [binary.MaxVarintLen64]byte
	h := fnvMix(fnvOffset64, binary.AppendUvarint(b[:0], uint64(len(d.Key))))
	h = fnvMix(h, d.Key)
	h = fnvMix(h, d.Stamp.UpdateHandle().Encoding())
	return mix64(fnvMix(h, binary.BigEndian.AppendUint64(b[:0], content)))
}
