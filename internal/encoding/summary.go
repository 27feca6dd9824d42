package encoding

import "encoding/binary"

// Digest-tree hashes: the two primitives kvstore.DigestTree is built from. A
// leaf hashes its run of digests (SummarizeDigestsBuf); an internal node, and
// the replica root above the stripes, folds child hashes one at a time
// (FoldSummary). Two endpoints that agree on a hash skip everything under it.
//
// A leaf hash covers, in run order, each digest's hash chunk
// (AppendHashChunk): its key and the trie encoding of its stamp's *update
// component only*. Compare relates stamps by their update components, and
// equivalent copies share the update name byte for byte (joins hand both
// sides the same name; only the id component forks), so two converged
// stripes hash identically even though no two replicas ever hold identical
// full stamps. Structurally different but semantically
// equivalent update names would only make hashes differ spuriously, which
// costs one digest exchange and never correctness.
//
// The same chunk, hashed alone, is the key's term (DigestTerm): the 8 bytes a
// sync round's server sends for each key of a divergent leaf, so that the
// client can ship a key whose term matches as its stamp's id alone. The leaf
// hash and the term cover exactly what the chunk does, so a change to what a
// key's hash covers is made in AppendHashChunk, once, for both.
//
// A 64-bit FNV-1a is deliberate: the hashes guard honest replicas against
// recomparing converged data, not against adversaries. A colliding pair of
// divergent subtrees (probability ~2^-64 per pair) would mask divergence
// until either side's next write under it; two keys of one leaf whose terms
// collide would make a round's server take one for the other.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds b into a running FNV-1a hash.
func fnvMix(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// SummarizeDigestsBuf hashes a run of digests in the order given (both
// endpoints order a leaf's run by tree position, then key). Each stamp's
// contribution is its handle's cached canonical encoding, so a recompute
// re-encodes no tries. scratch is a caller-owned buffer, returned (possibly
// grown) for the next call — so hashing many small runs, a digest tree's
// leaves, allocates once rather than once per run.
func SummarizeDigestsBuf(ds []Digest, scratch []byte) (uint64, []byte) {
	h := uint64(fnvOffset64)
	for _, d := range ds {
		scratch = AppendHashChunk(scratch[:0], d)
		h = fnvMix(h, scratch)
	}
	return h, scratch
}

// AppendHashChunk appends what the digest-tree hashes cover of one key: the
// uvarint length of its key, the key, and the trie encoding of its stamp's
// update component (AppendUpdateTrie).
func AppendHashChunk(dst []byte, d Digest) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(d.Key)))
	dst = append(dst, d.Key...)
	return AppendUpdateTrie(dst, d.Stamp)
}

// DigestTerm returns d's term, the FNV-1a hash of its chunk alone
// (AppendHashChunk). Two digests share a term when they share their key and
// their stamps' update components. scratch is as for SummarizeDigestsBuf.
func DigestTerm(d Digest, scratch []byte) (uint64, []byte) {
	scratch = AppendHashChunk(scratch[:0], d)
	return fnvMix(fnvOffset64, scratch), scratch
}

// RootSummarySeed starts an incremental fold (FoldSummary); it is also the
// hash of nothing — an empty run, an empty tree.
const RootSummarySeed uint64 = fnvOffset64

// FoldSummary folds one child hash (or child index) into a running hash
// begun at RootSummarySeed, allocation-free.
func FoldSummary(h, sum uint64) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], sum)
	return fnvMix(h, b[:])
}
