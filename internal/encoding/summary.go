package encoding

import "encoding/binary"

// Stripe summaries: a fixed-size hash over a stripe's sorted digest set, the
// phase-0 currency of the hierarchical (v3) anti-entropy protocol. Two
// endpoints that agree on a stripe's summary skip the stripe's digests
// entirely, so a converged round costs O(stripes) on the wire instead of
// O(keys).
//
// The hash covers, in key order, each digest's key and the trie encoding of
// its stamp's *update component only*. Compare relates stamps by their update
// components, and equivalent copies share the update name byte for byte
// (joins hand both sides the same name; only the id component forks), so two
// converged stripes summarize identically even though no two replicas ever
// hold identical full stamps. Structurally different but semantically
// equivalent update names would only make summaries differ spuriously, which
// costs one digest exchange and never correctness.
//
// A 64-bit FNV-1a is deliberate: summaries guard honest replicas against
// recomparing converged data, not against adversaries. A colliding pair of
// divergent stripes (probability ~2^-64 per pair) would mask divergence at
// the summary phase; deployments needing stronger guarantees can fall back
// to digest (v2) rounds, which compare every key.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// EmptySummary is the summary of a stripe with no stored keys.
const EmptySummary uint64 = fnvOffset64

// fnvMix folds b into a running FNV-1a hash.
func fnvMix(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// SummarizeDigests hashes a stripe's digest set, which must be sorted by key
// (the order both endpoints agree on). Each stamp's contribution is its
// handle's cached canonical encoding, so a recompute re-encodes no tries.
func SummarizeDigests(ds []Digest) uint64 {
	h, _ := SummarizeDigestsBuf(ds, nil)
	return h
}

// SummarizeDigestsBuf is SummarizeDigests over a caller-owned scratch buffer,
// returned (possibly grown) for the next call — so hashing many small runs,
// a digest tree's leaves, allocates once rather than once per run.
func SummarizeDigestsBuf(ds []Digest, scratch []byte) (uint64, []byte) {
	h := uint64(fnvOffset64)
	for _, d := range ds {
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(len(d.Key)))
		scratch = append(scratch, d.Key...)
		scratch = AppendUpdateTrie(scratch, d.Stamp)
		h = fnvMix(h, scratch)
	}
	return h, scratch
}

// RootSummarySeed starts an incremental root-hash computation (FoldSummary).
const RootSummarySeed uint64 = fnvOffset64

// FoldSummary folds one stripe summary into a running root hash begun at
// RootSummarySeed — the allocation-free incremental form of
// SummarizeSummaries for callers whose summaries are not already a []uint64.
func FoldSummary(h, sum uint64) uint64 {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], sum)
	return fnvMix(h, b[:])
}

// SummarizeSummaries condenses a whole layout's stripe summaries (in stripe
// order) into one 8-byte root hash — the second summary level: two endpoints
// that agree on the root have converged, and the round is over after ~14
// wire bytes, before even the per-stripe summaries travel.
func SummarizeSummaries(sums []uint64) uint64 {
	h := RootSummarySeed
	for _, s := range sums {
		h = FoldSummary(h, s)
	}
	return h
}
