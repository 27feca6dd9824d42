package kvstore

import (
	"fmt"
	"slices"
	"strings"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
)

// Stripe summaries: the store half of the hierarchical (v3) anti-entropy
// protocol. Each stripe exposes a fixed-size hash over its sorted digest set
// (encoding.SummarizeDigests); two endpoints that agree on a stripe's
// summary skip that stripe's digests entirely, so a converged round costs
// O(stripes) instead of O(keys).
//
// Summaries are served from a per-stripe cache keyed by the stripe's epoch
// counter, which every mutation path bumps (see shard.lockMut). The cached
// digest list doubles as the source for Digest/DigestShard, so repeated
// v2/v3 rounds over a quiet store do no per-key work at all. Only those
// callers fill it: v4 rounds read the stripe's digest tree (tree.go), which
// keeps its own (position, key) order and never touches this cache.

// stripeCache returns stripe i's summary and its digests sorted by key,
// recomputing both only when the stripe's epoch moved since the last call.
// The returned slice is the cache itself: callers inside the package must
// treat it as read-only, and exported paths copy it before handing it out.
func (r *Replica) stripeCache(i int) (uint64, []encoding.Digest) {
	sh := &r.shards[i]
	sh.cacheMu.Lock()
	defer sh.cacheMu.Unlock()
	sh.mu.RLock()
	e := sh.epoch.Load()
	if sh.cacheValid && sh.cacheEpoch == e {
		sh.mu.RUnlock()
		return sh.summary, sh.digestCache
	}
	ds := make([]encoding.Digest, 0, sh.countLocked())
	sh.eachMetaLocked(func(k string, _ bool, st core.Stamp) {
		ds = append(ds, encoding.Digest{Key: k, Stamp: st})
	})
	sh.mu.RUnlock()
	// Sorting and hashing happen outside the stripe lock: the snapshot is
	// already taken, and a writer that sneaks in meanwhile bumped the epoch
	// past e, so the stale cache entry can never be mistaken for current.
	slices.SortFunc(ds, func(a, b encoding.Digest) int { return strings.Compare(a.Key, b.Key) })
	sh.summary, sh.digestCache = encoding.SummarizeDigests(ds), ds
	sh.cacheEpoch, sh.cacheValid = e, true
	return sh.summary, ds
}

// StripeSummary returns the summary hash of stripe idx under the replica's
// own layout, lazily recomputed only when the stripe mutated.
func (r *Replica) StripeSummary(idx int) (uint64, error) {
	if idx < 0 || idx >= len(r.shards) {
		return 0, fmt.Errorf("kvstore: shard %d out of range of %d", idx, len(r.shards))
	}
	sum, _ := r.stripeCache(idx)
	return sum, nil
}

// Summaries returns one summary hash per stripe under the replica's own
// layout — the phase-0 payload of a v3 anti-entropy round.
func (r *Replica) Summaries() []uint64 {
	out := make([]uint64, len(r.shards))
	for i := range r.shards {
		out[i], _ = r.stripeCache(i)
	}
	return out
}

// SummariesScoped returns `of` summaries for the partition a peer with `of`
// stripes would compute. When the layouts agree this is the cached fast
// path; otherwise every digest is grouped by ShardIndex under the foreign
// layout and hashed uncached (correct for any pair of layouts, just not
// O(1) on a quiet store).
func (r *Replica) SummariesScoped(of int) ([]uint64, error) {
	if of < 1 {
		return nil, fmt.Errorf("kvstore: summary layout of %d stripes", of)
	}
	if of == len(r.shards) {
		return r.Summaries(), nil
	}
	groups := make([][]encoding.Digest, of)
	for _, d := range r.Digest() { // sorted by key, so every group stays sorted
		i := ShardIndex(d.Key, of)
		groups[i] = append(groups[i], d)
	}
	out := make([]uint64, of)
	for i, g := range groups {
		out[i] = encoding.SummarizeDigests(g)
	}
	return out, nil
}
