// Package ring places the keyspace's virtual stripes on a consistent-hash
// ring of node IDs with R-way replicated ownership. A Ring answers, for any
// stripe, the ordered list of R distinct nodes responsible for it — the
// placement layer under the partitioned cluster: keys hash to stripes
// (kvstore.ShardIndex on both endpoints), stripes hash onto the ring, and
// anti-entropy rounds run only between a stripe's owners.
//
// Placement is a pure function of the member list and the parameters: every
// node that knows the same member set computes the same ring with no
// coordination, which is the property the paper's stamps demand of every
// layer — replicas appear and retire without a naming service, and the ring
// rebuilds deterministically when the membership layer reports the change.
// Each node projects onto many virtual points so load spreads evenly, and a
// single membership change only touches the stripes whose owner walk passes
// the changed node: every other stripe keeps its exact owner list, so a
// rebuild invalidates the minimum of placement state.
package ring

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// virtualPoints is how many points each node projects onto the ring. 64
// points keep per-node stripe counts within a few percent of even for
// cluster sizes up to several hundred nodes.
const virtualPoints = 64

// Ring is an immutable placement of stripes onto nodes. Build a new Ring on
// membership change; lookups are precomputed and read-only, so a Ring is
// safe for concurrent use.
type Ring struct {
	stripes     int
	replication int
	nodes       []string   // sorted, distinct
	owners      [][]string // stripe -> ordered owner IDs (walk order)
	ownedBy     map[string][]int
}

// point is one virtual position of a node on the hash circle.
type point struct {
	hash uint64
	node string
}

// New builds a ring of the given nodes with virtualPoints per node. Each
// stripe is owned by min(replication, len(nodes)) distinct nodes, in
// clockwise walk order from the stripe's position.
func New(nodes []string, stripes, replication int) (*Ring, error) {
	if stripes < 1 {
		return nil, fmt.Errorf("ring: need >= 1 stripe, got %d", stripes)
	}
	if replication < 1 {
		return nil, fmt.Errorf("ring: need replication >= 1, got %d", replication)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ring: need at least one node")
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, id := range sorted {
		if id == "" {
			return nil, fmt.Errorf("ring: empty node ID")
		}
		if i > 0 && sorted[i-1] == id {
			return nil, fmt.Errorf("ring: duplicate node ID %q", id)
		}
	}
	if replication > len(sorted) {
		replication = len(sorted)
	}

	points := make([]point, 0, len(sorted)*virtualPoints)
	for _, id := range sorted {
		for v := 0; v < virtualPoints; v++ {
			points = append(points, point{hash: hash64(fmt.Sprintf("%s#%d", id, v)), node: id})
		}
	}
	// Ties broken by node ID so the walk order is deterministic even under
	// (astronomically unlikely) hash collisions.
	sort.Slice(points, func(a, b int) bool {
		if points[a].hash != points[b].hash {
			return points[a].hash < points[b].hash
		}
		return points[a].node < points[b].node
	})

	r := &Ring{
		stripes:     stripes,
		replication: replication,
		nodes:       sorted,
		owners:      make([][]string, stripes),
		ownedBy:     make(map[string][]int, len(sorted)),
	}
	for s := 0; s < stripes; s++ {
		r.owners[s] = walk(points, hash64(fmt.Sprintf("stripe/%d", s)), replication)
		for _, id := range r.owners[s] {
			r.ownedBy[id] = append(r.ownedBy[id], s)
		}
	}
	return r, nil
}

// walk collects the first `want` distinct nodes clockwise from position h.
func walk(points []point, h uint64, want int) []string {
	start := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
	owners := make([]string, 0, want)
	for off := 0; off < len(points) && len(owners) < want; off++ {
		cand := points[(start+off)%len(points)].node
		dup := false
		for _, id := range owners {
			if id == cand {
				dup = true
				break
			}
		}
		if !dup {
			owners = append(owners, cand)
		}
	}
	return owners
}

// Stripes returns the virtual stripe count.
func (r *Ring) Stripes() int { return r.stripes }

// Replication returns the effective owners-per-stripe count (the requested
// factor clamped to the member count).
func (r *Ring) Replication() int { return r.replication }

// Nodes returns the sorted member IDs.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owners returns stripe s's ordered owner IDs. The first owner is the
// stripe's primary (the preferred write coordinator); order is the
// clockwise walk, so it is stable across rebuilds that do not touch these
// nodes.
//
// The slice is a read-only view of the ring's own table, not a copy, so
// the call allocates nothing. Its capacity is clipped to its length: an
// append copies first and leaves the ring unchanged. Writing an element in
// place is not allowed.
func (r *Ring) Owners(s int) ([]string, error) {
	if s < 0 || s >= r.stripes {
		return nil, fmt.Errorf("ring: stripe %d out of range of %d", s, r.stripes)
	}
	o := r.owners[s]
	return o[:len(o):len(o)], nil
}

// Owns reports whether node id owns stripe s.
func (r *Ring) Owns(id string, s int) bool {
	if s < 0 || s >= r.stripes {
		return false
	}
	for _, o := range r.owners[s] {
		if o == id {
			return true
		}
	}
	return false
}

// StripesOwnedBy returns the ascending stripe indices owned by node id
// (empty for unknown nodes).
func (r *Ring) StripesOwnedBy(id string) []int {
	return append([]int(nil), r.ownedBy[id]...)
}

// hash64 positions s on the circle: FNV-64a finished with a 64-bit
// avalanche mix. Raw FNV of short, similar labels ("node-3#17") leaves the
// high bits — which decide ring order — strongly correlated, clustering
// whole nodes together; the finalizer spreads every input bit across the
// word.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the MurmurHash3 fmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
