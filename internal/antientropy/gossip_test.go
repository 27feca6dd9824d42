package antientropy

import (
	"errors"
	"fmt"
	"testing"
)

// newCluster builds n fully replicated nodes: the ring at R = N.
func newCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	return newRingCluster(t, RingConfig{Nodes: n, Replication: n, Seed: 7})
}

func TestClusterBasics(t *testing.T) {
	c := newCluster(t, 3)
	if c.Size() != 3 {
		t.Errorf("Size = %d", c.Size())
	}
	if _, err := c.Replica(3); err == nil {
		t.Error("out-of-range replica accepted")
	}
	if err := c.Partition([]int{0}); err == nil {
		t.Error("wrong-length partition accepted")
	}
}

func TestGossipConvergence(t *testing.T) {
	c := newCluster(t, 4)
	// Each node writes its own key.
	for i := 0; i < c.Size(); i++ {
		r, err := c.Replica(i)
		if err != nil {
			t.Fatal(err)
		}
		r.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("from-%d", i)))
	}
	rounds, err := c.GossipUntilConverged(40)
	if err != nil {
		t.Fatalf("convergence: %v", err)
	}
	t.Logf("converged in %d rounds", rounds)
	// Every node has every key.
	for i := 0; i < c.Size(); i++ {
		r, _ := c.Replica(i)
		for j := 0; j < c.Size(); j++ {
			if _, ok := r.Get(fmt.Sprintf("key-%d", j)); !ok {
				t.Errorf("node %d missing key-%d", i, j)
			}
		}
	}
}

func TestGossipUnderPartition(t *testing.T) {
	c := newCluster(t, 4)
	r0, _ := c.Replica(0)
	r0.Put("shared", []byte("v1"))
	if _, err := c.GossipUntilConverged(40); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}

	// Split {0,1} | {2,3}; each side writes independently.
	if err := c.Partition([]int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	r0.Put("shared", []byte("left"))
	r2, _ := c.Replica(2)
	r2.Put("shared", []byte("right"))
	if _, err := c.GossipUntilConverged(40); err != nil {
		t.Fatalf("within-partition convergence: %v", err)
	}
	// Sides converged internally but to different values.
	r1, _ := c.Replica(1)
	r3, _ := c.Replica(3)
	v1, _ := r1.Get("shared")
	v3, _ := r3.Get("shared")
	if string(v1) != "left" || string(v3) != "right" {
		t.Fatalf("partition values: %q / %q", v1, v3)
	}

	// Heal: the concurrent writes are detected and merged by the resolver.
	c.Heal()
	if _, err := c.GossipUntilConverged(60); err != nil {
		t.Fatalf("post-heal convergence: %v", err)
	}
	va, _ := r1.Get("shared")
	vb, _ := r3.Get("shared")
	if string(va) != string(vb) {
		t.Fatalf("post-heal divergence: %q vs %q", va, vb)
	}
	if string(va) != "left|right" && string(va) != "right|left" {
		t.Errorf("merged value = %q", va)
	}
}

func TestGossipRoundSkipsPartitionedPairs(t *testing.T) {
	c := newCluster(t, 2)
	if err := c.Partition([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	stats, err := c.GossipRoundStats(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Exchanges != 0 {
		t.Errorf("%d syncs ran across a full partition", stats.Exchanges)
	}
	// Convergence across the partition is impossible; within groups of one
	// it is trivially true.
	if _, err := c.GossipUntilConverged(3); err != nil {
		t.Fatalf("per-group convergence: %v", err)
	}
}

func TestGossipNonConvergenceBudget(t *testing.T) {
	c := newCluster(t, 3)
	r0, _ := c.Replica(0)
	r0.Put("k", []byte("v"))
	// Zero rounds cannot converge a dirty cluster.
	if _, err := c.GossipUntilConverged(0); !errors.Is(err, ErrNotConverged) {
		t.Errorf("want ErrNotConverged, got %v", err)
	}
}

// TestPickPeers: the gossip peer choice is a uniform shuffle of a stripe's
// reachable co-owners, capped at k. The cap draws k distinct candidates, a
// quarantined stripe (all) draws every one, and no candidate is starved.
func TestPickPeers(t *testing.T) {
	c := newCluster(t, 5)
	cand := func() []int { return []int{1, 2, 3, 4} }
	peers := c.pickPeers(2, cand(), false)
	if len(peers) != 2 || peers[0] == peers[1] {
		t.Fatalf("pickPeers(2) of 4 = %v, want 2 distinct", peers)
	}
	if peers := c.pickPeers(2, cand(), true); len(peers) != 4 {
		t.Fatalf("pickPeers(2, all) of 4 = %v, want every candidate", peers)
	}
	seen := map[int]bool{}
	for trial := 0; trial < 60; trial++ {
		for _, j := range c.pickPeers(2, cand(), false) {
			seen[j] = true
		}
	}
	for j := 1; j < 5; j++ {
		if !seen[j] {
			t.Errorf("peer %d never selected across 60 shuffled trials", j)
		}
	}
}
