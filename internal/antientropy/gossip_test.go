package antientropy

import (
	"errors"
	"fmt"
	"testing"

	"versionstamp/internal/kvstore"
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
	ran, err := c.GossipRound(10)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Errorf("%d syncs ran across a full partition", ran)
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

// TestSelectPeersBiasesTowardDivergence: a hot peer (last exchange reported
// divergence) must be selected far more often than uniform choice would
// select it, yet cold peers must keep positive selection probability — the
// ε-greedy contract that makes biased gossip still live under churn.
func TestSelectPeersBiasesTowardDivergence(t *testing.T) {
	c := newCluster(t, 5)
	const stripe = 0
	pick := func() []int { return c.pickPeers(0, stripe, 2, []int{1, 2, 3, 4}, false) }
	c.markDiv(0, 3, stripe, true)
	const trials = 400
	hotHits := 0
	coldSeen := map[int]bool{}
	for trial := 0; trial < trials; trial++ {
		peers := pick()
		if len(peers) != 2 {
			t.Fatalf("pickPeers returned %d peers, want 2", len(peers))
		}
		for _, j := range peers {
			if j == 3 {
				hotHits++
			} else {
				coldSeen[j] = true
			}
		}
	}
	// Uniform choice picks peer 3 in 2 of 4 slots = 50% of trials; the
	// hot-first rounds (hotBias = 3/4) always include it, so expect
	// ~3/4 + 1/4×1/2 = 87.5%. Assert comfortably above uniform.
	if hotHits < trials*7/10 {
		t.Errorf("hot peer selected %d/%d trials; bias not in effect", hotHits, trials)
	}
	for j := 1; j < 5; j++ {
		if j != 3 && !coldSeen[j] {
			t.Errorf("cold peer %d starved across %d trials; selection must stay live", j, trials)
		}
	}
	// All cold: selection is the plain shuffle, every peer reachable.
	c.markDiv(0, 3, stripe, false)
	seen := map[int]bool{}
	for trial := 0; trial < 60; trial++ {
		for _, j := range pick() {
			seen[j] = true
		}
	}
	for j := 1; j < 5; j++ {
		if !seen[j] {
			t.Errorf("cold peer %d never selected across 60 shuffled trials", j)
		}
	}
}

// TestGossipRecordsDivergence: an exchange that moved data marks the pair
// hot; a following converged exchange cools it back down.
func TestGossipRecordsDivergence(t *testing.T) {
	c := newCluster(t, 2)
	r0, _ := c.Replica(0)
	r0.Put("k", []byte("v"))
	stripe := kvstore.ShardIndex("k", c.stripes)
	// Drive a single directed exchange (a full GossipRound runs both
	// directions, and the second, already-converged exchange would cool the
	// pair again within the same round — correctly, but uselessly here).
	round := func() {
		t.Helper()
		stats := RoundStats{BytesPerNode: make([]int64, 2)}
		if err := c.runGossip([]gossipTask{c.task(0, 1, stripe)}, &stats, nil); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if !c.divergent(0, 1, stripe) || !c.divergent(1, 0, stripe) {
		t.Errorf("divergent exchange did not mark the pair hot: %v", c.div)
	}
	round()
	if c.divergent(0, 1, stripe) || c.divergent(1, 0, stripe) {
		t.Errorf("converged exchange did not cool the pair: %v", c.div)
	}
}
