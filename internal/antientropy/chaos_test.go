package antientropy

import (
	"fmt"
	"testing"

	"versionstamp/internal/chaosnet"
	"versionstamp/internal/kvstore"
)

// These tests run the real protocol stack — session opening and ack, rounds,
// the pool's retry discipline, ring clusters — over an injected
// chaosnet transport instead of TCP. The production code paths are
// identical; only the Transport differs.

// chaosProvider adapts a fabric to the cluster's per-node transport hook.
func chaosProvider(fab *chaosnet.Fabric) TransportProvider {
	return func(nodeID string) Transport { return fab.Node(nodeID) }
}

func TestPoolSyncOverChaosnet(t *testing.T) {
	fab := chaosnet.New(1)
	defer fab.Close()

	server := kvstore.NewReplicaShards("srv", 8)
	client := kvstore.NewReplicaShards("cli", 8)
	for i := 0; i < 50; i++ {
		server.Put(fmt.Sprintf("s-%d", i), []byte("from-server"))
		client.Put(fmt.Sprintf("c-%d", i), []byte("from-client"))
	}

	srv := NewServer(server, nil)
	addr, err := srv.ListenTransport(fab.Node("srv"), ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if addr != "srv" {
		t.Fatalf("chaosnet listen addr = %q, want host id", addr)
	}

	pool := NewPoolOptions(PoolOptions{Transport: fab.Node("cli"), Idle: -1})
	defer pool.Close()
	res, err := pool.SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred == 0 {
		t.Fatalf("nothing transferred: %+v", res)
	}
	// Second round over the same pooled session: converged, root-hash only.
	res2, err := pool.SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Transferred != 0 {
		t.Fatalf("second round transferred %d", res2.Transferred)
	}
	if pool.Dials() != 1 {
		t.Fatalf("dials = %d, want 1 (pooled session)", pool.Dials())
	}
	if got, _ := server.Get("c-0"); string(got) != "from-client" {
		t.Fatalf("server missed client key: %q", got)
	}
	if got, _ := client.Get("s-0"); string(got) != "from-server" {
		t.Fatalf("client missed server key: %q", got)
	}
}

func TestPoolSyncSurvivesLossyLink(t *testing.T) {
	fab := chaosnet.New(2)
	defer fab.Close()
	// Lossy but not hostile: drops are retransmitted, dups discarded,
	// reorder reassembled. The frames must come through intact.
	fab.SetDefaultFaults(chaosnet.Faults{
		DelayTicks: 1, JitterTicks: 3,
		DropProb: 0.1, DupProb: 0.1, ReorderProb: 0.2,
	})

	server := kvstore.NewReplicaShards("srv", 8)
	client := kvstore.NewReplicaShards("cli", 8)
	for i := 0; i < 200; i++ {
		server.Put(fmt.Sprintf("s-%d", i), []byte("payload-with-some-length-to-it"))
	}
	srv := NewServer(server, nil)
	addr, err := srv.ListenTransport(fab.Node("srv"), ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := NewPoolOptions(PoolOptions{Transport: fab.Node("cli"), Idle: -1})
	defer pool.Close()
	// Under loss a round can die on a connection reset (retransmission
	// exhaustion); the pool's retry rules apply exactly as over TCP. A few
	// attempts must converge the pair.
	converged := false
	for attempt := 0; attempt < 20 && !converged; attempt++ {
		if _, err := pool.SyncWith(addr, client); err != nil {
			continue
		}
		v, ok := client.Get("s-199")
		converged = ok && string(v) == "payload-with-some-length-to-it"
	}
	if !converged {
		t.Fatal("client never converged over lossy link")
	}
	if fab.Stats().Drops == 0 {
		t.Fatal("fault injection did not fire")
	}
}

func TestRingClusterOverChaosnet(t *testing.T) {
	fab := chaosnet.New(4)
	defer fab.Close()
	c, err := NewRingCluster(RingConfig{
		Nodes: 5, Replication: 3, Stripes: 16, Seed: 1,
		Transport:     chaosProvider(fab),
		PoolIdle:      -1,
		GossipWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 60; i++ {
		if _, err := c.Write(fmt.Sprintf("key-%03d", i), []byte("v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	rounds, err := c.GossipUntilConverged(40)
	if err != nil {
		t.Fatalf("convergence over chaosnet: %v", err)
	}
	if rounds == 0 {
		t.Fatal("no rounds ran")
	}
	v, ok, err := c.Read("key-000")
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("read after convergence: %q %v %v", v, ok, err)
	}
}

// TestGossipNeverContactsUnreachablePeer checks the schedule, not the pool:
// with one node killed and the ring partitioned, a round exchanges only with
// co-owners that are up and on its side of the split, so no exchange fails
// and no dial crosses the partition.
func TestGossipNeverContactsUnreachablePeer(t *testing.T) {
	fab := chaosnet.New(6)
	defer fab.Close()
	c, err := NewRingCluster(RingConfig{
		Nodes: 7, Replication: 3, Stripes: 16, Seed: 6,
		Transport:     chaosProvider(fab),
		PoolIdle:      -1,
		GossipWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 40; i++ {
		if _, err := c.Write(fmt.Sprintf("key-%03d", i), []byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GossipUntilConverged(40); err != nil {
		t.Fatal(err)
	}

	victim := 6
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	fab.Partition(map[string]int{"node-0": 0, "node-1": 0, "node-2": 0, "node-3": 0,
		"node-4": 1, "node-5": 1, "node-6": 1})
	if err := c.Partition([]int{0, 0, 0, 0, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.Write(fmt.Sprintf("part-%03d", i), []byte("during")) // quorum may fail
	}
	dialsFailed := fab.Stats().DialsFailed
	exchanges := 0
	for r := 0; r < 6; r++ {
		stats, err := c.GossipRoundStats(2)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if len(stats.Errors) != 0 {
			t.Fatalf("round %d contacted an unreachable peer: %+v", r, stats.Errors)
		}
		exchanges += stats.Exchanges
	}
	if exchanges == 0 {
		t.Fatal("no exchanges ran during the partition")
	}
	if got := fab.Stats().DialsFailed; got != dialsFailed {
		t.Fatalf("gossip dialed across the partition: DialsFailed %d -> %d", dialsFailed, got)
	}

	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	fab.Heal()
	c.Heal()
	if _, err := c.GossipUntilConverged(60); err != nil {
		t.Fatalf("no convergence after revive and heal: %v", err)
	}
}

func TestRingClusterPartitionHealOverChaosnet(t *testing.T) {
	fab := chaosnet.New(5)
	defer fab.Close()
	c, err := NewRingCluster(RingConfig{
		Nodes: 6, Replication: 3, Stripes: 16, Seed: 2,
		Transport:     chaosProvider(fab),
		PoolIdle:      -1,
		GossipWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 40; i++ {
		if _, err := c.Write(fmt.Sprintf("key-%03d", i), []byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GossipUntilConverged(40); err != nil {
		t.Fatal(err)
	}

	// Partition the fabric AND the cluster's own topology view: nodes 0-2
	// vs 3-5. The cluster's group check stops it scheduling cross-group
	// exchanges; the fabric partition enforces it at the network.
	fab.Partition(map[string]int{"node-0": 0, "node-1": 0, "node-2": 0, "node-3": 1, "node-4": 1, "node-5": 1})
	if err := c.Partition([]int{0, 0, 0, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	// Writes during the partition land on whatever owners are reachable.
	for i := 0; i < 20; i++ {
		c.Write(fmt.Sprintf("part-%03d", i), []byte("during")) // quorum may fail; that's the point
	}
	for r := 0; r < 6; r++ {
		c.GossipRound(2) // rounds during the partition must not wedge
	}

	fab.Heal()
	c.Heal()
	if _, err := c.GossipUntilConverged(60); err != nil {
		t.Fatalf("no convergence after heal: %v", err)
	}
}

func TestHintOverflowConvergesViaAntiEntropy(t *testing.T) {
	// A receiver that stays dead while many writes target it must not grow
	// the coordinators' hint queues unboundedly: the cap drops the oldest
	// hints, and after revival anti-entropy — not the handoff — converges
	// the keys whose hints were lost.
	c, err := NewRingCluster(RingConfig{
		Nodes: 4, Replication: 3, Stripes: 8, Seed: 3,
		HintCap:       5,
		GossipWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.GossipUntilConverged(20); err != nil {
		t.Fatal(err)
	}

	victim := 1
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// Let membership declare the victim dead so writes hint instead of
	// failing their push.
	for r := 0; r < 8; r++ {
		c.GossipRound(2)
	}
	// Far more writes than the cap can hold as hints.
	for i := 0; i < 200; i++ {
		if _, err := c.Write(fmt.Sprintf("flood-%03d", i), []byte("v")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if c.HintsDropped() == 0 {
		t.Fatal("cap never dropped a hint — test is not exercising overflow")
	}
	if got := c.HintsPending(); got > 3*5*8 { // coords x cap x stripes is a loose ceiling
		t.Fatalf("hint queues grew past the cap: %d pending", got)
	}

	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	// Convergence must still be reached: surviving hints drain, and the
	// stripe-scoped anti-entropy rounds cover everything the dropped hints
	// promised.
	if _, err := c.GossipUntilConverged(60); err != nil {
		t.Fatalf("cluster did not converge after hint overflow: %v", err)
	}
	rep, err := c.Replica(victim)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("flood-%03d", i)
		if owned(c, victim, key) {
			if _, ok := rep.Get(key); !ok {
				missing++
			}
		}
	}
	if missing > 0 {
		t.Fatalf("revived node still missing %d owned flood keys", missing)
	}
}

// owned reports whether node i owns key's stripe per its own ring.
func owned(c *Cluster, i int, key string) bool {
	st, err := c.Status(i)
	if err != nil {
		return false
	}
	stripe := kvstore.ShardIndex(key, c.stripes)
	for _, s := range st.OwnedStripes {
		if s == stripe {
			return true
		}
	}
	return false
}
