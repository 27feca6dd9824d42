package antientropy_test

import (
	"fmt"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/kvstore"
)

// Three replicas synchronizing pairwise over real TCP connections on
// localhost — the weakly connected topology of the paper, where any two
// replicas that find connectivity exchange state and stamps decide what
// propagates.
func ExampleSyncWith() {
	// Three replicas; two of them also listen for peers.
	hub := kvstore.NewReplica("hub")
	edge1 := kvstore.NewReplica("edge-1")
	edge2 := kvstore.NewReplica("edge-2")
	listen := func(r *kvstore.Replica) (*antientropy.Server, string) {
		srv := antientropy.NewServer(r, kvstore.KeepBoth([]byte(" | ")))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		return srv, addr
	}
	hubSrv, hubAddr := listen(hub)
	defer hubSrv.Close()
	edge1Srv, edge1Addr := listen(edge1)
	defer edge1Srv.Close()
	sync := func(addr string, r *kvstore.Replica) kvstore.SyncResult {
		res, err := antientropy.SyncWith(addr, r)
		if err != nil {
			panic(err)
		}
		return res
	}

	// Disconnected writes everywhere.
	hub.Put("config", []byte("v1"))
	edge1.Put("sensor:1", []byte("21.5C"))
	edge2.Put("sensor:2", []byte("17.0C"))

	// edge-2 finds the hub: one round merges both directions.
	fmt.Printf("edge-2 <-> hub: %d keys transferred\n", sync(hubAddr, edge2).Transferred)

	// The steady state is a pooled session: rounds to one peer ride one TCP
	// connection. Right after the sync above the pair is converged, so each
	// round compares one 8-byte root and moves nothing else — no matter how
	// large the keyspace is — and from the second round on the answer is
	// already in flight when the round starts.
	pool := antientropy.NewPool()
	defer pool.Close()
	for round := 1; round <= 3; round++ {
		res, err := pool.SyncWith(hubAddr, edge2)
		if err != nil {
			panic(err)
		}
		fmt.Printf("edge-2 <-> hub (pooled round %d): %d/%d stripes skipped at the root, %dB on the wire, %d dial(s) so far\n",
			round, res.StripesSkipped, edge2.Shards(), res.BytesSent+res.BytesReceived, pool.Dials())
	}

	// One edit, one stripe: a round scoped to the stripe that owns the key
	// descends that stripe's digest tree to the one leaf that differs and
	// ships a single copy, on the same session.
	edge2.Put("sensor:2", []byte("17.4C"))
	stripe := kvstore.ShardIndex("sensor:2", edge2.Shards())
	res, err := pool.SyncStripes(hubAddr, edge2, []int{stripe})
	if err != nil {
		panic(err)
	}
	fmt.Printf("edge-2 <-> hub (stripe %d of %d only): %d reconciled, %dB on the wire\n",
		stripe, edge2.Shards(), res.Reconciled, res.BytesSent+res.BytesReceived)

	// edge-2 later meets edge-1 directly (no hub involved).
	fmt.Printf("edge-2 <-> edge-1: %d keys transferred\n", sync(edge1Addr, edge2).Transferred)

	// A conflicting config edit on hub and edge-1, resolved at sync time.
	hub.Put("config", []byte("v2-hub"))
	edge1.Put("config", []byte("v2-edge"))
	sync(hubAddr, edge1)
	got, _ := hub.Get("config")
	fmt.Printf("config after conflicting edits and sync: %q\n", got)

	// Gossip closes the loop: edge-2 pulls the merged config from edge-1.
	sync(edge1Addr, edge2)
	for _, r := range []*kvstore.Replica{hub, edge1, edge2} {
		fmt.Printf("[%s]\n", r.Label())
		for _, k := range r.Keys() {
			if v, ok := r.Get(k); ok {
				fmt.Printf("  %-9s = %s\n", k, v)
			}
		}
	}
	// Output:
	// edge-2 <-> hub: 2 keys transferred
	// edge-2 <-> hub (pooled round 1): 32/32 stripes skipped at the root, 26B on the wire, 1 dial(s) so far
	// edge-2 <-> hub (pooled round 2): 32/32 stripes skipped at the root, 14B on the wire, 1 dial(s) so far
	// edge-2 <-> hub (pooled round 3): 32/32 stripes skipped at the root, 14B on the wire, 1 dial(s) so far
	// edge-2 <-> hub (stripe 19 of 32 only): 1 reconciled, 107B on the wire
	// edge-2 <-> edge-1: 3 keys transferred
	// config after conflicting edits and sync: "v2-hub | v2-edge"
	// [hub]
	//   config    = v2-hub | v2-edge
	//   sensor:1  = 21.5C
	//   sensor:2  = 17.4C
	// [edge-1]
	//   config    = v2-hub | v2-edge
	//   sensor:1  = 21.5C
	//   sensor:2  = 17.4C
	// [edge-2]
	//   config    = v2-hub | v2-edge
	//   sensor:1  = 21.5C
	//   sensor:2  = 17.4C
}

// The partitioned store end to end. A nine-node ring with three-way
// replication takes quorum writes, loses an owner mid-flight, keeps
// serving quorum reads on the surviving replicas, queues hinted handoff for
// the dead node, and — once the node revives — drains the hints and
// converges back to full replication through owner-scoped anti-entropy.
func ExampleNewRingCluster() {
	fmt.Println("== a 9-node ring, R=3, quorum 2-of-3 ==")
	c, err := antientropy.NewRingCluster(antientropy.RingConfig{
		Nodes:        9,
		Replication:  3,
		Stripes:      64,
		Seed:         42,
		SuspectAfter: 1,
		DeadAfter:    2,
	})
	if err != nil {
		panic(err)
	}
	defer c.Close()
	status := func(node int) antientropy.NodeStatus {
		st, err := c.Status(node)
		if err != nil {
			panic(err)
		}
		return st
	}
	write := func(suffix string) {
		for i := 0; i < 12; i++ {
			key := fmt.Sprintf("sensor-%02d", i)
			if _, err := c.Write(key, []byte(fmt.Sprintf("reading-%d%s", i, suffix))); err != nil {
				panic(err)
			}
		}
	}
	read := func(key string) {
		v, ok, err := c.Read(key)
		if err != nil || !ok {
			panic(fmt.Sprintf("quorum read %s: %v ok=%v", key, err, ok))
		}
		fmt.Printf("quorum read %s = %q\n", key, v)
	}

	write("")
	fmt.Printf("wrote 12 keys; node-0 owns %d of 64 stripes\n", len(status(0).OwnedStripes))

	// Any node will do for the demo — every node owns ~R*stripes/N of the
	// keyspace, so node-4 is some keys' coordinator and others' replica.
	const victim = 4
	fmt.Printf("\n== node-%d dies ==\n", victim)
	if err := c.Kill(victim); err != nil {
		panic(err)
	}
	// A couple of rounds let heartbeats lapse: peers suspect, then declare
	// the node dead. Ownership does NOT move — hinted handoff bridges the
	// outage instead of reshuffling the ring.
	for i := 0; i < 4; i++ {
		if _, err := c.GossipRound(2); err != nil {
			panic(err)
		}
	}
	for _, m := range status(0).Members {
		if m.ID == fmt.Sprintf("node-%d", victim) {
			fmt.Printf("node-0's opinion of node-%d: %s\n", victim, m.State)
		}
	}

	// Writes to stripes the dead node owns still reach quorum: the
	// coordinator applies locally, syncs the other live owner, and queues a
	// durable hint for the dead one.
	write("-v2")
	fmt.Printf("all 12 writes reached quorum; %d hints queued for node-%d\n", c.HintsPending(), victim)
	read("sensor-03")

	fmt.Printf("\n== node-%d comes back ==\n", victim)
	if err := c.Revive(victim); err != nil {
		panic(err)
	}
	rounds, err := c.GossipUntilConverged(60)
	if err != nil {
		panic(err)
	}
	fmt.Printf("converged in %d gossip rounds; pending hints: %d\n", rounds, c.HintsPending())
	fmt.Printf("node-%d is back, owning %d stripes again\n", victim, len(status(victim).OwnedStripes))
	read("sensor-03")
	// Output:
	// == a 9-node ring, R=3, quorum 2-of-3 ==
	// wrote 12 keys; node-0 owns 23 of 64 stripes
	//
	// == node-4 dies ==
	// node-0's opinion of node-4: dead
	// all 12 writes reached quorum; 3 hints queued for node-4
	// quorum read sensor-03 = "reading-3-v2"
	//
	// == node-4 comes back ==
	// converged in 1 gossip rounds; pending hints: 0
	// node-4 is back, owning 20 stripes again
	// quorum read sensor-03 = "reading-3-v2"
}
