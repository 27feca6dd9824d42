// Antientropy: three replica processes synchronizing pairwise over real TCP
// connections on localhost — the weakly connected topology of the paper,
// where any two replicas that find connectivity exchange state and stamps
// decide what propagates.
//
//	go run ./examples/antientropy
package main

import (
	"fmt"
	"log"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/kvstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Three replicas; two of them also listen for peers.
	hub := kvstore.NewReplica("hub")
	edge1 := kvstore.NewReplica("edge-1")
	edge2 := kvstore.NewReplica("edge-2")

	hubSrv := antientropy.NewServer(hub, kvstore.KeepBoth([]byte(" | ")))
	hubAddr, err := hubSrv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hubSrv.Close()
	edge1Srv := antientropy.NewServer(edge1, kvstore.KeepBoth([]byte(" | ")))
	edge1Addr, err := edge1Srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer edge1Srv.Close()
	fmt.Printf("hub on %s, edge-1 on %s\n", hubAddr, edge1Addr)

	// Disconnected writes everywhere.
	hub.Put("config", []byte("v1"))
	edge1.Put("sensor:1", []byte("21.5C"))
	edge2.Put("sensor:2", []byte("17.0C"))

	// edge-2 finds the hub: one round merges both directions.
	res, err := antientropy.SyncWith(hubAddr, edge2)
	if err != nil {
		return err
	}
	fmt.Printf("edge-2 <-> hub: %d keys transferred\n", res.Transferred)

	// The steady state is a pooled session: rounds to one peer ride one TCP
	// connection. Right after the sync above the pair is converged, so each
	// round compares one 8-byte root and moves nothing else — no matter how
	// large the keyspace is — and from the second round on the answer is
	// already in flight when the round starts.
	pool := antientropy.NewPool()
	defer pool.Close()
	for round := 1; round <= 3; round++ {
		res, err = pool.SyncWith(hubAddr, edge2)
		if err != nil {
			return err
		}
		fmt.Printf("edge-2 <-> hub (pooled round %d): %d/%d stripes skipped at the root, %dB on the wire, %d dial(s) so far\n",
			round, res.StripesSkipped, edge2.Shards(), res.BytesSent+res.BytesReceived, pool.Dials())
	}

	// One edit, one stripe: a round scoped to the stripe that owns the key
	// descends that stripe's digest tree to the one leaf that differs and
	// ships a single copy, on the same session.
	edge2.Put("sensor:2", []byte("17.4C"))
	stripe := kvstore.ShardIndex("sensor:2", edge2.Shards())
	res, err = pool.SyncStripes(hubAddr, edge2, []int{stripe})
	if err != nil {
		return err
	}
	fmt.Printf("edge-2 <-> hub (stripe %d of %d only): %d reconciled, %dB on the wire\n",
		stripe, edge2.Shards(), res.Reconciled, res.BytesSent+res.BytesReceived)

	// edge-2 later meets edge-1 directly (no hub involved).
	res, err = antientropy.SyncWith(edge1Addr, edge2)
	if err != nil {
		return err
	}
	fmt.Printf("edge-2 <-> edge-1: %d keys transferred\n", res.Transferred)

	// A conflicting config edit on hub and edge-1, resolved at sync time.
	hub.Put("config", []byte("v2-hub"))
	edge1.Put("config", []byte("v2-edge"))
	if _, err := antientropy.SyncWith(hubAddr, edge1); err != nil {
		return err
	}
	got, _ := hub.Get("config")
	fmt.Printf("config after conflicting edits and sync: %q\n", got)

	// Gossip closes the loop: edge-2 pulls the merged config from edge-1.
	if _, err := antientropy.SyncWith(edge1Addr, edge2); err != nil {
		return err
	}
	for _, r := range []*kvstore.Replica{hub, edge1, edge2} {
		fmt.Printf("  [%s]\n", r.Label())
		for _, k := range r.Keys() {
			if v, ok := r.Get(k); ok {
				fmt.Printf("    %-9s = %s\n", k, v)
			}
		}
	}
	return nil
}
