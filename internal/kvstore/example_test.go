package kvstore_test

import (
	"fmt"

	"versionstamp/internal/kvstore"
)

// An optimistically replicated shopping-cart store. Each key's copies carry
// version stamps; synchronization transfers missing keys, fast-forwards stale
// ones, and surfaces true conflicts to a merge function — the Dynamo-style
// pattern, with stamps instead of version vectors, so replicas can be cloned
// with no identifier assignment.
func ExampleSync() {
	// The store starts on one node; a second node is cloned from it (every
	// key's stamp forks — replica creation without coordination). Each
	// replica is striped over lock-per-shard partitions, so heavy
	// concurrent traffic never serializes on a single lock; a batched
	// write takes each involved shard lock once.
	nodeA := kvstore.NewReplica("node-a")
	nodeA.PutBatch(map[string][]byte{
		"cart:42": []byte("2×book"),
		"cart:77": []byte("1×pen"),
	})
	nodeB := nodeA.Clone("node-b")
	fmt.Printf("node-b cloned from node-a (%d shards each)\n", nodeB.Shards())

	// Writes land on different nodes (optimistic replication).
	nodeA.Put("cart:42", []byte("2×book,1×lamp")) // customer adds a lamp via A
	nodeB.Delete("cart:77")                       // cart 77 checked out via B
	nodeB.Put("cart:90", []byte("3×mug"))         // new cart via B

	// Anti-entropy: causality decides everything automatically here.
	res, err := kvstore.Sync(nodeA, nodeB, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("sync #1: %d transferred, %d reconciled, %d conflicts\n",
		res.Transferred, res.Reconciled, len(res.Conflicts))
	dump("node-a", nodeA)
	dump("node-b", nodeB)

	// Concurrent edits to the same cart: a real conflict.
	nodeA.Put("cart:42", []byte("2×book,1×lamp,1×rug"))
	nodeB.Put("cart:42", []byte("2×book,1×lamp,6×candle"))
	res, err = kvstore.Sync(nodeA, nodeB, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("sync #2 without resolver: conflicts on %v (left untouched)\n", res.Conflicts)

	// Resolve with a merge function (here: keep both order lines).
	res, err = kvstore.Sync(nodeA, nodeB, kvstore.KeepBoth([]byte(" & ")))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("sync #3 with resolver: %d merged\n", res.Merged)
	dump("node-a", nodeA)
	dump("node-b", nodeB)

	// Crash/restart: stamps survive serialization.
	snap, err := nodeB.Snapshot()
	if err != nil {
		fmt.Println(err)
		return
	}
	restored, err := kvstore.Restore(snap)
	if err != nil {
		fmt.Println(err)
		return
	}
	nodeA.Put("cart:90", []byte("3×mug,1×spoon"))
	res, err = kvstore.Sync(nodeA, restored, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("after node-b restart, sync reconciled %d keys\n", res.Reconciled)
	dump("restored", restored)

	// Output:
	// node-b cloned from node-a (32 shards each)
	// sync #1: 1 transferred, 2 reconciled, 0 conflicts
	//   [node-a]
	//     cart:42  = 2×book,1×lamp
	//     cart:77  = (deleted)
	//     cart:90  = 3×mug
	//   [node-b]
	//     cart:42  = 2×book,1×lamp
	//     cart:77  = (deleted)
	//     cart:90  = 3×mug
	// sync #2 without resolver: conflicts on [cart:42] (left untouched)
	// sync #3 with resolver: 1 merged
	//   [node-a]
	//     cart:42  = 2×book,1×lamp,1×rug & 2×book,1×lamp,6×candle
	//     cart:77  = (deleted)
	//     cart:90  = 3×mug
	//   [node-b]
	//     cart:42  = 2×book,1×lamp,1×rug & 2×book,1×lamp,6×candle
	//     cart:77  = (deleted)
	//     cart:90  = 3×mug
	// after node-b restart, sync reconciled 1 keys
	//   [restored]
	//     cart:42  = 2×book,1×lamp,1×rug & 2×book,1×lamp,6×candle
	//     cart:77  = (deleted)
	//     cart:90  = 3×mug,1×spoon
}

// dump prints a replica's keys in order, tombstones included.
func dump(label string, r *kvstore.Replica) {
	fmt.Printf("  [%s]\n", label)
	keys := r.Keys()
	live := r.GetBatch(keys) // one lock acquisition per shard, not per key
	for _, k := range keys {
		if v, ok := live[k]; ok {
			fmt.Printf("    %-8s = %s\n", k, v)
		} else {
			fmt.Printf("    %-8s = (deleted)\n", k)
		}
	}
}
