package kvstore_test

import (
	"fmt"
	"os"
	"path/filepath"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/kvstore"
)

// A WAL-backed replica killed mid-write comes back with every acknowledged
// write, repairs a torn log tail by itself, and resumes anti-entropy
// against an untouched peer exactly where it left off — because the log
// and the checkpoints preserve version stamps, the peer and the survivor
// agree on what already converged without re-shipping a byte of it.
func ExampleOpen() {
	dir, err := os.MkdirTemp("", "kvstore-example-*")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)

	// A durable replica: every Put/Delete is appended to the owning
	// stripe's log before it is acknowledged. The first checkpoint writes
	// each stripe's snapshot; the second folds, appending the last log
	// entry of each changed key to its stripe's snapshot instead of
	// rewriting the stripe. Both leave the logs empty.
	store, err := kvstore.Open(dir, kvstore.Options{Label: "durable-node", Shards: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	store.Put("orders:1001", []byte("3×widget"))
	store.Put("orders:1002", []byte("1×gadget"))
	if err := store.Checkpoint(); err != nil {
		fmt.Println(err)
		return
	}
	store.Put("orders:1001", []byte("3×widget,1×cable"))
	store.Delete("orders:1002")
	if err := store.Checkpoint(); err != nil {
		fmt.Println(err)
		return
	}
	logs, err := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	if err != nil {
		fmt.Println(err)
		return
	}
	logBytes := int64(0)
	for _, path := range logs {
		if fi, err := os.Stat(path); err == nil {
			logBytes += fi.Size()
		}
	}
	fmt.Printf("4 ops, 2 checkpoints: %d live key, %dB left in the logs\n", store.Len(), logBytes)

	// A peer replica is cloned and keeps running while we crash.
	peer := store.Clone("peer")
	peer.Put("orders:2001", []byte("5×spring")) // lands only at the peer

	// One more write reaches the log, then the process dies — no Close, no
	// checkpoint (Abandon releases the directory so this process can reopen
	// it) — with that record torn in half, as a power cut would leave it.
	store.Put("orders:1003", []byte("2×hinge"))
	if err := store.Abandon(); err != nil {
		fmt.Println(err)
		return
	}
	torn := filepath.Join(dir, fmt.Sprintf("shard-%04d.wal", kvstore.ShardIndex("orders:1003", 4)))
	fi, err := os.Stat(torn)
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := os.Truncate(torn, fi.Size()-3); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("crash: the orders:1003 record torn mid-write")

	// Restart: Open replays each stripe's snapshot, its folds and its log
	// tail, truncating the torn record away. Open does not group-commit
	// (wal.Options.GroupCommit), so a write survives a process crash but
	// not a power cut, and orders:1003 is gone; everything before it is
	// back, stamps intact — orders:1001's update and orders:1002's delete
	// from the folds.
	revived, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, k := range []string{"orders:1001", "orders:1002", "orders:1003"} {
		v, ok := revived.Get(k)
		fmt.Printf("  %s = %q (present: %v)\n", k, v, ok)
	}

	// Anti-entropy picks up where it left off: a round against the
	// untouched peer moves only what the stamps cannot prove equivalent.
	srv := antientropy.NewServer(revived, kvstore.KeepBoth([]byte(" | ")))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	pool := antientropy.NewPool()
	defer pool.Close()
	res, err := pool.SyncWith(addr, peer)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("recovery round: %d transferred, %d reconciled, %d stripes skipped unread\n",
		res.Transferred, res.Reconciled, res.StripesSkipped)

	// The reconciliation itself was logged: crash again without a
	// checkpoint and the synced state still survives.
	if err := srv.Close(); err != nil {
		fmt.Println(err)
		return
	}
	if err := revived.Abandon(); err != nil {
		fmt.Println(err)
		return
	}
	again, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer again.Close()
	v, ok := again.Get("orders:2001")
	fmt.Printf("after a second crash: orders:2001 = %q (present: %v)\n", v, ok)

	srv2 := antientropy.NewServer(again, nil)
	addr, err = srv2.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv2.Close()
	res, err = pool.SyncWith(addr, peer)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("quiescent round: %d of %d stripes skipped, %dB on the wire\n",
		res.StripesSkipped, peer.Shards(), res.BytesSent+res.BytesReceived)

	// Output:
	// 4 ops, 2 checkpoints: 1 live key, 0B left in the logs
	// crash: the orders:1003 record torn mid-write
	//   orders:1001 = "3×widget,1×cable" (present: true)
	//   orders:1002 = "" (present: false)
	//   orders:1003 = "" (present: false)
	// recovery round: 1 transferred, 0 reconciled, 3 stripes skipped unread
	// after a second crash: orders:2001 = "5×spring" (present: true)
	// quiescent round: 4 of 4 stripes skipped, 26B on the wire
}

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
	for _, k := range keys {
		if v, ok := r.Get(k); ok {
			fmt.Printf("    %-8s = %s\n", k, v)
		} else {
			fmt.Printf("    %-8s = (deleted)\n", k)
		}
	}
}
