// Crashrecovery: a WAL-backed replica killed mid-write comes back with
// every acknowledged write, repairs a torn log tail by itself, and resumes
// anti-entropy against an untouched peer exactly where it left off —
// because the log preserves version stamps, the peer and the survivor
// agree on what already converged without re-shipping a byte of it.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/kvstore"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "crashrecovery-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// A durable replica: every Put/Delete is appended to the owning
	// stripe's log before it is acknowledged.
	store, err := kvstore.Open(dir, kvstore.Options{Label: "durable-node", Shards: 4})
	if err != nil {
		return err
	}
	store.Put("orders:1001", []byte("3×widget"))
	store.Put("orders:1002", []byte("1×gadget"))
	store.Put("orders:1001", []byte("3×widget,1×cable"))
	store.Delete("orders:1002")
	fmt.Printf("wrote 4 ops to %s (%d live keys)\n", dir, store.Len())

	// A peer replica synchronizes and keeps running while we crash.
	peer := store.Clone("peer")
	peer.Put("orders:2001", []byte("5×spring")) // lands only at the peer

	// Crash: the process dies mid-append — no Close, no checkpoint (Abandon
	// releases the directory so this process can reopen it), and the last
	// log record is torn in half, as a power cut would leave it.
	if err := store.Abandon(); err != nil {
		return err
	}
	logs, err := filepath.Glob(filepath.Join(dir, "shard-*.wal"))
	if err != nil {
		return err
	}
	var torn string
	for _, path := range logs {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		if fi.Size() > 0 {
			if err := os.Truncate(path, fi.Size()-3); err != nil {
				return err
			}
			torn = filepath.Base(path)
			break
		}
	}
	fmt.Printf("simulated crash: process gone, %s torn mid-record\n", torn)

	// Restart: Open replays each stripe's checkpoint and log tail. The torn
	// record was never acknowledged, so truncating it loses nothing the
	// caller was promised; everything acknowledged is back, stamps intact.
	revived, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("reopened: %d live keys, label %q preserved\n", revived.Len(), revived.Label())

	// Anti-entropy picks up where it left off: a round against the
	// untouched peer moves only what the stamps cannot prove equivalent —
	// the peer's new order and whatever the torn record cost us.
	srv := antientropy.NewServer(revived, kvstore.KeepBoth([]byte(" | ")))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	pool := antientropy.NewPool()
	defer pool.Close()
	res, err := pool.SyncWith(addr, peer)
	if err != nil {
		return err
	}
	fmt.Printf("recovery round: %d transferred, %d reconciled, %d stripes skipped unread\n",
		res.Transferred, res.Reconciled, res.StripesSkipped)

	// The reconciliation itself was logged: crash again without a
	// checkpoint and the synced state still survives.
	if err := srv.Close(); err != nil {
		return err
	}
	if err := revived.Abandon(); err != nil {
		return err
	}
	again, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		return err
	}
	defer again.Close()
	v, ok := again.Get("orders:2001")
	fmt.Printf("after second crash and restart: orders:2001 = %q (present: %v)\n", v, ok)

	srv2 := antientropy.NewServer(again, nil)
	addr, err = srv2.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv2.Close()
	res, err = pool.SyncWith(addr, peer)
	if err != nil {
		return err
	}
	fmt.Printf("quiescent round: %d of %d stripes skipped, %dB on the wire\n",
		res.StripesSkipped, peer.Shards(), res.BytesSent+res.BytesReceived)
	return nil
}
