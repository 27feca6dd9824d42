package antientropy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

func TestSyncWithTreeConverges(t *testing.T) {
	server, client := clonedPair(32)
	server.Put("key-0000", []byte("newer-on-server"))
	client.Put("key-0001", []byte("newer-on-client"))
	server.Put("key-0002", []byte("conc-server"))
	client.Put("key-0002", []byte("conc-client"))
	client.Put("client-only", []byte("x"))
	server.Put("server-only", []byte("y"))
	client.Delete("key-0003")

	_, addr := startServer(t, server, kvstore.KeepBoth([]byte("|")))
	res, err := SyncWith(addr, client)
	if err != nil {
		t.Fatalf("SyncWith: %v", err)
	}
	if res.Transferred != 2 || res.Reconciled != 3 || res.Merged != 1 {
		t.Errorf("result = %+v", res)
	}
	if res.StripesSkipped == 0 {
		t.Errorf("no stripes skipped by tree roots: %+v", res)
	}
	if res.BytesSent == 0 || res.BytesReceived == 0 {
		t.Errorf("wire counters empty: %+v", res)
	}
	requireConverged(t, server, client)
	if _, ok := server.Get("key-0003"); ok {
		t.Error("tombstone did not reach the server")
	}
	if v, _ := server.Get("key-0002"); string(v) != "conc-server|conc-client" {
		t.Errorf("merged value = %q", v)
	}

	// The now-converged pair's next round matches at the root.
	res, err = SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred+res.Reconciled+res.Merged+res.Pruned != 0 {
		t.Errorf("converged round moved data: %+v", res)
	}
	if res.StripesSkipped != client.Shards() {
		t.Errorf("StripesSkipped = %d, want %d", res.StripesSkipped, client.Shards())
	}
	// Even on a throwaway session (version byte, ack, no probe to ride) a
	// converged round is one root each way, whatever the stripe count.
	if wire := res.BytesSent + res.BytesReceived; wire >= 64 {
		t.Errorf("converged one-shot round moved %dB, want < 64", wire)
	}
}

// TestTreeHotKeyWireSavings gates the wire cost of one divergent key in an
// otherwise converged keyspace, against nothing but the data itself: the
// round must cost fewer bytes than the hot stripe's digest list alone (what
// any flat per-stripe digest exchange ships), and growing the keyspace 5x
// may at most double it — the tree descent ships O(log n) fixed-size frames
// and one leaf run, not O(n) digests.
func TestTreeHotKeyWireSavings(t *testing.T) {
	hotKeyBytes := func(keys int) int64 {
		t.Helper()
		server, client := clonedPair(keys)
		_, addr := startServer(t, server, nil)
		p := NewPool()
		defer p.Close()
		// Warm the session (and both sides' trees) before measuring.
		if _, err := p.SyncWith(addr, client); err != nil {
			t.Fatal(err)
		}
		client.Put("key-0000", []byte("hot"))
		res, err := p.SyncWith(addr, client)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reconciled != 1 || res.StripesSkipped != client.Shards()-1 {
			t.Fatalf("hot-key round at %d keys: %+v", keys, res)
		}
		wire := res.BytesSent + res.BytesReceived

		stripe, err := client.StripeTree(kvstore.ShardIndex("key-0000", client.Shards()))
		if err != nil {
			t.Fatal(err)
		}
		var digestList []byte
		for _, d := range stripe.RunRange(kvstore.TreeRange{}) {
			digestList = encoding.AppendDigest(digestList, d)
		}
		if wire >= int64(len(digestList)) {
			t.Errorf("hot key at %d keys: round %dB, the stripe's digest list alone %dB",
				keys, wire, len(digestList))
		}
		t.Logf("hot key at %d keys: round %dB, stripe digest list %dB", keys, wire, len(digestList))
		return wire
	}
	small, large := hotKeyBytes(4000), hotKeyBytes(20000)
	if large > 2*small {
		t.Errorf("hot key: %dB at 20000 keys vs %dB at 4000 — more than 2x for 5x the keys", large, small)
	}
}

// TestTreeProbePipelining: on a pooled session, converged round N+1 rides
// the probe sent at the end of round N — steady-state converged rounds stay
// within a handful of bytes and never redial.
func TestTreeProbePipelining(t *testing.T) {
	server, client := clonedPair(1000)
	_, addr := startServer(t, server, nil)
	p := NewPool()
	defer p.Close()

	if _, err := p.SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := p.SyncWith(addr, client)
		if err != nil {
			t.Fatalf("steady round %d: %v", i, err)
		}
		if res.StripesSkipped != client.Shards() {
			t.Fatalf("steady round %d: %+v", i, res)
		}
		bytes := res.BytesSent + res.BytesReceived
		if bytes >= 20 {
			t.Errorf("steady converged round %d moved %dB, want < 20", i, bytes)
		}
	}
	if p.Dials() != 1 {
		t.Errorf("Dials = %d, want 1", p.Dials())
	}

	// Divergence after an armed probe must still be found: the probe answer
	// reports the stale root, and the round proceeds normally.
	client.Put("late-edit", []byte("x"))
	res, err := p.SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred+res.Reconciled != 1 {
		t.Fatalf("post-probe divergent round: %+v", res)
	}
	requireConverged(t, server, client)
}

// TestTreeProbeNeverFolds: a root probe answered while a stripe has
// unfolded writes answers "no match" and leaves every tree as it was — the
// written stripe still pending, the others the same snapshots — so a burst
// still landing is never folded in two patches. The next round folds the
// writes and converges, and a probe over clean trees matches again.
func TestTreeProbeNeverFolds(t *testing.T) {
	server, client := clonedPair(300)
	_, addr := startServer(t, server, nil)
	p := NewPool()
	defer p.Close()
	if _, err := p.SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	of := server.Shards()
	before := make([]*kvstore.DigestTree, of)
	for i := range before {
		tr, ok := server.FoldedStripeTree(i)
		if !ok {
			t.Fatalf("stripe %d not folded after a round", i)
		}
		before[i] = tr
	}
	clientRoot := func() uint64 {
		root := encoding.RootSummarySeed
		for i := 0; i < of; i++ {
			tr, err := client.StripeTree(i)
			if err != nil {
				t.Fatal(err)
			}
			root = encoding.FoldSummary(root, tr.Root())
		}
		return root
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{protocolVersion}); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{br: bufio.NewReader(conn)}
	if b, err := fr.br.ReadByte(); err != nil || b != protocolVersion {
		t.Fatalf("ack = 0x%02x, %v", b, err)
	}
	probe := func() byte {
		t.Helper()
		frame := startFrame(nil, kindRootProbe, lenSlot+8)
		frame = binary.AppendUvarint(frame, uint64(of))
		frame = binary.BigEndian.AppendUint64(frame, clientRoot())
		if err := writeFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
		body, err := fr.read()
		if err != nil {
			t.Fatal(err)
		}
		body, err = expectKind(body, kindRootMatch)
		if err != nil || len(body) != 1 {
			t.Fatalf("probe answer %x, %v", body, err)
		}
		return body[0]
	}
	if m := probe(); m != 1 {
		t.Fatalf("probe over converged, folded trees answered %d, want 1", m)
	}

	const key = "key-0007"
	written := kvstore.ShardIndex(key, of)
	server.Put(key, []byte("server-edit"))
	if m := probe(); m != 0 {
		t.Fatalf("probe with a written stripe pending answered %d, want 0", m)
	}
	for i := 0; i < of; i++ {
		tr, ok := server.FoldedStripeTree(i)
		switch {
		case i == written && ok:
			t.Fatalf("the probe folded written stripe %d", i)
		case i != written && (!ok || tr != before[i]):
			t.Fatalf("the probe replaced quiet stripe %d's tree", i)
		}
	}

	// A fresh session: the pool's own probe, pipelined behind the first
	// round, was answered before the write.
	res, err := SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred+res.Reconciled != 1 {
		t.Fatalf("round after the probe: %+v", res)
	}
	requireConverged(t, server, client)
	if _, ok := server.FoldedStripeTree(written); !ok {
		t.Fatal("the round left the written stripe unfolded")
	}
	if m := probe(); m != 1 {
		t.Fatalf("probe after the converging round answered %d, want 1", m)
	}
}

// TestTreeScopedStripes: a scoped round syncs its stripes and nothing else,
// and drains a pending whole-replica probe correctly.
func TestTreeScopedStripes(t *testing.T) {
	server, client := clonedPair(64)
	_, addr := startServer(t, server, nil)
	p := NewPool()
	defer p.Close()

	// Arm a probe with a whole-replica round first.
	if _, err := p.SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}

	client.Put("key-0000", []byte("edit-0"))
	client.Put("key-0001", []byte("edit-1"))
	in := kvstore.ShardIndex("key-0000", client.Shards())
	out := kvstore.ShardIndex("key-0001", client.Shards())
	if in == out {
		t.Fatalf("test keys landed in one stripe; pick different keys")
	}
	res, _, err := p.SyncStripes(addr, client, []int{in})
	if err != nil {
		t.Fatalf("SyncStripes: %v", err)
	}
	if res.Reconciled != 1 {
		t.Errorf("result = %+v", res)
	}
	if v, _ := server.Get("key-0000"); string(v) != "edit-0" {
		t.Errorf("scoped stripe did not sync: %q", v)
	}
	if v, _ := server.Get("key-0001"); string(v) == "edit-1" {
		t.Error("out-of-scope stripe synced")
	}

	if _, err := p.SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	requireConverged(t, server, client)
	if p.Dials() != 1 {
		t.Errorf("Dials = %d, want 1 (probe, scoped and full rounds share the session)", p.Dials())
	}
}

// TestTreeLayoutMismatch: a server refuses a client that stripes the
// keyspace differently — on the whole-replica, stripe-scoped and probe
// openings alike — with an error naming both stripe counts, and neither
// replica changes.
func TestTreeLayoutMismatch(t *testing.T) {
	server := kvstore.NewReplicaShards("server", 32)
	client := kvstore.NewReplicaShards("client8", 8)
	for i := 0; i < 100; i++ {
		server.Put(fmt.Sprintf("key-%04d", i), []byte("server"))
	}
	client.Put("key-0000", []byte("edited"))
	client.Put("extra", []byte("client-side"))
	snapshot := func(r *kvstore.Replica) []byte {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	serverBefore, clientBefore := snapshot(server), snapshot(client)
	_, addr := startServer(t, server, kvstore.KeepBoth([]byte("|")))
	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s across stripe layouts succeeded", what)
		}
		if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "32") ||
			!strings.Contains(err.Error(), "8") {
			t.Errorf("%s: %v, want a protocol error naming both stripe counts", what, err)
		}
	}

	_, err := SyncWith(addr, client)
	refused("whole-replica round", err)
	p := NewPool()
	defer p.Close()
	_, _, err = p.SyncStripes(addr, client, []int{0, 5})
	refused("stripe-scoped round", err)

	// A root probe is only ever pipelined behind a completed round, which a
	// mismatched pair never has; speak it directly.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := startFrame(nil, kindRootProbe, lenSlot+8)
	frame = binary.AppendUvarint(frame, uint64(client.Shards()))
	frame = binary.BigEndian.AppendUint64(frame, encoding.RootSummarySeed)
	if _, err := conn.Write([]byte{protocolVersion}); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{br: bufio.NewReader(conn)}
	if b, err := fr.br.ReadByte(); err != nil || b != protocolVersion {
		t.Fatalf("ack = 0x%02x, %v", b, err)
	}
	body, err := fr.read()
	if err != nil {
		t.Fatal(err)
	}
	_, err = expectKind(body, kindRootMatch)
	refused("root probe", err)

	if !bytes.Equal(snapshot(server), serverBefore) || !bytes.Equal(snapshot(client), clientBefore) {
		t.Fatal("a refused round changed a replica")
	}
}

// TestTreeConflictReportedOverWire: without a server resolver a conflicting
// key comes back in Conflicts and neither copy changes.
func TestTreeConflictReportedOverWire(t *testing.T) {
	server, client := clonedPair(4)
	server.Put("key-0000", []byte("conc-s"))
	client.Put("key-0000", []byte("conc-c"))
	_, addr := startServer(t, server, nil)
	res, err := SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 1 || res.Conflicts[0] != "key-0000" {
		t.Errorf("Conflicts = %v", res.Conflicts)
	}
	if v, _ := client.Get("key-0000"); string(v) != "conc-c" {
		t.Errorf("conflicting copy changed: %q", v)
	}
}

// TestTreeDifferentialProperty: across randomized divergence patterns, a wire
// round leaves both replicas exactly where the in-process kvstore.Sync leaves
// an identically built pair, values and stamps alike — including across a mid-test rebalance, where
// the key count crossing a TreeShape threshold changes the tree depth
// between rounds.
func TestTreeDifferentialProperty(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 3
	}
	keepBoth := kvstore.KeepBoth([]byte("|"))
	for seed := 0; seed < seeds; seed++ {
		// Few stripes so the per-stripe key count crosses the depth-1→2
		// threshold (512 keys) within an affordable test.
		build := func(label string) (*kvstore.Replica, *kvstore.Replica) {
			server := kvstore.NewReplicaShards(label, 2)
			for i := 0; i < 400; i++ {
				server.Put(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("value-%d", i)))
			}
			client := server.Clone(label + "-client")
			rng := seed + 1
			next := func(n int) int { rng = (rng*1103515245 + 12345) & 0x7fffffff; return rng % n }
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("key-%04d", i)
				switch next(7) {
				case 0:
					server.Put(k, []byte(fmt.Sprintf("s%d", next(100))))
				case 1:
					client.Put(k, []byte(fmt.Sprintf("c%d", next(100))))
				case 2:
					server.Put(k, []byte(fmt.Sprintf("s%d", next(100))))
					client.Put(k, []byte(fmt.Sprintf("c%d", next(100))))
				case 3:
					server.Delete(k)
				case 4:
					client.Delete(k)
				}
			}
			client.Put(fmt.Sprintf("fresh-%d", seed), []byte("new"))
			return server, client
		}
		grow := func(r *kvstore.Replica, from, to int) {
			for i := from; i < to; i++ {
				r.Put(fmt.Sprintf("grown-%05d", i), []byte("g"))
			}
		}

		wireServer, wireClient := build("wire")
		_, addr := startServer(t, wireServer, keepBoth)
		pool := NewPool()
		defer pool.Close()
		oracleServer, oracleClient := build("oracle")
		rounds := []struct {
			name  string
			round func() error
		}{
			{"wire", func() error { _, err := pool.SyncWith(addr, wireClient); return err }},
			{"oracle", func() error { _, err := kvstore.Sync(oracleServer, oracleClient, keepBoth); return err }},
		}
		depthBefore := treeDepth(t, wireClient)
		for _, r := range rounds {
			if err := r.round(); err != nil {
				t.Fatalf("seed %d %s: first round: %v", seed, r.name, err)
			}
		}
		requireConverged(t, wireServer, oracleServer)
		requireConverged(t, wireClient, oracleClient)
		requireSameStamps(t, wireServer, oracleServer)
		requireSameStamps(t, wireClient, oracleClient)
		// Grow both sides differently across the depth threshold, then sync
		// again: the rebalanced trees must still converge the pair.
		for _, pair := range [][2]*kvstore.Replica{{wireServer, wireClient}, {oracleServer, oracleClient}} {
			grow(pair[0], 0, 700)
			grow(pair[1], 700, 1400)
		}
		for _, r := range rounds {
			if err := r.round(); err != nil {
				t.Fatalf("seed %d %s: post-rebalance round: %v", seed, r.name, err)
			}
		}
		if depth := treeDepth(t, wireClient); depth <= depthBefore {
			t.Fatalf("seed %d: tree depth %d -> %d, the growth did not cross a shape threshold",
				seed, depthBefore, depth)
		}
		requireConverged(t, wireServer, wireClient)
		requireConverged(t, wireServer, oracleServer)
		requireConverged(t, wireClient, oracleClient)
		requireSameStamps(t, wireServer, oracleServer)
		requireSameStamps(t, wireClient, oracleClient)
	}
}

// requireSameStamps fails unless a and b hold the same keys, tombstones
// included, under Equal stamps — the same fork halves, not merely stamps
// that compare Equal.
func requireSameStamps(t *testing.T, a, b *kvstore.Replica) {
	t.Helper()
	da, db := a.Digest(), b.Digest()
	if len(da) != len(db) {
		t.Errorf("%s holds %d keys, %s %d", a.Label(), len(da), b.Label(), len(db))
		return
	}
	for i := range da {
		if da[i].Key != db[i].Key || !da[i].Stamp.Equal(db[i].Stamp) {
			t.Errorf("%s %q %v vs %s %q %v", a.Label(), da[i].Key, da[i].Stamp, b.Label(), db[i].Key, db[i].Stamp)
		}
	}
}

// treeDepth returns the depth of r's stripe-0 digest tree.
func treeDepth(t *testing.T, r *kvstore.Replica) int {
	t.Helper()
	tree, err := r.StripeTree(0)
	if err != nil {
		t.Fatal(err)
	}
	return tree.Depth()
}

// TestTreeConcurrentWritersNeverMaskDivergence: writers keep mutating the
// client while rounds run; no divergent key may ever hide behind a stale
// tree or a pipelined probe. After the writers stop, at most two more rounds
// (one for copies that moved mid-flight during the last racy round) must
// reach full convergence. Run with -race.
func TestTreeConcurrentWritersNeverMaskDivergence(t *testing.T) {
	server, client := clonedPair(64)
	_, addr := startServer(t, server, kvstore.KeepBoth([]byte("|")))
	p := NewPool()
	defer p.Close()

	const writers = 4
	var writerWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("key-%04d", (w*16+i)%64)
				client.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
				i++
			}
		}(w)
	}
	rounds := 20
	if testing.Short() {
		rounds = 6
	}
	for round := 0; round < rounds; round++ {
		if _, err := p.SyncWith(addr, client); err != nil {
			close(stop)
			writerWg.Wait()
			t.Fatalf("round %d: %v", round, err)
		}
	}
	close(stop)
	writerWg.Wait()

	for i := 0; i < 2; i++ {
		if _, err := p.SyncWith(addr, client); err != nil {
			t.Fatal(err)
		}
	}
	requireConverged(t, server, client)
}

// TestRestampRepliesCarryNoValue is the deterministic wire gate of restamp
// replies: after the client writes one key with a 4 KiB value, a pooled
// round ships the value once, client to server, and the result carries only
// its forked stamp back.
func TestRestampRepliesCarryNoValue(t *testing.T) {
	server, client := clonedPair(1000)
	_, addr := startServer(t, server, nil)
	p := NewPool()
	defer p.Close()
	if _, err := p.SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte{'v'}, 4096)
	client.Put("key-0042", value)
	res, err := p.SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconciled != 1 {
		t.Fatalf("round after one write: %+v", res)
	}
	t.Logf("4 KiB write: %dB sent, %dB received", res.BytesSent, res.BytesReceived)
	if res.BytesSent < 4096 || res.BytesReceived >= 4096 {
		t.Errorf("4 KiB write: %dB sent, %dB received; want the value sent once and not echoed back",
			res.BytesSent, res.BytesReceived)
	}
	if v, _ := server.Get("key-0042"); !bytes.Equal(v, value) {
		t.Errorf("server holds %d bytes, want the 4 KiB value", len(v))
	}
	cv, _ := client.Version("key-0042")
	sv, _ := server.Version("key-0042")
	if !bytes.Equal(cv.Value, value) || cv.Stamp.Equal(sv.Stamp) || !cv.Stamp.IDHandle().IncomparableTo(sv.Stamp.IDHandle()) {
		t.Errorf("client copy %v after the restamp, server %v: want the two halves of one fork", cv.Stamp, sv.Stamp)
	}
}

// resultTamperer sits between a client and a real server and forwards every
// frame of a round until the client's entries frame. That frame it keeps
// from the server, which therefore applies nothing, and answers the client
// with the result frame forge builds from the entries the client shipped.
func resultTamperer(t *testing.T, serverAddr string, forge func(shipped []encoding.Entry) kvstore.DeltaReply) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	forward := func(fr *frameReader, to net.Conn) ([]byte, error) {
		body, err := fr.read()
		if err != nil {
			return nil, err
		}
		return body, writeFrame(to, append(make([]byte, lenSlot), body...))
	}
	go func() {
		for {
			cli, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer cli.Close()
				srv, err := net.Dial("tcp", serverAddr)
				if err != nil {
					return
				}
				defer srv.Close()
				cfr, sfr := &frameReader{br: bufio.NewReader(cli)}, &frameReader{br: bufio.NewReader(srv)}
				v, err := cfr.br.ReadByte()
				if err != nil {
					return
				}
				if _, err := srv.Write([]byte{v}); err != nil {
					return
				}
				if v, err = sfr.br.ReadByte(); err != nil {
					return
				}
				if _, err := cli.Write([]byte{v}); err != nil {
					return
				}
				for {
					body, err := cfr.read()
					if err != nil {
						return
					}
					if body[0] != kindEntries {
						if err := writeFrame(srv, append(make([]byte, lenSlot), body...)); err != nil {
							return
						}
						if _, err := forward(sfr, cli); err != nil {
							return
						}
						continue
					}
					body = body[1:]
					n, used := binary.Uvarint(body)
					body = body[used:]
					var shipped []encoding.Entry
					for i := uint64(0); i < n; i++ {
						e, used, err := encoding.DecodeEntry(body)
						if err != nil {
							return
						}
						body = body[used:]
						shipped = append(shipped, e)
					}
					_ = writeFrame(cli, encodeResultFrame(nil, kvstore.SyncResult{}, forge(shipped)))
					return
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClientRefusesForgedRestamps: the client checks a result against what
// its round shipped before applying any of it, and refuses with ErrProtocol a
// restamp for a key it did not ship in full (it may not hold the value the
// stamp names), a key in both lists, and either list out of key order.
// Neither replica changes.
func TestClientRefusesForgedRestamps(t *testing.T) {
	server, client := clonedPair(64)
	client.Put("key-0001", []byte("client-1")) // shipped in full
	client.Put("key-0002", []byte("client-2")) // shipped in full
	server.Put("key-0005", []byte("server-5")) // shipped as a digest only
	snapshot := func(r *kvstore.Replica) []byte {
		snap, err := r.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	serverBefore, clientBefore := snapshot(server), snapshot(client)
	_, addr := startServer(t, server, nil)

	restamp := func(shipped []encoding.Entry, key string) encoding.Digest {
		for _, e := range shipped {
			if e.Key == key {
				a, _ := e.Stamp.Fork()
				return encoding.Digest{Key: key, Stamp: a}
			}
		}
		t.Errorf("the round did not ship %q in full", key)
		return encoding.Digest{Key: key}
	}
	entry := func(key string) encoding.Entry {
		return encoding.Entry{Key: key, Value: []byte("forged"), Stamp: core.Seed().Update()}
	}
	for _, tc := range []struct {
		name  string
		forge func(shipped []encoding.Entry) kvstore.DeltaReply
	}{
		{"restamp of a digest-only key", func(sh []encoding.Entry) kvstore.DeltaReply {
			s := restamp(sh, "key-0001")
			return kvstore.DeltaReply{Restamps: []encoding.Digest{s, {Key: "key-0005", Stamp: s.Stamp}}}
		}},
		{"key in both lists", func(sh []encoding.Entry) kvstore.DeltaReply {
			return kvstore.DeltaReply{
				Restamps: []encoding.Digest{restamp(sh, "key-0001")},
				Entries:  []encoding.Entry{entry("key-0001")},
			}
		}},
		{"unsorted restamps", func(sh []encoding.Entry) kvstore.DeltaReply {
			return kvstore.DeltaReply{Restamps: []encoding.Digest{restamp(sh, "key-0002"), restamp(sh, "key-0001")}}
		}},
		{"unsorted entries", func(sh []encoding.Entry) kvstore.DeltaReply {
			return kvstore.DeltaReply{Entries: []encoding.Entry{entry("key-0005"), entry("key-0001")}}
		}},
	} {
		p := NewPool()
		_, err := p.SyncWith(resultTamperer(t, addr, tc.forge), client)
		_ = p.Close()
		t.Logf("%s: %v", tc.name, err)
		if !errors.Is(err, ErrProtocol) {
			t.Errorf("%s: %v, want ErrProtocol", tc.name, err)
		}
	}
	if !bytes.Equal(snapshot(server), serverBefore) || !bytes.Equal(snapshot(client), clientBefore) {
		t.Fatal("a refused result changed a replica")
	}
}
