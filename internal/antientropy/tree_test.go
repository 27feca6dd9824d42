package antientropy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// TestTreeFindsKeysCreatedAtBothEnds: two fresh replicas each create one
// key with their own value. Both copies are Seed().Update(), equal update
// components under overlapping ids, and only their content tells them
// apart. One round over the wire must find the key and leave both ends with
// the value and stamp order the in-process kvstore.Sync gives, and the
// next round must find the pair converged at the root.
func TestTreeFindsKeysCreatedAtBothEnds(t *testing.T) {
	keepBoth := kvstore.KeepBoth([]byte("|"))
	create := func() (server, client *kvstore.Replica) {
		server, client = kvstore.NewReplica("b"), kvstore.NewReplica("a")
		client.Put("k", []byte("from-a"))
		server.Put("k", []byte("from-b"))
		return server, client
	}
	oracleS, oracleC := create()
	want, err := kvstore.Sync(oracleS, oracleC, keepBoth)
	if err != nil || want.Merged != 1 {
		t.Fatalf("kvstore.Sync: %+v, %v; want the key merged", want, err)
	}
	server, client := create()
	_, addr := startServer(t, server, keepBoth)
	res, err := SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 || res.StripesSkipped != client.Shards()-1 {
		t.Errorf("round %+v; want the key merged in its one stripe", res)
	}
	for _, p := range [][2]*kvstore.Replica{{server, oracleS}, {client, oracleC}} {
		got, _ := p[0].Stored("k")
		exp, _ := p[1].Stored("k")
		if !bytes.Equal(got.Value, exp.Value) {
			t.Errorf("%s holds %q, kvstore.Sync gives %q", p[0].Label(), got.Value, exp.Value)
		}
	}
	s, _ := server.Stored("k")
	c, _ := client.Stored("k")
	os, _ := oracleS.Stored("k")
	oc, _ := oracleC.Stored("k")
	if core.Compare(s.Stamp, c.Stamp) != core.Compare(os.Stamp, oc.Stamp) {
		t.Errorf("the ends' stamps compare %v, kvstore.Sync's %v", core.Compare(s.Stamp, c.Stamp), core.Compare(os.Stamp, oc.Stamp))
	}
	requireConverged(t, server, client)
	if res, err := SyncWith(addr, client); err != nil || res.StripesSkipped != client.Shards() {
		t.Errorf("the next round: %+v, %v; want a root match", res, err)
	}
}

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

		idx := kvstore.ShardIndex("key-0000", client.Shards())
		stripe, err := client.StripeTree(idx)
		if err != nil {
			t.Fatal(err)
		}
		var digestList []byte
		for _, d := range stripe.RunRange(kvstore.TreeRange{}) {
			digestList = encoding.AppendDigest(digestList, d.Digest)
		}
		client.ReleaseStripeTree(idx)
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
	before := make([]uint64, of)
	for i := range before {
		r, ok := server.FoldedStripeRoot(i)
		if !ok {
			t.Fatalf("stripe %d not folded after a round", i)
		}
		before[i] = r
	}
	clientRoot := func() uint64 {
		var root uint64
		for i := 0; i < of; i++ {
			r, err := client.StripeRoot(i)
			if err != nil {
				t.Fatal(err)
			}
			root ^= r
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
		if err := writeRoot(&frameWriter{w: conn}, kindRootProbe, of, clientRoot()); err != nil {
			t.Fatal(err)
		}
		kind, body, err := readFrame(&fr)
		if err != nil {
			t.Fatal(err)
		}
		if kind != kindRootMatch || len(body) != 1 {
			t.Fatalf("probe answer 0x%02x %x", kind, body)
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
		r, ok := server.FoldedStripeRoot(i)
		switch {
		case i == written && ok:
			t.Fatalf("the probe folded written stripe %d", i)
		case i != written && (!ok || r != before[i]):
			t.Fatalf("the probe moved quiet stripe %d's root", i)
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
	if _, ok := server.FoldedStripeRoot(written); !ok {
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
	res, err := p.SyncStripes(addr, client, []int{in})
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
	serverBefore, clientBefore := storedCopies(server), storedCopies(client)
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
	_, err = p.SyncStripes(addr, client, []int{0, 5})
	refused("stripe-scoped round", err)

	// A root probe is only ever pipelined behind a completed round, which a
	// mismatched pair never has; speak it directly.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{protocolVersion}); err != nil {
		t.Fatal(err)
	}
	if err := writeRoot(&frameWriter{w: conn}, kindRootProbe, client.Shards(), 0); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{br: bufio.NewReader(conn)}
	if b, err := fr.br.ReadByte(); err != nil || b != protocolVersion {
		t.Fatalf("ack = 0x%02x, %v", b, err)
	}
	refused("root probe", fr.expect(kindRootMatch))

	if !sameCopies(storedCopies(server), serverBefore) || !sameCopies(storedCopies(client), clientBefore) {
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
			// Keys created at both ends, with different values: independent
			// copies under equal update components, which only their
			// content tells apart.
			for i := 0; i < 1+next(20); i++ {
				k := fmt.Sprintf("both-%d-%d", seed, i)
				server.Put(k, []byte(fmt.Sprintf("s%d", next(100))))
				client.Put(k, []byte(fmt.Sprintf("c%d", next(100))))
			}
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

// storedCopies captures every copy r stores, tombstones included: value,
// tombstone flag and full stamp, by key.
func storedCopies(r *kvstore.Replica) map[string]kvstore.Versioned {
	out := make(map[string]kvstore.Versioned)
	for _, k := range r.Keys() {
		if v, ok := r.Version(k); ok {
			out[k] = v
		}
	}
	return out
}

// sameCopies reports whether two captures hold the same keys with the same
// values, tombstone flags and stamps — the same ids, not merely stamps that
// compare Equal.
func sameCopies(a, b map[string]kvstore.Versioned) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || va.Deleted != vb.Deleted || !bytes.Equal(va.Value, vb.Value) || !va.Stamp.Equal(vb.Stamp) {
			return false
		}
	}
	return true
}

// treeDepth returns the depth of r's stripe-0 digest tree.
func treeDepth(t *testing.T, r *kvstore.Replica) int {
	t.Helper()
	tree, err := r.StripeTree(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.ReleaseStripeTree(0)
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

// frameAt returns the kind and body of the frame unread starts with.
func frameAt(unread *bytes.Buffer) (byte, []byte) {
	b := unread.Bytes()
	n, used := binary.Uvarint(b)
	return b[used], b[used+1 : used+int(n)]
}

// forgeFrame replaces the frame unread starts with by one of kind and body.
func forgeFrame(unread *bytes.Buffer, kind byte, body []byte) {
	b := unread.Bytes()
	n, used := binary.Uvarint(b)
	rest := bytes.Clone(b[used+int(n):])
	unread.Reset()
	unread.Write(appendFrame(nil, kind, body))
	unread.Write(rest)
}

// ordinalsBody is a need frame's body naming ords, delta-coded as they come.
func ordinalsBody(count int, ords ...int) []byte {
	body := binary.AppendUvarint(nil, uint64(count))
	var o ordinals
	for _, ord := range ords {
		body = binary.AppendUvarint(body, o.put(ord))
	}
	return body
}

// digestOrdinal returns the ordinal of the digest of key the client machine
// shipped.
func digestOrdinal(t *testing.T, c *clientRound, key string) int {
	ord := 0
	for _, r := range c.shipped.runs {
		for i := 0; i < r.len(); i++ {
			if r.digest(i).Key == key {
				return ord
			}
			ord++
		}
	}
	t.Fatalf("the round shipped no digest of %q", key)
	return -1
}

// needOrdinal returns the place in the need frame of the need for key.
func needOrdinal(t *testing.T, c *clientRound, key string) int {
	for i, s := range c.sends {
		if s.entry.Key == key {
			return i
		}
	}
	t.Fatalf("the round shipped no entry of %q", key)
	return -1
}

// forgedPair builds the pair the forged-frame tests run a round over — the
// client ships key-0001 and key-0002 in full and key-0005 as a digest only,
// in three leaves of about four keys, whose other keys answer the server's
// terms — and runs one round through the lockstep driver, with
// forge called before each frame is received. The round must fail with
// ErrProtocol and change neither replica. A forge that writes at the client
// itself says so (wrote), and the client is then held to what it held after
// that write.
func forgedPair(t *testing.T, forge func(l *lockstep, kind byte, unread *bytes.Buffer) (wrote bool)) error {
	server, client := clonedPair(2048)
	client.Put("key-0001", []byte("client-1"))
	client.Put("key-0002", []byte("client-2"))
	server.Put("key-0005", []byte("server-5"))
	serverBefore, clientBefore := storedCopies(server), storedCopies(client)
	l := newLockstep(server, client, nil)
	l.before = func(_ int, unread *bytes.Buffer) {
		if unread.Len() == 0 {
			return
		}
		if kind, _ := frameAt(unread); forge(l, kind, unread) {
			clientBefore = storedCopies(client)
		}
	}
	_, err := l.round(t, nil)
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("forged round: %v, want ErrProtocol", err)
	}
	if !sameCopies(storedCopies(server), serverBefore) || !sameCopies(storedCopies(client), clientBefore) {
		t.Errorf("a refused round changed a replica (%v)", err)
	}
	return err
}

// TestClientRefusesForgedRestamps: the client checks the need and result
// frames against what its round shipped before answering or applying any of
// them, and refuses with ErrProtocol a need ordinal past its digests, a
// repeated or descending need ordinal, a restamp of a need past the needs or
// of one whose key had vanished (so no entry answered it), a key in both
// lists, repeated or descending restamp ordinals, a reply
// ordinal past its digests or descending, and an entry named by its key
// outside the leaf ranges it shipped or for a key it shipped a digest of.
// Neither replica changes.
func TestClientRefusesForgedRestamps(t *testing.T) {
	s := core.Seed().Update()
	entry := func(key string) encoding.Entry { return encoding.Entry{Key: key, Value: []byte("forged"), Stamp: s} }
	type forgery struct {
		name   string
		need   func(c *clientRound) []byte                          // the need frame's body, nil: the server's
		vanish bool                                                 // key-0001 vanishes at the client before the need arrives
		result func(c *clientRound) (kvstore.DeltaReply, replyRefs) // the result, instead of the entries reaching the server
	}
	// unshipped returns a key outside every leaf range the round shipped.
	unshipped := func(c *clientRound) string {
		for i := 0; ; i++ {
			if k := fmt.Sprint("new-", i); c.shipped.runAt(kvstore.ShardIndex(k, c.of), encoding.TreePos(k)) < 0 {
				return k
			}
		}
	}
	restamp := func(refs ...int) (kvstore.DeltaReply, replyRefs) {
		reply := kvstore.DeltaReply{Restamps: make([]encoding.Digest, len(refs))}
		for i := range reply.Restamps {
			reply.Restamps[i].Stamp = s
		}
		return reply, replyRefs{restamps: refs}
	}
	entries := func(refs []int, keys ...string) (kvstore.DeltaReply, replyRefs) {
		var reply kvstore.DeltaReply
		for i := range refs {
			k := ""
			if refs[i] < 0 {
				k, keys = keys[0], keys[1:]
			}
			reply.Entries = append(reply.Entries, entry(k))
		}
		return reply, replyRefs{entries: refs}
	}
	for _, tc := range []forgery{
		{"need ordinal past the digests", func(c *clientRound) []byte { return ordinalsBody(1, c.shipped.n) }, false, nil},
		{"need count past the digests", func(c *clientRound) []byte { return ordinalsBody(c.shipped.n+1, 0) }, false, nil},
		{"repeated need ordinal", func(c *clientRound) []byte { return ordinalsBody(2, 1, 1) }, false, nil},
		{"descending need ordinals", func(c *clientRound) []byte { return ordinalsBody(2, 2, 1) }, false, nil},
		{"restamp of a need past the needs", nil, false, func(c *clientRound) (kvstore.DeltaReply, replyRefs) {
			return restamp(len(c.sends))
		}},
		{"restamp of a need whose key vanished", nil, true, func(c *clientRound) (kvstore.DeltaReply, replyRefs) {
			return restamp(needOrdinal(t, c, "key-0001"))
		}},
		{"key in both lists", nil, false, func(c *clientRound) (kvstore.DeltaReply, replyRefs) {
			reply, refs := restamp(needOrdinal(t, c, "key-0001"))
			reply.Entries = []encoding.Entry{entry("")}
			refs.entries = []int{digestOrdinal(t, c, "key-0001")}
			return reply, refs
		}},
		{"repeated restamp ordinal", nil, false, func(c *clientRound) (kvstore.DeltaReply, replyRefs) {
			n := needOrdinal(t, c, "key-0001")
			return restamp(n, n)
		}},
		{"descending restamp ordinals", nil, false, func(c *clientRound) (kvstore.DeltaReply, replyRefs) {
			a, b := needOrdinal(t, c, "key-0001"), needOrdinal(t, c, "key-0002")
			return restamp(max(a, b), min(a, b))
		}},
		{"reply ordinal past the digests", nil, false, func(c *clientRound) (kvstore.DeltaReply, replyRefs) {
			return entries([]int{c.shipped.n})
		}},
		{"descending reply ordinals", nil, false, func(c *clientRound) (kvstore.DeltaReply, replyRefs) {
			return entries([]int{digestOrdinal(t, c, "key-0005"), digestOrdinal(t, c, "key-0005") - 1})
		}},
		{"entry outside the leaf ranges", nil, false, func(c *clientRound) (kvstore.DeltaReply, replyRefs) {
			return entries([]int{-1}, unshipped(c))
		}},
		{"shipped key named by its bytes", nil, false, func(c *clientRound) (kvstore.DeltaReply, replyRefs) {
			return entries([]int{-1}, "key-0005")
		}},
	} {
		err := forgedPair(t, func(l *lockstep, kind byte, unread *bytes.Buffer) bool {
			switch {
			case kind == kindNeed && tc.need != nil:
				forgeFrame(unread, kindNeed, tc.need(&l.c))
			case kind == kindNeed && tc.vanish:
				// A tombstone GC drops the key between its digest and the need.
				l.client.Delete("key-0001")
				i := kvstore.ShardIndex("key-0001", l.client.Shards())
				if l.client.DiscardTombstones(i, l.client.Tombstones(i, nil)) != 1 {
					t.Fatal("key-0001 did not vanish")
				}
				return true
			case kind == kindEntries && tc.result != nil:
				unread.Reset() // the server never sees the entries
				reply, refs := tc.result(&l.c)
				l.s2c.Write(appendFrame(nil, kindResult, resultBody(t, kvstore.SyncResult{}, reply, refs)))
			}
			return false
		})
		t.Logf("%s: %v", tc.name, err)
	}
}

// termList is where one term list of a tree diff body lies: its count's
// offset and its end, and the child c it is for, whose node's server bitmap
// is at srvBm.
type termList struct {
	at, end  int
	srvBm, c int
}

// termLists returns the term lists of a tree diff body the client machine c
// is about to take.
func termLists(t *testing.T, c *clientRound, body []byte) []termList {
	n, off := binary.Uvarint(body)
	if int(n) != len(c.frontier) {
		t.Fatalf("tree diff of %d nodes, %d queried", n, len(c.frontier))
	}
	var lists []termList
	for _, nc := range c.frontier {
		differ, srvBm := binary.LittleEndian.Uint16(body[off:]), binary.LittleEndian.Uint16(body[off+2:])
		at := off + 2
		off += 4
		cliBm := c.node(nc).Bitmap
		for ch := 0; ch < encoding.TreeFanout; ch++ {
			if bit := uint16(1) << ch; nc.level+1 == c.trees[nc.stripe].Depth() && differ&bit != 0 &&
				cliBm&bit != 0 && srvBm&bit != 0 {
				k, used := binary.Uvarint(body[off:])
				lists = append(lists, termList{off, off + used + 8*int(k), at, ch})
				off += used + 8*int(k)
			}
		}
	}
	if off != len(body) {
		t.Fatalf("tree diff body of %d bytes parsed to %d", len(body), off)
	}
	return lists
}

// TestClientRefusesForgedTerms: the client reads the terms of a tree diff
// only for a bottom child that differs and that both ends hold, and refuses
// with ErrProtocol a frame that carries terms for a child it says the
// server lacks, a term count past the frame, and a term list cut short,
// before anything is applied. Neither replica changes.
func TestClientRefusesForgedTerms(t *testing.T) {
	for _, tc := range []struct {
		name  string
		forge func(body []byte, lists []termList) []byte
	}{
		{"terms for a child the server lacks", func(body []byte, lists []termList) []byte {
			l := lists[len(lists)-1]
			body = bytes.Clone(body)
			body[l.srvBm+l.c/8] &^= 1 << (l.c % 8)
			return body
		}},
		{"a term count past the frame", func(body []byte, lists []termList) []byte {
			l := lists[0]
			n := binary.AppendUvarint(nil, uint64((len(body)-l.at)/8+1))
			_, used := binary.Uvarint(body[l.at:])
			return slices.Concat(body[:l.at], n, body[l.at+used:])
		}},
		{"a term list cut short", func(body []byte, lists []termList) []byte {
			return body[:lists[len(lists)-1].end-3]
		}},
	} {
		err := forgedPair(t, func(l *lockstep, kind byte, unread *bytes.Buffer) bool {
			if kind == kindTreeDiff && unread == &l.s2c {
				_, body := frameAt(unread)
				lists := termLists(t, &l.c, body)
				if len(lists) == 0 {
					t.Fatal("the tree diff carries no terms")
				}
				forgeFrame(unread, kind, tc.forge(body, lists))
			}
			return false
		})
		t.Logf("%s: %v", tc.name, err)
	}
}

// TestServerRefusesForgedEntries is the server's twin of
// TestClientRefusesForgedRestamps: an entries frame whose count is not the
// need count, one whose body carries unknown flags or trailing bytes, leaf
// runs out of walk order, and a leaf run that answers the server's terms
// with bitmap padding bits set, with an id that fails core.DecodeBinary's
// validation, with a key both matched and shipped, or that rebuilds out of
// tree order are refused with an error frame before anything is applied.
// So are, each stripe's depth travelling once in the stripe roots, a tree
// node for a stripe with no divergent tree (declared converged) or at or
// below its stripe's declared depth, and a leaf run for such a stripe or
// below its stripe's declared depth; their error frames name the check.
// Neither replica changes.
func TestServerRefusesForgedEntries(t *testing.T) {
	count := func(body []byte) (uint64, []byte) {
		n, used := binary.Uvarint(body)
		return n, body[used:]
	}
	// leafRuns rewrites the leaf-digest frame's runs: each is decoded
	// against the server's terms, and edit returns each run's bytes, the
	// run re-encoded (encode) unless it forges them.
	encode := func(l *lockstep, r encoding.LeafRun) []byte {
		var match []int32
		if r.Terms > 0 {
			mine, _ := l.s.localRun(r.Stripe, r.Level, r.Path)
			match = matchOf(r.Digests, mine)
		}
		return encoding.AppendLeafRun(nil, sent(r, match))
	}
	leafRuns := func(l *lockstep, body []byte, edit func(runs []encoding.LeafRun) [][]byte) []byte {
		n, rest := count(body)
		runs := make([]encoding.LeafRun, n)
		for i := range runs {
			r, used, err := encoding.DecodeLeafRun(rest, l.c.of, l.s.localRun)
			if err != nil {
				t.Fatal(err)
			}
			runs[i], rest = r, rest[used:]
		}
		return slices.Concat(append([][]byte{binary.AppendUvarint(nil, n)}, edit(runs)...)...)
	}
	// forgeTermed re-encodes every run, the first that answers terms and
	// holds a matched and a shipped key forged by forge.
	forgeTermed := func(l *lockstep, forge func(r encoding.LeafRun, match []int32) []byte) func([]encoding.LeafRun) [][]byte {
		return func(runs []encoding.LeafRun) [][]byte {
			out, forged := make([][]byte, len(runs)), false
			for i, r := range runs {
				out[i] = encode(l, r)
				if r.Terms == 0 || forged {
					continue
				}
				mine, _ := l.s.localRun(r.Stripe, r.Level, r.Path)
				match := matchOf(r.Digests, mine)
				if slices.Contains(match, -1) && slices.ContainsFunc(match, func(m int32) bool { return m >= 0 }) {
					out[i], forged = forge(r, match), true
				}
			}
			if !forged {
				t.Fatal("no leaf run holds a matched and a shipped key")
			}
			return out
		}
	}
	// answer encodes r's coordinate, the bitmap of the terms its matched
	// digests match and their ids, then shipped as they come.
	answer := func(r encoding.LeafRun, match []int32, shipped []encoding.Digest) []byte {
		var ds []encoding.Digest
		var m []int32
		for i, d := range r.Digests {
			if match[i] >= 0 {
				ds, m = append(ds, d), append(m, match[i])
			}
		}
		b := encoding.AppendLeafRun(nil, sent(encoding.LeafRun{Stripe: r.Stripe, Level: r.Level, Path: r.Path,
			Digests: ds, Terms: r.Terms}, m))
		b = binary.AppendUvarint(b[:len(b)-1], uint64(len(shipped))) // the count of none
		for _, d := range shipped {
			b = encoding.AppendDigest(b, d)
		}
		return b
	}
	// shippedOf returns r's digests match leaves unmatched.
	shippedOf := func(r encoding.LeafRun, match []int32) []encoding.Digest {
		var ds []encoding.Digest
		for i, d := range r.Digests {
			if match[i] < 0 {
				ds = append(ds, d)
			}
		}
		return ds
	}
	// coordLen returns the length of r's coordinate prefix.
	coordLen := func(r encoding.LeafRun) int {
		return len(encoding.AppendLeafRun(nil, encoding.SentRun{Stripe: r.Stripe, Level: r.Level, Path: r.Path})) - 1
	}
	// converged returns a stripe the server holds no divergent tree of.
	converged := func(l *lockstep) int {
		for i := 0; i < l.c.of; i++ {
			if l.s.stripes[i] == nil {
				return i
			}
		}
		t.Fatal("every stripe diverged")
		return -1
	}
	// firstNode re-encodes a tree-nodes body with its first node edited.
	firstNode := func(body []byte, edit func(n *encoding.TreeNode)) []byte {
		n, rest := count(body)
		out := binary.AppendUvarint(nil, n)
		for i := uint64(0); i < n; i++ {
			node, used, err := encoding.DecodeTreeNode(rest, maxWireStripes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rest = rest[used:]; i == 0 {
				edit(&node)
			}
			out = encoding.AppendTreeNode(out, node)
		}
		return out
	}
	// firstRun re-encodes every run, the first edited and answering no
	// terms.
	firstRun := func(l *lockstep, edit func(r *encoding.LeafRun)) func([]encoding.LeafRun) [][]byte {
		return func(runs []encoding.LeafRun) [][]byte {
			edit(&runs[0])
			runs[0].Terms = 0
			var out [][]byte
			for _, r := range runs {
				out = append(out, encode(l, r))
			}
			return out
		}
	}
	for _, tc := range []struct {
		name  string
		kind  byte
		forge func(l *lockstep, body []byte) []byte
		want  string // what the refusal names, if the case pins it
	}{
		{"one entry more than the needs", kindEntries, func(_ *lockstep, body []byte) []byte {
			n, rest := count(body)
			return encoding.AppendVanishedBody(append(binary.AppendUvarint(nil, n+1), rest...))
		}, ""},
		{"one entry fewer than the needs", kindEntries, func(_ *lockstep, body []byte) []byte {
			n, rest := count(body)
			return append(binary.AppendUvarint(nil, n-1), rest...)
		}, ""},
		{"unknown entry flags", kindEntries, func(_ *lockstep, body []byte) []byte {
			n, rest := count(body)
			return append(binary.AppendUvarint(nil, n), append([]byte{0x40}, rest[1:]...)...)
		}, ""},
		{"trailing bytes", kindEntries, func(_ *lockstep, body []byte) []byte { return append(bytes.Clone(body), 0) }, ""},
		{"leaf runs out of walk order", kindLeafDigests, func(l *lockstep, body []byte) []byte {
			return leafRuns(l, body, func(runs []encoding.LeafRun) [][]byte {
				if len(runs) < 2 {
					t.Fatalf("%d leaf runs, want several", len(runs))
				}
				runs[0], runs[1] = runs[1], runs[0]
				var out [][]byte
				for _, r := range runs {
					out = append(out, encode(l, r))
				}
				return out
			})
		}, ""},
		{"term bitmap padding bits", kindLeafDigests, func(l *lockstep, body []byte) []byte {
			return leafRuns(l, body, forgeTermed(l, func(r encoding.LeafRun, match []int32) []byte {
				if r.Terms%8 == 0 {
					t.Fatalf("%d terms leave no padding bits", r.Terms)
				}
				b := answer(r, match, shippedOf(r, match))
				b[coordLen(r)+encoding.TreeBitmapLen(r.Terms)-1] |= 0x80
				return b
			}))
		}, ""},
		{"an id that fails validation", kindLeafDigests, func(l *lockstep, body []byte) []byte {
			return leafRuns(l, body, forgeTermed(l, func(r encoding.LeafRun, match []int32) []byte {
				// The first id becomes ∅, which covers no update component (I1).
				b := answer(r, match, shippedOf(r, match))
				at := coordLen(r) + encoding.TreeBitmapLen(r.Terms)
				first := r.Digests[slices.IndexFunc(match, func(m int32) bool { return m >= 0 })]
				return slices.Concat(b[:at], []byte{0x01, 0x00}, b[at+first.Stamp.IDHandle().EncodedLen():])
			}))
		}, ""},
		{"a key both matched and shipped", kindLeafDigests, func(l *lockstep, body []byte) []byte {
			return leafRuns(l, body, forgeTermed(l, func(r encoding.LeafRun, match []int32) []byte {
				return answer(r, match, r.Digests)
			}))
		}, ""},
		{"a rebuilt run out of tree order", kindLeafDigests, func(l *lockstep, body []byte) []byte {
			return leafRuns(l, body, forgeTermed(l, func(r encoding.LeafRun, match []int32) []byte {
				// One matched key goes shipped instead, the shipped keys
				// in reverse tree order.
				k := slices.IndexFunc(match, func(m int32) bool { return m >= 0 })
				match = slices.Clone(match)
				match[k] = -1
				shipped := shippedOf(r, match)
				slices.Reverse(shipped)
				return answer(r, match, shipped)
			}))
		}, ""},
		{"a tree node for a converged stripe", kindTreeNodes, func(l *lockstep, body []byte) []byte {
			return firstNode(body, func(n *encoding.TreeNode) { n.Stripe = converged(l) })
		}, "undeclared stripe"},
		{"a tree node at its stripe's depth", kindTreeNodes, func(l *lockstep, body []byte) []byte {
			return firstNode(body, func(n *encoding.TreeNode) { n.Level, n.Path = l.s.stripes[n.Stripe].depth, 0 })
		}, "declared depth"},
		{"a leaf run for a converged stripe", kindLeafDigests, func(l *lockstep, body []byte) []byte {
			return leafRuns(l, body, firstRun(l, func(r *encoding.LeafRun) { r.Stripe = converged(l) }))
		}, "undeclared stripe"},
		{"a leaf run below its stripe's depth", kindLeafDigests, func(l *lockstep, body []byte) []byte {
			// One child of the leaf, holding the run's keys under it.
			return leafRuns(l, body, firstRun(l, func(r *encoding.LeafRun) {
				r.Level++
				r.Path = encoding.TreePos(r.Digests[0].Key) >> (64 - r.Level*encoding.TreeFanoutBits)
				rg := kvstore.NodeRange(r.Level, r.Path)
				r.Digests = slices.DeleteFunc(slices.Clone(r.Digests), func(d encoding.Digest) bool {
					return !rg.Contains(encoding.TreePos(d.Key))
				})
			}))
		}, "declared depth"},
	} {
		err := forgedPair(t, func(l *lockstep, kind byte, unread *bytes.Buffer) bool {
			if kind == tc.kind && unread == &l.c2s {
				_, body := frameAt(unread)
				forgeFrame(unread, kind, tc.forge(l, body))
			}
			return false
		})
		if err != nil && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want a refusal naming %q", tc.name, err, tc.want)
		}
		t.Logf("%s: %v", tc.name, err)
	}
}

// termsOf returns the terms of ks, in order.
func termsOf(ks []encoding.Termed) []uint64 {
	var terms []uint64
	for _, k := range ks {
		terms = append(terms, k.Term)
	}
	return terms
}

// withTerms gives each of ds the term of a live copy holding no value.
func withTerms(ds []encoding.Digest) []encoding.Termed {
	ks := make([]encoding.Termed, len(ds))
	for i, d := range ds {
		ks[i] = encoding.Termed{Digest: d, Term: encoding.DigestTerm(d, encoding.ContentHash(false, nil))}
	}
	return ks
}

// matchOf matches ds, a client's run, against mine, the server's keys of its
// leaf, as the client's MatchTerms does, a digest taking the term of the
// server's key of the same key and update component: what a digest decoded
// off a run answering terms shows of its match.
func matchOf(ds []encoding.Digest, mine []encoding.Termed) []int32 {
	ks := make([]encoding.Termed, len(ds))
	for i, d := range ds {
		ks[i].Digest = d
		if j := slices.IndexFunc(mine, func(k encoding.Termed) bool {
			return k.Key == d.Key && k.Stamp.UpdateHandle().Equal(d.Stamp.UpdateHandle())
		}); j >= 0 {
			ks[i].Term = mine[j].Term
		}
	}
	return encoding.MatchTerms(nil, ks, termsOf(mine))
}

// sent is the decoded run r as its sender ships it, answering r.Terms
// terms as match says.
func sent(r encoding.LeafRun, match []int32) encoding.SentRun {
	ks := make([]encoding.Termed, len(r.Digests))
	for i, d := range r.Digests {
		ks[i].Digest = d
	}
	return encoding.SentRun{Stripe: r.Stripe, Level: r.Level, Path: r.Path, Keys: ks, Terms: r.Terms, Match: match}
}
