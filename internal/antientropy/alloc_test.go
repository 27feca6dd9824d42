package antientropy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"

	"versionstamp/internal/kvstore"
)

// allocPair builds a converged pair of 32-stripe replicas holding
// keysPerStripe keys per stripe on average, serves the first and returns a
// pool that has already run the rounds that warm the session.
func allocPair(t *testing.T, keysPerStripe int) (server, client *kvstore.Replica, p *Pool, addr string) {
	t.Helper()
	server = kvstore.NewReplicaShards("server", 32)
	for i := 0; i < 32*keysPerStripe; i++ {
		server.Put(fmt.Sprintf("key-%06d", i), []byte(fmt.Sprintf("value-%d", i)))
	}
	client = server.Clone("client")
	_, addr = startServer(t, server, nil)
	p = NewPool()
	t.Cleanup(func() { _ = p.Close() })
	for i := 0; i < 3; i++ {
		if _, err := p.SyncWith(addr, client); err != nil {
			t.Fatal(err)
		}
	}
	return server, client, p, addr
}

func allocKeysPerStripe() int {
	if testing.Short() {
		return 200
	}
	return 2000
}

// TestConvergedRoundAllocs: a converged pooled round allocates nothing at
// either end — the client folds its stripe roots and answers the pipelined
// probe from the session's buffers, the server folds its roots and replies
// from its own.
func TestConvergedRoundAllocs(t *testing.T) {
	_, client, p, addr := allocPair(t, allocKeysPerStripe())
	allocs := testing.AllocsPerRun(200, func() {
		res, err := p.SyncWith(addr, client)
		if err != nil || res.StripesSkipped != client.Shards() {
			t.Fatalf("converged round: %+v, %v", res, err)
		}
	})
	t.Logf("converged pooled round: %.2f allocs", allocs)
	if allocs != 0 {
		t.Errorf("converged pooled round allocates %.2f/op, want 0", allocs)
	}
}

// hot1RoundAllocBudget is what a pooled round after one client write may
// allocate across both ends, the write included: the -race figure plus
// about 10 %. Measured at 32 stripes of 2 000 keys: 58 (67 under -race),
// and 55 (60) at 200 keys under -short. Before each end took the wire keys
// it already held from its own tree snapshots, and RunRange and
// DecodeTreeNode stopped allocating, 79 (88) against a budget of 100; before
// DigestTree.Children appended into session scratch and the result
// restamped the written copy instead of echoing it, 93 (96) against a budget
// of 120; before sessions kept their frame buffers and the store walked its
// trees, 216.
const hot1RoundAllocBudget = 74

// TestHot1RoundAllocs: a round that reconciles one written key stays within
// its recorded budget.
func TestHot1RoundAllocs(t *testing.T) {
	_, client, p, addr := allocPair(t, allocKeysPerStripe())
	next := 0
	allocs := testing.AllocsPerRun(50, func() {
		client.Put(fmt.Sprintf("key-%06d", next), []byte("edited"))
		next += 97
		res, err := p.SyncWith(addr, client)
		if err != nil || res.Reconciled != 1 {
			t.Fatalf("hot1 round: %+v, %v", res, err)
		}
	})
	t.Logf("hot1 pooled round: %.1f allocs", allocs)
	if allocs > hot1RoundAllocBudget {
		t.Errorf("hot1 round allocates %.1f/op; budget is %d", allocs, hot1RoundAllocBudget)
	}
}

// TestFrameLengthPrefixCannotPinMemory: a peer that declares a maxFrame body,
// sends ten bytes and closes costs the reader at most its first chunk.
func TestFrameLengthPrefixCannotPinMemory(t *testing.T) {
	srv, cli := net.Pipe()
	go func() {
		msg := binary.AppendUvarint(nil, maxFrame)
		msg = append(msg, make([]byte, 10)...)
		_, _ = srv.Write(msg)
		_ = srv.Close()
	}()
	fr := frameReader{br: bufio.NewReader(cli)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := fr.read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated frame was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > frameKeep+4096 {
		t.Errorf("a %d-byte length prefix backed by 10 bytes allocated %d bytes; first chunk is %d",
			uint64(maxFrame), grew, frameKeep)
	}
}

// TestFrameReaderRetention: bodies up to frameKeep reuse one buffer; a
// larger body is read whole but not kept.
func TestFrameReaderRetention(t *testing.T) {
	srv, cli := net.Pipe()
	sizes := []int{2, 100, frameKeep, 3*frameKeep + 5, 7}
	go func() {
		for i, n := range sizes {
			body := make([]byte, n)
			body[0], body[n-1] = byte(i), byte(i)
			frame := append(make([]byte, lenSlot), body...)
			_ = writeFrame(srv, frame)
		}
		_ = srv.Close()
	}()
	fr := frameReader{br: bufio.NewReader(cli)}
	for i, n := range sizes {
		body, err := fr.read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(body) != n || body[0] != byte(i) || body[n-1] != byte(i) {
			t.Fatalf("frame %d: got %d bytes [%d..%d], want %d", i, len(body), body[0], body[len(body)-1], n)
		}
		if cap(fr.buf) > frameKeep {
			t.Fatalf("after a %d-byte frame the reader keeps %d bytes; cap is %d", n, cap(fr.buf), frameKeep)
		}
	}
	if _, err := fr.read(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// quorumCluster is the quorum-zipf shape in small: five durable nodes,
// R=3, with every key written once through a quorum write.
func quorumCluster(t *testing.T, keys []string, value []byte) *Cluster {
	t.Helper()
	c := newRingCluster(t, RingConfig{Nodes: 5, Replication: 3, Stripes: 16, Seed: 1,
		DataDir: t.TempDir(), GossipWorkers: 1})
	t.Cleanup(func() {
		for n := 0; n < c.Size(); n++ {
			_ = c.Kill(n)
		}
	})
	for _, k := range keys {
		if acks, err := c.Write(k, value); err != nil || acks != 3 {
			t.Fatalf("Write(%s) = %d acks, %v", k, acks, err)
		}
	}
	return c
}

func quorumKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	return keys
}

// TestQuorumReadAllocs: a quorum read of a converged key compares the
// owners' stamps without copying their values, and the answering Get hands
// out the stored buffer: it allocates nothing.
func TestQuorumReadAllocs(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 128)
	c := quorumCluster(t, quorumKeys(1), value)
	allocs := testing.AllocsPerRun(200, func() {
		v, ok, err := c.Read("key-0000")
		if err != nil || !ok || !bytes.Equal(v, value) {
			t.Fatalf("Read = %q, %v, %v", v, ok, err)
		}
	})
	t.Logf("converged quorum read: %.2f allocs", allocs)
	if allocs != 0 {
		t.Errorf("converged quorum read allocates %.2f/op, want 0", allocs)
	}
}

// quorumWriteAllocs is what a quorum write allocates besides the R copies
// of the value the owners store, for a key's second write. Measured on a
// five-node R=3 durable ring: 0 (3 allocs in all), with and without -race.
// With a copied owner list and WAL frames built in temporaries it was 26
// (29 in all).
const quorumWriteAllocs = 0

// TestQuorumWriteAllocBudget: a quorum write allocates the value copies
// its owners store and nothing else. Each run writes a key the setup wrote
// once, so every run has a stamp of the same shape and no map grows.
func TestQuorumWriteAllocBudget(t *testing.T) {
	const runs, replication = 300, 3
	value := bytes.Repeat([]byte("v"), 128)
	keys := quorumKeys(runs + 1)
	c := quorumCluster(t, keys, value)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if acks, err := c.Write(keys[next], value); err != nil || acks != replication {
			t.Fatalf("Write = %d acks, %v", acks, err)
		}
		next++
	})
	t.Logf("quorum write: %.2f allocs", allocs)
	if budget := float64(replication + quorumWriteAllocs); allocs > budget {
		t.Errorf("quorum write allocates %.2f/op; budget is %d value copies + %d", allocs, replication, quorumWriteAllocs)
	}
}

// quorumHintWriteAllocs is what a quorum write with one owner down
// allocates besides the three copies of the value the two live owners and
// the hint store: the hint record's key (target and key joined). Measured
// on a five-node R=3 durable ring: 1 (4 allocs in all). Splitting the
// owners' part through core.ForkN's slice made it 3 (6 in all).
const quorumHintWriteAllocs = 1

// TestQuorumWriteHintAllocBudget: a quorum write whose converge fills one
// hint slot allocates the value copies and the queued hint's key, and
// nothing for the fork that splits the result between the live owners and
// the hint. Each run writes, with the same owner down, a key the setup
// wrote once with every owner up, so every run's stamps have one shape.
func TestQuorumWriteHintAllocBudget(t *testing.T) {
	const runs, live = 300, 2
	value := bytes.Repeat([]byte("v"), 128)
	c := quorumCluster(t, nil, value)
	victim := stripeOwners(t, c, "key-0000")[2]
	var keys []string
	for i := 0; len(keys) <= runs; i++ {
		k := fmt.Sprintf("key-%04d", i)
		if owners := stripeOwners(t, c, k); owners[1] == victim || owners[2] == victim {
			if acks, err := c.Write(k, value); err != nil || acks != 3 {
				t.Fatalf("Write(%s) = %d acks, %v", k, acks, err)
			}
			keys = append(keys, k)
		}
	}
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if acks, err := c.Write(keys[next], value); err != nil || acks != live {
			t.Fatalf("Write = %d acks, %v", acks, err)
		}
		next++
	})
	t.Logf("quorum write with one owner down: %.2f allocs", allocs)
	if budget := float64(live + 1 + quorumHintWriteAllocs); allocs > budget {
		t.Errorf("quorum write with one owner down allocates %.2f/op; budget is %d value copies + %d",
			allocs, live+1, quorumHintWriteAllocs)
	}
}
