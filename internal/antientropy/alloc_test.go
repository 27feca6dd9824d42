package antientropy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
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
// about 10 %. Measured at 32 stripes of 2 000 keys: 20 (31 under -race,
// -cpu 1 and 4), and 20 (26) at 200 keys under -short; the round names keys
// by ordinal, which costs each end a slice of ordinals (17 (28) before).
// Earlier, 37 (46), and 37 (41) under -short, against a budget of 51.
// Before both ends released their
// round's trees before folding, so the folds patch in place, and the stores
// took the values the wire had already copied, 58 (67) against a budget of
// 74, and 55 (60) under -short. Before each end took the wire keys
// it already held from its own tree snapshots, and RunRange and
// DecodeTreeNode stopped allocating, 79 (88) against a budget of 100; before
// DigestTree.Children appended into session scratch and the result
// restamped the written copy instead of echoing it, 93 (96) against a budget
// of 120; before sessions kept their frame buffers and the store walked its
// trees, 216.
const hot1RoundAllocBudget = 34

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

// bulkRoundBytesPerKey bounds what a round that moves 1 % of a 20 000-key,
// 32-stripe pair allocates across both ends, per key moved, the writes
// excluded: the -race figure plus about 10 %. Measured: 630 B (731 under
// -race) once the session warms up until its windows stop growing; 636 B
// (721) with one warm-up round and the ordinals each end keeps to name keys
// by (591 (676) before). Before the round became two machines, 732 B (817)
// against a bound of 900. Before both ends streamed frames through their
// windows, the server handed the store the leaf runs as they came instead
// of concatenating them, and sized its reply once from the diffs, 1 064 B
// (1 134).
const bulkRoundBytesPerKey = 800

// TestBulkRoundAllocBytes: a round after 100 writes on each side of a
// 20 000-key pair allocates within its per-moved-key bound once the session
// is warm.
func TestBulkRoundAllocBytes(t *testing.T) {
	const keys, rounds, maxWarmup = 20_000, 4, 8
	key := func(i int) string { return fmt.Sprintf("key-%06d", i%keys) }
	value := bytes.Repeat([]byte("v"), 128)
	server := kvstore.NewReplicaShards("server", 32)
	for i := 0; i < keys; i++ {
		server.Put(key(i), value)
	}
	client := server.Clone("client")
	_, addr := startServer(t, server, nil)
	var sent, recv frameLens
	tr := &tapTransport{tap: func(isSent bool, p []byte) {
		if isSent {
			sent.feed(p)
		} else {
			recv.feed(p)
		}
	}}
	longest := func() [2]int {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return [2]int{sent.longest, recv.longest}
	}
	p := NewPoolOptions(PoolOptions{Transport: tr})
	t.Cleanup(func() { _ = p.Close() })
	round := func(r int) uint64 {
		for i := 0; i < keys/200; i++ {
			at := r*keys/8 + 37*i
			client.Put(key(at), []byte(fmt.Sprintf("client %d", r)))
			server.Put(key(at+18), []byte(fmt.Sprintf("server %d", r)))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := p.SyncWith(addr, client)
		runtime.ReadMemStats(&after)
		if n := res.Transferred + res.Reconciled + res.Merged; err != nil || n != keys/100 {
			t.Fatalf("1 %% round moved %d keys, %v; want %d", n, err, keys/100)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// Warm up until a round grows neither end's kept frame windows. A window
	// grows only for a frame longer than every frame before it in its
	// direction, and that growth is paid once per session, not per round.
	r := 0
	for before := longest(); ; before = longest() {
		round(r)
		if r++; longest() == before {
			break
		}
		if r == maxWarmup {
			t.Fatalf("frames still growing after %d rounds: %v", r, longest())
		}
	}
	var allocated uint64
	for end := r + rounds; r < end; r++ {
		allocated += round(r)
	}
	requireConverged(t, server, client)
	perKey := allocated / (rounds * keys / 100)
	t.Logf("1 %% round of a %d-key pair: %d B allocated per key moved (%d warm-up rounds; longest frames sent, received %v)",
		keys, perKey, r-rounds, longest())
	if perKey > bulkRoundBytesPerKey {
		t.Errorf("a 1 %% round allocates %d B per key moved; bound is %d", perKey, bulkRoundBytesPerKey)
	}
}

// frameLens follows one direction of a session past its opening byte and
// keeps its longest frame's length, without allocating as the bytes pass.
type frameLens struct {
	opened  bool
	body    int    // the current frame's body bytes still to come
	prefix  uint64 // the length prefix read so far
	shift   uint
	longest int
}

func (f *frameLens) feed(p []byte) {
	for len(p) > 0 {
		switch {
		case !f.opened:
			f.opened, p = true, p[1:]
		case f.body > 0:
			n := min(f.body, len(p))
			f.body, p = f.body-n, p[n:]
		default:
			f.prefix |= uint64(p[0]&0x7f) << f.shift
			f.shift += 7
			if p[0] < 0x80 {
				f.body, f.prefix, f.shift = int(f.prefix), 0, 0
				f.longest = max(f.longest, f.body)
			}
			p = p[1:]
		}
	}
}

// TestRoundFoldsInPlace: both ends release a round's trees after the apply
// and before the fold that follows it, so the fold patches the stripe's
// maintained tree in place. A round that reconciles one written key leaves
// each end's tree of that stripe the very tree it was before the round; a
// fold under a hold would have patched a copy.
func TestRoundFoldsInPlace(t *testing.T) {
	server, client, p, addr := allocPair(t, 200)
	const key = "key-000007"
	idx := kvstore.ShardIndex(key, client.Shards())
	tree := func(r *kvstore.Replica) *kvstore.DigestTree {
		t.Helper()
		tr, err := r.StripeTree(idx)
		if err != nil {
			t.Fatal(err)
		}
		r.ReleaseStripeTree(idx)
		return tr
	}
	srv, cli := tree(server), tree(client)
	client.Put(key, []byte("edited"))
	if res, err := p.SyncWith(addr, client); err != nil || res.Reconciled != 1 {
		t.Fatalf("round over one written key: %+v, %v", res, err)
	}
	if tree(server) != srv {
		t.Error("the server folded the round's write into a copy of its tree")
	}
	if tree(client) != cli {
		t.Error("the client folded the round's restamp into a copy of its tree")
	}
	requireConverged(t, server, client)
}

// TestFrameLengthPrefixCannotPinMemory: a peer that declares a maxFrame body,
// sends ten bytes and closes costs the reader at most its window.
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
	_, err := fr.next()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a truncated frame was accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > frameKeep+4096 {
		t.Errorf("a %d-byte length prefix backed by 10 bytes allocated %d bytes; the window is %d",
			uint64(maxFrame), grew, frameKeep)
	}
}

// TestFrameReaderRetention: frames of any length stream through one kept
// window. An element longer than the window gets a buffer of its own for as
// long as it is decoded, and the reader keeps at most frameKeep bytes after
// it; bodies read as small elements never grow the window at all. The round
// boundary after a frame longer than the window drops it, and after short
// frames only keeps it.
func TestFrameReaderRetention(t *testing.T) {
	srv, cli := net.Pipe()
	sizes := []int{2, 100, frameKeep, 3*frameKeep + 5, 7, 3*frameKeep + 5}
	go func() {
		for i, n := range sizes {
			body := make([]byte, n-1)
			for j := range body {
				body[j] = byte(i + j)
			}
			_, _ = srv.Write(appendFrame(nil, byte(i), body))
		}
		_ = srv.Close()
	}()
	fr := frameReader{br: bufio.NewReader(cli)}
	for i, n := range sizes {
		kind, err := fr.next()
		if err != nil || kind != byte(i) {
			t.Fatalf("frame %d: kind 0x%02x, %v", i, kind, err)
		}
		// The fourth frame is one element; the sixth streams as elements of
		// up to 1000 bytes.
		step := 1000
		if i == 3 {
			step = n
		}
		for at := 0; fr.remaining() > 0; {
			b, err := fr.bytes(min(step, fr.remaining()))
			if err != nil {
				t.Fatalf("frame %d at %d: %v", i, at, err)
			}
			for j, c := range b {
				if c != byte(i+at+j) {
					t.Fatalf("frame %d: byte %d is %d, want %d", i, at+j, c, byte(i+at+j))
				}
			}
			at += len(b)
			if step < n && cap(fr.cur) > frameKeep {
				t.Fatalf("frame %d, read in small elements, grew the window to %d bytes", i, cap(fr.cur))
			}
		}
		if cap(fr.keep) > frameKeep {
			t.Fatalf("after a %d-byte frame the reader keeps %d bytes; cap is %d", n, cap(fr.keep), frameKeep)
		}
		if kept := cap(fr.keep); i < 3 {
			if fr.trim(); cap(fr.keep) != kept {
				t.Fatalf("a round of frames up to %d bytes dropped the %d-byte window", n, kept)
			}
		}
	}
	if fr.trim(); fr.keep != nil {
		t.Fatalf("a round with a %d-byte frame kept a %d-byte window", sizes[3], cap(fr.keep))
	}
	if _, err := fr.next(); !errors.Is(err, io.EOF) {
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

// quorumWriteAllocs is what a quorum write allocates besides the one copy
// of the value the coordinator takes from the caller and its owners share,
// for a key's second write. Measured on a five-node R=3 durable ring: 0 (1
// alloc in all), with and without -race. While every owner stored a copy of
// its own it was 0 besides R copies (3 in all); with a copied owner list and
// WAL frames built in temporaries it was 26 (29 in all).
const quorumWriteAllocs = 0

// TestQuorumWriteAllocBudget: a quorum write allocates the one value copy
// its owners share and nothing else. Each run writes a key the setup wrote
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
	if budget := float64(1 + quorumWriteAllocs); allocs > budget {
		t.Errorf("quorum write allocates %.2f/op; budget is 1 value copy + %d", allocs, quorumWriteAllocs)
	}
}

// quorumHintWriteAllocs is what a quorum write with one owner down
// allocates besides the two copies of the value, the one the live owners
// share and the hint's own: the hint record's key (target and key joined).
// Measured on a five-node R=3 durable ring: 1 (3 allocs in all). While
// every owner stored a copy of its own it was 1 besides three copies (4 in
// all); splitting the owners' part through core.ForkN's slice made it 3 (6
// in all).
const quorumHintWriteAllocs = 1

// TestQuorumWriteHintAllocBudget: a quorum write whose converge fills one
// hint slot allocates the coordinator's value copy, the hint's copy and the
// queued hint's key, and nothing for the fork that splits the result
// between the live owners and the hint. Each run writes, with the same
// owner down, a key the setup wrote once with every owner up, so every
// run's stamps have one shape.
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
	if budget := float64(2 + quorumHintWriteAllocs); allocs > budget {
		t.Errorf("quorum write with one owner down allocates %.2f/op; budget is 2 value copies + %d",
			allocs, quorumHintWriteAllocs)
	}
}

// ringFoldAllocs is what folding one quorum write per stripe into every
// owner's digest trees may add to a root-only ring round: a constant, the
// same at 16 and at 64 stripes. Measured on a five-node R=3 ring: 0, with
// and without -race. While every fold copied the touched paths it grew with
// the stripe count: 257 at 16 stripes, 1 012 at 64.
const ringFoldAllocs = 4

// ringQuietRoundAllocs bounds a quiet root-only ring round itself: the
// round's stats and exchange tally, its worker and channel, and nothing
// per stripe, since chain planning and the tombstone GC reuse the
// cluster's scratch and a converged exchange allocates nothing. Measured:
// 18.0 at 16 and at 64 stripes (18.2 under -race). While the planning and
// the GC rebuilt their slices and copied every owner's tombstone ledger
// each round it was 184 at 16 stripes and 668 at 64. ringQuietGrowth is
// how many more the 64-stripe round may take than the 16-stripe one.
const (
	ringQuietRoundAllocs = 20
	ringQuietGrowth      = 2
)

// TestRingRootOnlyRoundAllocs: after a quorum write to every stripe, the
// owners' copies are converged but their trees are not, so the next gossip
// round folds every stripe's write into its owners' trees and then settles
// each exchange on its stripe root. Each run compares that round with a
// quiet one; what the writes add must not grow with the stripe count, as it
// does when the folds copy what they patch. The quiet round itself must
// stay within its own budget and must not grow with the stripe count
// either.
func TestRingRootOnlyRoundAllocs(t *testing.T) {
	roundAllocs := func(c *Cluster) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err := c.GossipRoundStats(2)
		runtime.ReadMemStats(&after)
		if err != nil || st.Moved != 0 || st.StripesSkipped != st.Exchanges {
			t.Fatalf("root-only round: %+v, %v", st, err)
		}
		return after.Mallocs - before.Mallocs
	}
	quietAt := make(map[int]float64)
	for _, stripes := range []int{16, 64} {
		c := newRingCluster(t, RingConfig{Nodes: 5, Replication: 3, Stripes: stripes, Seed: 1, GossipWorkers: 1})
		perStripe := make([]string, stripes)
		for i, n := 0, 0; n < stripes; i++ {
			k := fmt.Sprintf("key-%05d", i)
			if s := kvstore.ShardIndex(k, stripes); perStripe[s] == "" {
				perStripe[s] = k
				n++
			}
			if _, err := c.Write(k, []byte("v0")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.GossipUntilConverged(40); err != nil {
			t.Fatal(err)
		}
		writeEach := func(run int) {
			for _, k := range perStripe {
				if acks, err := c.Write(k, []byte(fmt.Sprintf("v%d", run))); err != nil || acks != 3 {
					t.Fatalf("Write(%s) = %d acks, %v", k, acks, err)
				}
			}
		}
		// The first round after the build settles anything a first fold
		// allocates once.
		writeEach(0)
		roundAllocs(c)
		const runs = 5
		var quiet, written uint64
		for run := 1; run <= runs; run++ {
			quiet += roundAllocs(c)
			writeEach(run)
			written += roundAllocs(c)
		}
		added := (float64(written) - float64(quiet)) / runs
		t.Logf("%d stripes: quiet root-only round %.1f allocs, after a write per stripe %.1f more",
			stripes, float64(quiet)/runs, added)
		if added > ringFoldAllocs {
			t.Errorf("%d stripes: folding a write per stripe adds %.1f allocs to a root-only round; budget is %d",
				stripes, added, ringFoldAllocs)
		}
		quietAt[stripes] = float64(quiet) / runs
		if quietAt[stripes] > ringQuietRoundAllocs {
			t.Errorf("%d stripes: a quiet root-only round allocates %.1f; budget is %d",
				stripes, quietAt[stripes], ringQuietRoundAllocs)
		}
	}
	if growth := quietAt[64] - quietAt[16]; growth > ringQuietGrowth {
		t.Errorf("a quiet root-only round allocates %.1f more at 64 stripes than at 16; budget is %d",
			growth, ringQuietGrowth)
	}
}
