package antientropy

import (
	"bytes"
	"errors"
	"io/fs"
	"path/filepath"
	"testing"

	"versionstamp/internal/kvstore"
	"versionstamp/internal/storage/wal"
)

// quorumRing is a five-node durable R=3 ring with no gossip running, and
// the owners of key's stripe, coordinator first.
func quorumRing(t *testing.T, key string) (c *Cluster, dir string, owners []int) {
	t.Helper()
	dir = t.TempDir()
	c = newRingCluster(t, RingConfig{Nodes: 5, Replication: 3, Stripes: 16, Seed: 1,
		DataDir: dir, GossipWorkers: 1})
	t.Cleanup(func() {
		for n := 0; n < c.Size(); n++ {
			_ = c.Kill(n)
		}
	})
	return c, dir, stripeOwners(t, c, key)
}

// stripeOwners returns the indexes of the nodes owning key's stripe,
// coordinator first, checking there are three.
func stripeOwners(t *testing.T, c *Cluster, key string) []int {
	t.Helper()
	var owners []int
	c.mu.Lock()
	for _, id := range c.ownersLocked(kvstore.ShardIndex(key, c.stripes)) {
		owners = append(owners, c.index[id])
	}
	c.mu.Unlock()
	if len(owners) != 3 {
		t.Fatalf("%d owners, want 3", len(owners))
	}
	return owners
}

// logFrames counts the intact frames in one WAL stripe log; a log never
// appended to has none.
func logFrames(t *testing.T, dir string, stripe int) int {
	t.Helper()
	offs, err := wal.FrameOffsets(wal.LogPath(dir, stripe))
	if errors.Is(err, fs.ErrNotExist) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return len(offs)
}

// TestQuorumWriteLogsOnce gates a quorum write's WAL cost, counted from the
// owners' stripe logs: a key's second write appends one frame per owner, 3
// in all. The pairwise chain it replaced appended 5 — the coordinator logged
// the Put and then a fork of its copy for each push. With one owner down,
// the owners' logs gain 2 frames (the chain's 4 added a fork for the hint)
// and the coordinator's hint queue its one record; a repeated delete logs
// only the coordinator's fork for the hint, as the chain did.
func TestQuorumWriteLogsOnce(t *testing.T) {
	const key = "key-0000"
	c, dir, owners := quorumRing(t, key)
	stripe := kvstore.ShardIndex(key, c.stripes)
	nodeDir := func(i int) string { return filepath.Join(dir, c.nodes[i].id) }
	ownerFrames := func() int {
		n := 0
		for _, i := range owners {
			n += logFrames(t, nodeDir(i), stripe)
		}
		return n
	}
	value := bytes.Repeat([]byte("v"), 128)
	if acks, err := c.Write(key, value); err != nil || acks != 3 {
		t.Fatalf("first Write = %d acks, %v", acks, err)
	}
	before := ownerFrames()
	if acks, err := c.Write(key, value); err != nil || acks != 3 {
		t.Fatalf("second Write = %d acks, %v", acks, err)
	}
	if got := ownerFrames() - before; got != 3 {
		t.Errorf("second write appended %d frames over the owners' logs, want 3", got)
	}

	if err := c.Kill(owners[2]); err != nil {
		t.Fatal(err)
	}
	hintDir := filepath.Join(nodeDir(owners[0]), "hints")
	before, hintsBefore := ownerFrames(), logFrames(t, hintDir, 0)
	if acks, err := c.Write(key, value); err != nil || acks != 2 {
		t.Fatalf("Write with an owner down = %d acks, %v", acks, err)
	}
	if got := ownerFrames() - before; got != 2 {
		t.Errorf("write with an owner down appended %d frames over the owners' logs, want 2", got)
	}
	if got := logFrames(t, hintDir, 0) - hintsBefore; got != 1 {
		t.Errorf("write with an owner down appended %d hint records, want 1", got)
	}

	// Deleting a key twice: the second delete changes nothing, and the two
	// live owners' copies are settled, so only the coordinator forks its
	// copy for the hint (one frame); joining the settled copies to fork them
	// again would log at both.
	if _, err := c.Delete(key); err != nil {
		t.Fatal(err)
	}
	before = ownerFrames()
	if _, err := c.Delete(key); err != nil {
		t.Fatal(err)
	}
	if got := ownerFrames() - before; got != 1 {
		t.Errorf("repeated delete with an owner down appended %d frames over the owners' logs, want 1", got)
	}
}

// ownerStampMax returns the largest stored stamp of key, in Stamp.BinaryLen
// bytes, over the nodes idx, each of which must hold the key.
func ownerStampMax(t *testing.T, c *Cluster, key string, idx []int) int {
	t.Helper()
	largest := 0
	for _, i := range idx {
		r, err := c.Replica(i)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := r.Version(key)
		if !ok {
			t.Fatalf("owner %d lacks %s", i, key)
		}
		largest = max(largest, v.Stamp.BinaryLen())
	}
	return largest
}

// quorumWriteStampMax is the largest stored stamp, in Stamp.BinaryLen bytes,
// over a key's three owners after 64 quorum writes with no gossip between
// them. Each write's one reconcile joins the owners' copies, so their ids
// reunite and reduce to {ε}, and forks the result three ways: the stamps
// are ([ε|1], [ε|00], [ε|01]) after every write. When the reconcile
// abandoned each dominated owner's id, the coordinator's id deepened one
// level per write and this ended at 54 bytes (102 under the pairwise chain
// before that).
const quorumWriteStampMax = 5

// TestQuorumWriteStampGrowth gates how fast repeated quorum writes of one
// key grow its stamps when nothing else runs.
func TestQuorumWriteStampGrowth(t *testing.T) {
	const key = "key-0000"
	c, _, owners := quorumRing(t, key)
	for n := 0; n < 64; n++ {
		if acks, err := c.Write(key, []byte{byte(n)}); err != nil || acks != 3 {
			t.Fatalf("Write %d = %d acks, %v", n, acks, err)
		}
	}
	largest := ownerStampMax(t, c, key, owners)
	t.Logf("largest stored stamp after 64 writes: %d B", largest)
	if largest != quorumWriteStampMax {
		t.Errorf("largest stored stamp after 64 writes is %d B, want %d", largest, quorumWriteStampMax)
	}
}

// hintedStampSlack is the linear bound on the live owners' largest stamp,
// in Stamp.BinaryLen bytes, after n quorum writes of one key with one owner
// down: at most hintedStampSlack + n. Each write joins the two live copies
// back into the part they were forked from and forks the hint its outer
// half, so the live ids deepen by one level per write (measured: 5 B after
// the first write, 54 B after the 64th, never more than 4 + n). A hint
// slot holding a sibling of an owner's part instead leaves the live parts
// unjoinable, and the live stamps double on every write (9 KiB after 13).
const hintedStampSlack = 4

// reclaimedStampMax bounds every owner's stamp, in bytes, once the hints
// are drained and one more write reaches all three owners: the join
// reunites the whole id space and the result is forked afresh.
const reclaimedStampMax = 6

// TestQuorumWriteHintedStampGrowth gates the stamps of one key written 64
// times with one owner down, checking after every write, and their reclaim
// once the owner is back: after a hint drain and one full write, all three
// owners' stamps are small again (55 B when the reconcile abandoned the
// dominated owners' ids).
func TestQuorumWriteHintedStampGrowth(t *testing.T) {
	const key = "key-0000"
	c, _, owners := quorumRing(t, key)
	if err := c.Kill(owners[2]); err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 64; n++ {
		if acks, err := c.Write(key, []byte{byte(n)}); err != nil || acks != 2 {
			t.Fatalf("Write %d = %d acks, %v", n, acks, err)
		}
		if got := ownerStampMax(t, c, key, owners[:2]); got > hintedStampSlack+n {
			t.Fatalf("largest live stamp after %d writes with an owner down is %d B, want at most %d",
				n, got, hintedStampSlack+n)
		}
	}
	if err := c.Revive(owners[2]); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	var stats RoundStats
	err := c.drainHintsLocked(&stats)
	c.mu.Unlock()
	if err != nil || stats.HintsDrained != 64 || c.HintsPending() != 0 {
		t.Fatalf("drain: %v; %d drained, %d pending, want 64 and 0", err, stats.HintsDrained, c.HintsPending())
	}
	if acks, err := c.Write(key, []byte("last")); err != nil || acks != 3 {
		t.Fatalf("Write after revive = %d acks, %v", acks, err)
	}
	largest := ownerStampMax(t, c, key, owners)
	t.Logf("largest stored stamp after the drain and a full write: %d B", largest)
	if largest > reclaimedStampMax {
		t.Errorf("largest stored stamp after the drain and a full write is %d B, want at most %d",
			largest, reclaimedStampMax)
	}
}
