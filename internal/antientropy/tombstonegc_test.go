package antientropy

import (
	"fmt"
	"math/rand"
	"testing"

	"versionstamp/internal/kvstore"
)

// gcRounds runs up to n gossip rounds, returning the accumulated discard
// count and the final live-tombstone gauge, stopping early once the gauge
// reaches zero.
func gcRounds(t *testing.T, c *Cluster, n int) (discarded, live int) {
	t.Helper()
	for i := 0; i < n; i++ {
		stats, err := c.GossipRoundStats(DefaultFanout)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		discarded += stats.TombstonesDiscarded
		live = stats.TombstonesLive
		if live == 0 {
			return discarded, live
		}
	}
	return discarded, live
}

// Tombstones are discarded once anti-entropy has proven their propagation
// to every owner, and the discarded deletes stay deleted.
func TestTombstoneGCDiscardsAfterPropagation(t *testing.T) {
	c := newRingCluster(t, RingConfig{Nodes: 5, Replication: 3, Stripes: 16, Seed: 7})
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		if _, err := c.Write(keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys[:20] {
		if _, err := c.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	discarded, live := gcRounds(t, c, 40)
	if live != 0 {
		t.Fatalf("TombstonesLive = %d after GC rounds (discarded %d)", live, discarded)
	}
	// Every owner's tombstone for each deleted key is one discard; the
	// exact count depends on quorum pushes vs gossip, but at least one
	// discard per deleted key must have happened.
	if discarded < 20 {
		t.Fatalf("TombstonesDiscarded = %d, want >= 20", discarded)
	}
	for _, k := range keys[:20] {
		if _, ok, err := c.Read(k); err != nil || ok {
			t.Fatalf("deleted key %q resurrected: ok=%v err=%v", k, ok, err)
		}
	}
	for _, k := range keys[20:] {
		if v, ok, err := c.Read(k); err != nil || !ok || string(v) != "v" {
			t.Fatalf("live key %q lost: %q %v %v", k, v, ok, err)
		}
	}
	// The discard removed the stored tombstone state entirely.
	for i := 0; i < c.Size(); i++ {
		r, _ := c.Replica(i)
		if n := r.TombstonesLive(); n != 0 {
			t.Fatalf("node %d still holds %d tombstones", i, n)
		}
		for _, k := range keys[:20] {
			if _, ok := r.Version(k); ok {
				t.Fatalf("node %d still stores state for discarded %q", i, k)
			}
		}
	}
}

// Single-owner stripes (R == 1) have no co-owner to wait for: their
// tombstones discard without any propagation evidence — the fix for
// never-replicated deletes pinning memory forever.
func TestTombstoneGCSingleOwner(t *testing.T) {
	c := newRingCluster(t, RingConfig{Nodes: 3, Replication: 1, Stripes: 8, Seed: 5})
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("solo-%d", i)
		if _, err := c.Write(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	discarded, live := gcRounds(t, c, 10)
	if live != 0 || discarded != 10 {
		t.Fatalf("discarded=%d live=%d, want 10 and 0", discarded, live)
	}
}

// A down owner blocks GC for its stripes: an in-memory node keeps its
// pre-delete state across Kill, so discarding while it is down would let
// its old copy resurrect the key on revival.
func TestTombstoneGCWaitsForDownOwner(t *testing.T) {
	c := newRingCluster(t, RingConfig{
		Nodes: 5, Replication: 3, Stripes: 8, Seed: 11,
		SuspectAfter: 1, DeadAfter: 2,
	})
	if _, err := c.Write("k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GossipUntilConverged(40); err != nil {
		t.Fatal(err)
	}
	// Kill one owner of k's stripe, then delete k at the survivors.
	stripe := kvstore.ShardIndex("k", 8)
	c.mu.Lock()
	owners := c.ownersLocked(stripe)
	victim := c.index[owners[len(owners)-1]]
	c.mu.Unlock()
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		stats, err := c.GossipRoundStats(DefaultFanout)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if stats.TombstonesDiscarded != 0 {
			t.Fatalf("round %d discarded %d tombstones with an owner down",
				i, stats.TombstonesDiscarded)
		}
	}
	// Revive: the dead owner still holds the old live value; the surviving
	// tombstone must kill it, propagate, and only then discard.
	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	r, _ := c.Replica(victim)
	if v, ok := r.Get("k"); !ok || string(v) != "old" {
		t.Fatalf("revived owner lost its paused state: %q %v", v, ok)
	}
	if _, live := gcRounds(t, c, 60); live != 0 {
		t.Fatalf("TombstonesLive = %d after revival rounds", live)
	}
	if _, ok, err := c.Read("k"); err != nil || ok {
		t.Fatalf("deleted key resurrected after owner revival: ok=%v err=%v", ok, err)
	}
	for i := 0; i < c.Size(); i++ {
		r, _ := c.Replica(i)
		if _, ok := r.Version("k"); ok {
			t.Fatalf("node %d still stores state for %q", i, "k")
		}
	}
}

// Queued hints gate the GC: a hint is a detached pre-delete copy, so no
// tombstone may be reclaimed anywhere while hints remain undelivered.
func TestTombstoneGCWaitsForHints(t *testing.T) {
	c := newRingCluster(t, RingConfig{
		Nodes: 5, Replication: 3, Stripes: 8, Seed: 13,
		SuspectAfter: 1, DeadAfter: 2,
	})
	// Make node 0's death known so writes hint instead of timing out.
	if err := c.Kill(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.GossipRoundStats(DefaultFanout); err != nil {
			t.Fatal(err)
		}
	}
	// Write keys until some land on stripes the dead node owns (queueing
	// hints), then delete an unrelated key on a fully-live stripe.
	var unrelated string
	for i := 0; i < 200 && (c.HintsPending() == 0 || unrelated == ""); i++ {
		k := fmt.Sprintf("k-%d", i)
		s := kvstore.ShardIndex(k, 8)
		c.mu.Lock()
		dead := false
		for _, oid := range c.ownersLocked(s) {
			if c.nodes[c.index[oid]].down {
				dead = true
			}
		}
		c.mu.Unlock()
		if _, err := c.Write(k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if !dead && unrelated == "" {
			unrelated = k
			if _, err := c.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.HintsPending() == 0 || unrelated == "" {
		t.Skip("layout gave no hinted stripe or no fully-live stripe")
	}
	for i := 0; i < 10; i++ {
		stats, err := c.GossipRoundStats(DefaultFanout)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TombstonesDiscarded != 0 {
			t.Fatalf("GC discarded %d tombstones with %d hints pending",
				stats.TombstonesDiscarded, c.HintsPending())
		}
	}
	// Revive the target; hints drain, then the gate opens.
	if err := c.Revive(0); err != nil {
		t.Fatal(err)
	}
	if _, live := gcRounds(t, c, 60); live != 0 {
		t.Fatalf("TombstonesLive = %d after hint drain", live)
	}
}

// deleteWins resolves concurrent copies in favor of deletion — the policy
// under which "a deleted key stays deleted until rewritten" is a sound
// invariant even across partitions (the default KeepBoth policy instead
// deliberately lets a concurrent write beat a delete).
func deleteWins(_ string, a, b kvstore.Versioned) ([]byte, bool, error) {
	if a.Deleted || b.Deleted {
		return nil, true, nil
	}
	if string(a.Value) < string(b.Value) {
		return append(append([]byte(nil), a.Value...), b.Value...), false, nil
	}
	return append(append([]byte(nil), b.Value...), a.Value...), false, nil
}

// Randomized resurrection property: under random writes, deletes, crashes,
// revivals and partitions (with a delete-wins resolver), a key whose last
// applied operation is a delete never reads as present again — the GC's
// evidence rules must make every discard safe. Cheap enough to run several
// seeds. An operation counts as applied when it reached a coordinator
// (acks >= 1): a quorum-failed write is still installed wherever it landed
// and propagates from there, so it must update the model too.
func TestTombstoneGCNoResurrection(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newRingCluster(t, RingConfig{
				Nodes: 7, Replication: 3, Stripes: 16, Seed: seed,
				SuspectAfter: 1, DeadAfter: 2,
				Resolver: deleteWins,
			})
			rng := rand.New(rand.NewSource(seed * 977))
			down := map[int]bool{}
			deleted := map[string]bool{} // key -> last op was Delete
			keys := make([]string, 24)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%02d", i)
			}
			// The invariant is checked at quiesced points only: mid-chaos, a
			// read routed to a stale minority quorum can legitimately serve a
			// pre-delete value with no GC involvement. At a quiesced point no
			// stale copy can exist — unless the GC discarded a tombstone an
			// owner had not seen, in which case the old value wins convergence
			// and the check catches it.
			quiesceAndCheck := func(epoch int) {
				c.Heal()
				for i := range down {
					if err := c.Revive(i); err != nil {
						t.Fatal(err)
					}
					delete(down, i)
				}
				live := -1
				for i := 0; i < 200; i++ {
					stats, err := c.GossipRoundStats(DefaultFanout)
					if err != nil {
						t.Fatalf("epoch %d quiesce round %d: %v", epoch, i, err)
					}
					live = stats.TombstonesLive
					if live == 0 && c.Converged() && c.HintsPending() == 0 {
						break
					}
				}
				if live != 0 {
					t.Fatalf("epoch %d: TombstonesLive = %d after quiesce", epoch, live)
				}
				for k, isDel := range deleted {
					if !isDel {
						continue
					}
					if _, ok, err := c.Read(k); err != nil {
						t.Fatalf("epoch %d: Read(%q) after quiesce: %v", epoch, k, err)
					} else if ok {
						t.Fatalf("epoch %d: deleted key %q resurrected", epoch, k)
					}
				}
			}
			for step := 0; step < 220; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // write
					k := keys[rng.Intn(len(keys))]
					if acks, _ := c.Write(k, []byte(fmt.Sprintf("v%d", step))); acks >= 1 {
						deleted[k] = false
					}
				case op < 6: // delete
					k := keys[rng.Intn(len(keys))]
					if acks, _ := c.Delete(k); acks >= 1 {
						deleted[k] = true
					}
				case op == 6: // crash a node (at most 2 down at once)
					if len(down) < 2 {
						i := rng.Intn(c.Size())
						if !down[i] {
							if err := c.Kill(i); err != nil {
								t.Fatal(err)
							}
							down[i] = true
						}
					}
				case op == 7: // revive a node
					for i := range down {
						if err := c.Revive(i); err != nil {
							t.Fatal(err)
						}
						delete(down, i)
						break
					}
				case op == 8 && c.Size() == 7: // partition or heal
					if rng.Intn(2) == 0 {
						groups := make([]int, 7)
						for i := range groups {
							groups[i] = rng.Intn(2)
						}
						if err := c.Partition(groups); err != nil {
							t.Fatal(err)
						}
					} else {
						c.Heal()
					}
				default: // gossip
					if _, err := c.GossipRoundStats(DefaultFanout); err != nil {
						t.Fatal(err)
					}
				}
				if step > 0 && step%55 == 0 {
					quiesceAndCheck(step / 55)
				}
			}
			quiesceAndCheck(4)
		})
	}
}
