package antientropy

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/kvstore"
	"versionstamp/internal/membership"
	"versionstamp/internal/storage/faultfs"
)

func newRingCluster(t *testing.T, cfg RingConfig) *Cluster {
	t.Helper()
	if cfg.Resolver == nil {
		cfg.Resolver = kvstore.KeepBoth([]byte("|"))
	}
	c, err := NewRingCluster(cfg)
	if err != nil {
		t.Fatalf("NewRingCluster: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestRingConfigValidation(t *testing.T) {
	bad := []RingConfig{
		{Nodes: 0, Replication: 1},
		{Nodes: -3, Replication: 1},
		{Nodes: 3, Replication: 0},
		{Nodes: 3, Replication: 4},
		{Nodes: 3, Replication: 3, Stripes: -1},
	}
	for i, cfg := range bad {
		if _, err := NewRingCluster(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// GossipRoundStats rejects a fan-out that is not positive.
func TestClusterArgValidation(t *testing.T) {
	c := newCluster(t, 2)
	if _, err := c.GossipRoundStats(0); err == nil {
		t.Error("GossipRoundStats(0) accepted")
	}
	if _, err := c.GossipRoundStats(-1); err == nil {
		t.Error("GossipRoundStats(-1) accepted")
	}
}

// Partition/Heal racing GossipRoundStats must be safe (run with -race).
func TestPartitionHealConcurrentWithGossip(t *testing.T) {
	c := newCluster(t, 4)
	for i := 0; i < 4; i++ {
		r, _ := c.Replica(i)
		r.Put(fmt.Sprintf("k%d", i), []byte("v"))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < 20; n++ {
			_ = c.Partition([]int{0, 0, 1, 1})
			c.Heal()
		}
	}()
	for n := 0; n < 10; n++ {
		if _, err := c.GossipRoundStats(2); err != nil {
			t.Errorf("round %d: %v", n, err)
		}
	}
	<-done
	c.Heal()
	if _, err := c.GossipUntilConverged(60); err != nil {
		t.Fatalf("convergence after churn: %v", err)
	}
}

func TestRingQuorumWriteRead(t *testing.T) {
	c := newRingCluster(t, RingConfig{Nodes: 5, Replication: 3, Stripes: 16, Seed: 1})
	acks, err := c.Write("alpha", []byte("1"))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if acks != 3 {
		t.Errorf("acks = %d, want 3 (all owners up)", acks)
	}
	v, ok, err := c.Read("alpha")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Read = %q, %v, %v", v, ok, err)
	}
	// Absent key.
	if _, ok, err := c.Read("ghost"); err != nil || ok {
		t.Fatalf("Read(ghost) = %v, %v", ok, err)
	}
	// Quorum delete leaves the key quorum-absent.
	if _, err := c.Delete("alpha"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, _ := c.Read("alpha"); ok {
		t.Error("deleted key still quorum-readable")
	}
	// Writes land only on the stripe's owners: count copies across nodes.
	holders := 0
	for i := 0; i < 5; i++ {
		r, _ := c.Replica(i)
		if _, ok := r.Version("alpha"); ok {
			holders++
		}
	}
	if holders != 3 {
		t.Errorf("key held by %d nodes, want exactly the 3 owners", holders)
	}
}

// Read must repair divergence among owners before answering: after a write
// reaches only part of the quorum, a read still returns the newest value
// and leaves the owners stamp-converged on that key.
func TestRingReadRepair(t *testing.T) {
	c := newRingCluster(t, RingConfig{Nodes: 5, Replication: 3, Stripes: 8, Seed: 3})
	if _, err := c.Write("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Behind the quorum's back, advance the key at exactly one owner.
	stripe := kvstore.ShardIndex("k", 8)
	c.mu.Lock()
	owners := c.ownersLocked(stripe)
	first := c.nodes[c.index[owners[0]]]
	first.replica.Put("k", []byte("v2"))
	c.mu.Unlock()

	v, ok, err := c.Read("k")
	if err != nil || !ok || string(v) != "v2" {
		t.Fatalf("Read = %q, %v, %v", v, ok, err)
	}
	// The read repaired: every owner now returns v2 directly.
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, oid := range owners {
		r := c.nodes[c.index[oid]].replica
		if got, _ := r.Get("k"); string(got) != "v2" {
			t.Errorf("owner %s has %q after read-repair", oid, got)
		}
	}
}

// Randomized property: a ring cluster driven by quorum writes (with random
// key churn) converges under owner-scoped gossip to exactly the state the
// writes describe — every key quorum-reads its last written value, the
// owners of each stripe agree, and non-owners hold none of its keys.
func TestRingQuorumConvergesLikeFullSync(t *testing.T) {
	const (
		nodes   = 7
		stripes = 32
		keys    = 60
	)
	c := newRingCluster(t, RingConfig{Nodes: nodes, Replication: 3, Stripes: stripes, Seed: 11})
	rng := rand.New(rand.NewSource(23))
	model := make(map[string]string)
	for op := 0; op < 300; op++ {
		k := fmt.Sprintf("key-%d", rng.Intn(keys))
		if rng.Float64() < 0.15 {
			if _, err := c.Delete(k); err != nil {
				t.Fatalf("op %d Delete(%s): %v", op, k, err)
			}
			delete(model, k)
			continue
		}
		v := fmt.Sprintf("v%d", op)
		if _, err := c.Write(k, []byte(v)); err != nil {
			t.Fatalf("op %d Write(%s): %v", op, k, err)
		}
		model[k] = v
	}
	if _, err := c.GossipUntilConverged(80); err != nil {
		t.Fatalf("convergence: %v", err)
	}
	for k, want := range model {
		v, ok, err := c.Read(k)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("Read(%s) = %q, %v, %v; want %q", k, v, ok, err, want)
		}
	}
	// Placement invariant: each key lives at its stripe's owners and
	// nowhere else.
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, nd := range c.nodes {
		for _, k := range nd.replica.Keys() {
			s := kvstore.ShardIndex(k, stripes)
			if !nd.ring.Owns(nd.id, s) {
				t.Errorf("node %d holds %q of stripe %d it does not own", i, k, s)
			}
		}
	}
}

// tickUntilDead runs gossip rounds so the peers declare a killed node dead.
func tickUntilDead(t *testing.T, c *Cluster, rounds int) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		if _, err := c.GossipRoundStats(2); err != nil {
			t.Fatalf("churn round %d: %v", i, err)
		}
	}
}

// Membership churn: an owner dies, writes to its stripes hint to it; on
// revival it replays its WAL (durable nodes) or resumes (in-memory nodes,
// whose coordinators hold the hints in volatile queues), hints drain, and
// the cluster converges with the revived node holding the missed writes.
func TestRingChurnHintedHandoff(t *testing.T) {
	for _, tc := range []struct {
		name    string
		durable bool
	}{{"durable", true}, {"in-memory", false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := RingConfig{
				Nodes: 9, Replication: 3, Stripes: 64, Seed: 42,
				SuspectAfter: 1, DeadAfter: 2,
			}
			if tc.durable {
				cfg.DataDir = t.TempDir()
			}
			c := newRingCluster(t, cfg)
			// Seed data and converge.
			for i := 0; i < 40; i++ {
				if _, err := c.Write(fmt.Sprintf("seed-%d", i), []byte("s")); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.GossipUntilConverged(80); err != nil {
				t.Fatalf("initial convergence: %v", err)
			}

			// Kill a node and write keys it owns: quorum must still be reached
			// (the two surviving owners ack) and a hint queued for the dead one.
			const victim = 4
			if err := c.Kill(victim); err != nil {
				t.Fatalf("Kill: %v", err)
			}
			victimID := fmt.Sprintf("node-%d", victim)
			st, err := c.Status(victim)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Down {
				t.Fatal("victim not reported down")
			}
			var hinted []string
			for i := 0; i < 400 && len(hinted) < 6; i++ {
				k := fmt.Sprintf("churn-%d", i)
				s := kvstore.ShardIndex(k, 64)
				c.mu.Lock()
				owned := false
				for _, oid := range c.ownersLocked(s) {
					if oid == victimID {
						owned = true
					}
				}
				c.mu.Unlock()
				if !owned {
					continue
				}
				acks, err := c.Write(k, []byte("missed"))
				if err != nil {
					t.Fatalf("Write(%s) with dead owner: %v", k, err)
				}
				if acks != 2 {
					t.Errorf("Write(%s) acks = %d, want 2 (dead owner hinted, not acked)", k, acks)
				}
				hinted = append(hinted, k)
			}
			if len(hinted) < 6 {
				t.Fatalf("only %d keys landed on the victim's stripes", len(hinted))
			}
			if got := c.HintsPending(); got < len(hinted) {
				t.Errorf("HintsPending = %d, want >= %d", got, len(hinted))
			}
			// Reads of hinted keys succeed from the surviving owners.
			for _, k := range hinted {
				if v, ok, err := c.Read(k); err != nil || !ok || string(v) != "missed" {
					t.Fatalf("Read(%s) with dead owner = %q, %v, %v", k, v, ok, err)
				}
			}
			// Let the peers declare the victim dead (hints must not drain early).
			tickUntilDead(t, c, 4)
			if got := c.HintsPending(); got < len(hinted) {
				t.Errorf("hints drained to a dead node: pending = %d", got)
			}

			// Revive: a durable node replays its WAL, an in-memory one resumes
			// the state it kept; membership re-alives it, hints drain, and
			// convergence completes.
			if err := c.Revive(victim); err != nil {
				t.Fatalf("Revive: %v", err)
			}
			r, err := c.Replica(victim)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := r.Get("seed-0"); len(r.Keys()) == 0 && !ok {
				t.Error("revived replica lost its durable state")
			}
			if _, err := c.GossipUntilConverged(120); err != nil {
				t.Fatalf("post-revival convergence: %v", err)
			}
			if got := c.HintsPending(); got != 0 {
				t.Errorf("HintsPending = %d after convergence", got)
			}
			r, _ = c.Replica(victim)
			for _, k := range hinted {
				if v, ok := r.Get(k); !ok || string(v) != "missed" {
					t.Errorf("revived node missing hinted key %s (= %q, %v)", k, v, ok)
				}
			}

		})
	}
}

// AddNode: the newcomer spreads through membership gossip, every ring
// rebuilds deterministically to include it, and anti-entropy populates its
// stripes from the surviving co-owners.
func TestAddNodeJoinsRing(t *testing.T) {
	c := newRingCluster(t, RingConfig{Nodes: 4, Replication: 2, Stripes: 32, Seed: 9})
	for i := 0; i < 30; i++ {
		if _, err := c.Write(fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GossipUntilConverged(60); err != nil {
		t.Fatalf("pre-join convergence: %v", err)
	}
	idx, err := c.AddNode()
	if err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if c.Size() != 5 {
		t.Fatalf("Size = %d", c.Size())
	}
	if _, err := c.GossipUntilConverged(120); err != nil {
		t.Fatalf("post-join convergence: %v", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	newbie := c.nodes[idx]
	ownedStripes := newbie.ring.StripesOwnedBy(newbie.id)
	if len(ownedStripes) == 0 {
		t.Fatal("newcomer owns no stripes")
	}
	// Everyone agrees on a 5-node ring.
	for i, nd := range c.nodes {
		if got := len(nd.ring.Nodes()); got != 5 {
			t.Errorf("node %d ring has %d members", i, got)
		}
	}
	// The newcomer's replica holds every key of every stripe it owns.
	owned := make(map[int]bool)
	for _, s := range ownedStripes {
		owned[s] = true
	}
	for i, nd := range c.nodes {
		if i == idx {
			continue
		}
		for _, k := range nd.replica.Keys() {
			if owned[kvstore.ShardIndex(k, 32)] {
				if _, ok := newbie.replica.Get(k); !ok {
					t.Errorf("newcomer missing %q of an owned stripe", k)
				}
			}
		}
	}
}

// ErrQuorum surfaces when too few owners are up.
func TestQuorumErrors(t *testing.T) {
	c := newRingCluster(t, RingConfig{Nodes: 3, Replication: 3, Stripes: 4, Seed: 2})
	if err := c.Kill(99); err == nil {
		t.Error("Kill out of range accepted")
	}
	if err := c.Revive(99); err == nil {
		t.Error("Revive out of range accepted")
	}
	// Kill two of three owners: writes and reads lose quorum (W=R=2 default).
	if err := c.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("k", []byte("v")); !errors.Is(err, ErrQuorum) {
		t.Errorf("Write with 1/3 owners up: %v", err)
	}
	if _, _, err := c.Read("k"); !errors.Is(err, ErrQuorum) {
		t.Errorf("Read with 1/3 owners up: %v", err)
	}
	// Revive one: quorum of 2 is reachable again.
	if err := c.Revive(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("k", []byte("v")); err != nil {
		t.Errorf("Write with 2/3 owners up: %v", err)
	}
}

func TestStatusReportsMembership(t *testing.T) {
	c := newRingCluster(t, RingConfig{Nodes: 3, Replication: 2, Stripes: 8, Seed: 4,
		SuspectAfter: 1, DeadAfter: 2})
	if _, err := c.Status(99); err == nil {
		t.Error("Status out of range accepted")
	}
	st, err := c.Status(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Down {
		t.Errorf("Status(0) = %+v", st)
	}
	// states returns node 0's membership opinion, member ID to state.
	states := func() map[string]membership.State {
		c.mu.Lock()
		defer c.mu.Unlock()
		view := c.nodes[0].view
		out := make(map[string]membership.State)
		for _, id := range view.Members() {
			out[id] = view.State(id)
		}
		return out
	}
	members := states()
	if len(members) != 3 {
		t.Fatalf("Members = %v", members)
	}
	for id, state := range members {
		if state != membership.Alive {
			t.Errorf("member %s state %s at start", id, state)
		}
	}
	if err := c.Kill(2); err != nil {
		t.Fatal(err)
	}
	tickUntilDead(t, c, 4)
	if state := states()["node-2"]; state != membership.Dead {
		t.Errorf("dead peer reported %s", state)
	}
}

// Acceptance: a deterministic 9-node R=3 ring over 64 stripes survives an
// owner being killed and revived — quorum-readable throughout for keys with
// 2 live owners, hinted handoff drains on revival — and a converged round's
// per-node wire cost is O(owned stripes): at least 3x below what shipping
// the same keyspace whole (a binary snapshot each way) costs a node.
func TestRingAcceptance9Nodes(t *testing.T) {
	const (
		nodes   = 9
		stripes = 64
		keyN    = 500
	)
	c := newRingCluster(t, RingConfig{
		Nodes: nodes, Replication: 3, Stripes: stripes, Seed: 1,
		DataDir:      t.TempDir(),
		SuspectAfter: 1, DeadAfter: 2,
	})
	val := func(i int) []byte {
		return []byte(fmt.Sprintf("value-%d-%032d", i, i))
	}
	for i := 0; i < keyN; i++ {
		if _, err := c.Write(fmt.Sprintf("key-%d", i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GossipUntilConverged(100); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}

	// Kill an owner, keep writing, revive, reconverge.
	const victim = 2
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("down-%d", i)
		if _, err := c.Write(k, []byte("while-down")); err != nil {
			t.Fatalf("Write(%s) during outage: %v", k, err)
		}
		if v, ok, err := c.Read(k); err != nil || !ok || string(v) != "while-down" {
			t.Fatalf("Read(%s) during outage = %q %v %v", k, v, ok, err)
		}
	}
	tickUntilDead(t, c, 4)
	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := c.GossipUntilConverged(150); err != nil {
		t.Fatalf("post-revival convergence: %v", err)
	}
	if n := c.HintsPending(); n != 0 {
		t.Fatalf("%d hints still pending after convergence", n)
	}
	for i := 0; i < keyN; i++ {
		k := fmt.Sprintf("key-%d", i)
		if v, ok, err := c.Read(k); err != nil || !ok || string(v) != string(val(i)) {
			t.Fatalf("Read(%s) after churn = %q %v %v", k, v, ok, err)
		}
	}

	// Converged idle round: per-node bytes must be O(owned stripes).
	idle, err := c.GossipRoundStats(2)
	if err != nil {
		t.Fatal(err)
	}
	var idleMax int64
	for _, b := range idle.BytesPerNode {
		if b > idleMax {
			idleMax = b
		}
	}
	if idleMax == 0 {
		t.Fatal("idle round recorded no wire bytes")
	}

	// Baseline: one whole-keyspace exchange, a binary snapshot each way —
	// what shipping state instead of digests costs a node per round
	// regardless of convergence.
	full := kvstore.NewReplicaShards("full", stripes)
	for i := 0; i < keyN; i++ {
		full.Put(fmt.Sprintf("key-%d", i), val(i))
	}
	snap, err := full.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	baseline := 2 * int64(len(snap))
	t.Logf("idle ring round max per-node bytes = %d; whole-keyspace exchange = %d (%.1fx)",
		idleMax, baseline, float64(baseline)/float64(idleMax))
	if idleMax*3 > baseline {
		t.Fatalf("converged-round bytes %d not 3x below full-replica baseline %d", idleMax, baseline)
	}
}

// A converged ring round costs a node wire bytes in proportion to the
// stripes it owns: the worst node pays less as nodes are added (each owns
// fewer stripes), and no more when the keyspace quadruples (tree roots
// travel, not contents). The 1.5x allowance is for stamp-size jitter; a
// whole-keyspace exchange grows 4x there.
func TestRingIdleRoundScaling(t *testing.T) {
	idleMax := func(nodes, keys int) int64 {
		c := newRingCluster(t, RingConfig{Nodes: nodes, Replication: 3, Stripes: 64, Seed: 1})
		for i := 0; i < keys; i++ {
			if _, err := c.Write(fmt.Sprintf("key-%05d", i), []byte(fmt.Sprintf("value-%d-with-some-padding", i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.GossipUntilConverged(40 + 4*nodes); err != nil {
			t.Fatalf("%d nodes, %d keys: %v", nodes, keys, err)
		}
		idle, err := c.GossipRoundStats(2)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Max(idle.BytesPerNode)
	}
	const keys = 500
	small, large, bigKeys := idleMax(16, keys), idleMax(64, keys), idleMax(16, 4*keys)
	t.Logf("idle round max per-node bytes: 16 nodes %d, 64 nodes %d, 16 nodes at 4x keys %d", small, large, bigKeys)
	if large == 0 || large >= small {
		t.Fatalf("idle cost did not shrink with cluster growth: %d B at 16 nodes, %d B at 64", small, large)
	}
	if 2*bigKeys > 3*small {
		t.Fatalf("idle cost grew with the keyspace: %d B at %d keys, %d B at %d", small, keys, bigKeys, 4*keys)
	}
}

// The self-healing acceptance path: a node crashes, one of its WAL stripes
// rots while it is down, and on revival the damage is scoped to that stripe
// — quarantined, excluded from quorums, rebuilt from the other owners by
// anti-entropy, re-checkpointed, and cleared. The round after repair is
// roots-only for the rebuilt stripe.
func TestQuarantineRepairFromPeers(t *testing.T) {
	dir := t.TempDir()
	c := newRingCluster(t, RingConfig{
		Nodes: 9, Replication: 3, Stripes: 32, Seed: 42,
		DataDir: dir, SuspectAfter: 2, DeadAfter: 4,
	})
	for i := 0; i < 150; i++ {
		if _, err := c.Write(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GossipUntilConverged(80); err != nil {
		t.Fatalf("initial convergence: %v", err)
	}

	// Crash a node and corrupt its busiest stripe's log at rest.
	const victim = 2
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	ndir := filepath.Join(dir, "node-2")
	stripe, ok := faultfs.BusiestShard(ndir, 32)
	if !ok {
		t.Fatal("victim has no WAL logs")
	}
	if _, err := faultfs.FlipLogByte(ndir, stripe, 7); err != nil {
		t.Fatalf("FlipLogByte: %v", err)
	}
	if err := c.Revive(victim); err != nil {
		t.Fatalf("Revive: %v", err)
	}

	// The revival scoped the damage: exactly that stripe quarantined, the
	// rest of the replica loaded, PersistErr reporting.
	r, err := c.Replica(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !r.StripeQuarantined(stripe) {
		t.Fatalf("stripe %d not quarantined after corrupt revival", stripe)
	}
	if q := r.Quarantined(); len(q) != 1 {
		t.Fatalf("Quarantined = %v, want just stripe %d", q, stripe)
	}
	st, err := c.Status(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0] != stripe {
		t.Fatalf("Status.Quarantined = %v, want [%d]", st.Quarantined, stripe)
	}
	if st.PersistErr == "" {
		t.Fatal("Status.PersistErr empty on a quarantined node")
	}
	if c.Converged() {
		t.Fatal("cluster reports converged with a quarantined stripe")
	}

	// Writes to the quarantined stripe still reach quorum — the victim is
	// hinted, not acked — and reads answer from the healthy owners.
	wrote := ""
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("during-%d", i)
		if kvstore.ShardIndex(k, 32) != stripe {
			continue
		}
		acks, err := c.Write(k, []byte("quarantined-write"))
		if err != nil {
			t.Fatalf("Write(%s) during quarantine: %v", k, err)
		}
		if acks > 2 {
			t.Errorf("Write(%s) acks = %d; the quarantined owner must not ack", k, acks)
		}
		if v, ok, err := c.Read(k); err != nil || !ok || string(v) != "quarantined-write" {
			t.Fatalf("Read(%s) during quarantine = %q, %v, %v", k, v, ok, err)
		}
		wrote = k
		break
	}
	if wrote == "" {
		t.Fatal("no probe key landed on the quarantined stripe")
	}

	// Gossip until the repair pass rebuilds and clears the stripe.
	repaired := false
	for round := 0; round < 120 && !c.Converged(); round++ {
		stats, err := c.GossipRoundStats(2)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if stats.StripesRepaired > 0 {
			repaired = true
		}
	}
	if !repaired {
		t.Fatal("no round reported a stripe repair")
	}
	if !c.Converged() {
		t.Fatal("cluster did not converge after repair")
	}
	if q := r.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined = %v after repair", q)
	}
	if err := r.PersistErr(); err != nil {
		t.Fatalf("PersistErr = %v after repair", err)
	}
	if v, ok := r.Get(wrote); !ok || string(v) != "quarantined-write" {
		t.Fatalf("repaired node's copy of %s = %q, %v", wrote, v, ok)
	}

	// The round after repair is roots-only: stripes verify by one tree root
	// each, nothing moves, nothing is quarantined.
	stats, err := c.GossipRoundStats(2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Moved != 0 {
		t.Errorf("post-repair round moved %d keys, want 0", stats.Moved)
	}
	if stats.StripesSkipped == 0 {
		t.Error("post-repair round reported no roots-only stripes")
	}
	if stats.StripesQuarantined != 0 || stats.StripesRepaired != 0 {
		t.Errorf("post-repair round stats = %+v, want no quarantine activity", stats)
	}
	if stats.StripesScrubbed == 0 {
		t.Error("scrub phase idle: no stripes verified this round")
	}

	// A clean restart of the repaired node finds healthy durable state.
	if err := c.Kill(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Revive(victim); err != nil {
		t.Fatal(err)
	}
	r2, _ := c.Replica(victim)
	if q := r2.Quarantined(); len(q) != 0 {
		t.Fatalf("restart after repair re-quarantined %v", q)
	}
	if v, ok := r2.Get(wrote); !ok || string(v) != "quarantined-write" {
		t.Fatalf("restarted node's copy of %s = %q, %v", wrote, v, ok)
	}
}

// The scrub phase demotes a live stripe: corruption planted under a running
// node is caught by the per-round verification sweep, not only at restart.
func TestScrubQuarantinesLiveStripe(t *testing.T) {
	dir := t.TempDir()
	c := newRingCluster(t, RingConfig{
		Nodes: 3, Replication: 3, Stripes: 4, Seed: 7,
		DataDir: dir, SuspectAfter: 2, DeadAfter: 4,
	})
	for i := 0; i < 60; i++ {
		if _, err := c.Write(fmt.Sprintf("key-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GossipUntilConverged(60); err != nil {
		t.Fatal(err)
	}
	ndir := filepath.Join(dir, "node-1")
	stripe, ok := faultfs.BusiestShard(ndir, 4)
	if !ok {
		t.Fatal("node-1 has no WAL logs")
	}
	if _, err := faultfs.FlipLogByte(ndir, stripe, 3); err != nil {
		t.Fatal(err)
	}
	r, _ := c.Replica(1)
	// One scrub pass over the 4 stripes runs in 4 rounds. The repair pass
	// can rebuild the stripe in the same round the scrub demotes it (the
	// node never went down, so its co-owners are right there), so the
	// proof of the live demotion is the round's repair count — the node
	// never restarted, and nothing else quarantines.
	caught := false
	for round := 0; round < 8 && !caught; round++ {
		stats, err := c.GossipRoundStats(2)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		caught = stats.StripesRepaired > 0 || len(r.Quarantined()) > 0
	}
	if !caught {
		t.Fatal("scrub never quarantined the corrupted live stripe")
	}
	if _, err := c.GossipUntilConverged(40); err != nil {
		t.Fatalf("convergence after live demotion: %v", err)
	}
	if q := r.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined = %v after repair", q)
	}
}

// nilResolverRing is a five-node in-memory R=3 ring with no resolver, the
// configuration the simulator runs, and the owners of key's stripe,
// coordinator first. key is written to all three owners.
func nilResolverRing(t *testing.T, key string) (*Cluster, []int, []*kvstore.Replica) {
	t.Helper()
	c, err := NewRingCluster(RingConfig{Nodes: 5, Replication: 3, Stripes: 16, Seed: 1, GossipWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	owners := stripeOwners(t, c, key)
	rs := make([]*kvstore.Replica, len(owners))
	for i, o := range owners {
		if rs[i], err = c.Replica(o); err != nil {
			t.Fatal(err)
		}
	}
	if acks, err := c.Write(key, []byte("base")); err != nil || acks != 3 {
		t.Fatalf("Write = %d acks, %v", acks, err)
	}
	return c, owners, rs
}

// holds checks that r holds key with value under a stamp Equal to want's.
func holds(t *testing.T, what string, r *kvstore.Replica, key, value string, want *kvstore.Replica) {
	t.Helper()
	v, ok := r.Version(key)
	w, _ := want.Version(key)
	if !ok || string(v.Value) != value || core.Compare(v.Stamp, w.Stamp) != core.Equal {
		t.Errorf("%s holds %q %v (ok %v), want %q under a stamp Equal to %v", what, v.Value, v.Stamp, ok, value, w.Stamp)
	}
}

// TestQuorumWriteConflictReachesOrderedOwners: under a nil resolver, a write
// to a key one owner holds a concurrent copy of still reaches the owner
// whose copy it dominates, and the hint of a down owner carries it. The
// concurrent owner keeps its copy, and only the owners holding the write
// ack.
func TestQuorumWriteConflictReachesOrderedOwners(t *testing.T) {
	const key = "key-0000"
	c, owners, rs := nilResolverRing(t, key)
	rs[2].Put(key, []byte("at-conc"))

	acks, err := c.Write(key, []byte("w1"))
	if err != nil || acks != 2 {
		t.Fatalf("Write = %d acks, %v; want 2, the coordinator and the stale owner", acks, err)
	}
	holds(t, "the stale owner", rs[1], key, "w1", rs[0])
	holds(t, "the concurrent owner", rs[2], key, "at-conc", rs[2])

	if err := c.Kill(owners[1]); err != nil {
		t.Fatal(err)
	}
	acks, err = c.Write(key, []byte("w2"))
	if !errors.Is(err, ErrQuorum) || acks != 1 {
		t.Fatalf("Write with the stale owner down = %d acks, %v; want 1 and ErrQuorum", acks, err)
	}
	c.mu.Lock()
	hs, err := c.nodes[owners[0]].hints.Take(c.nodes[owners[1]].id)
	c.mu.Unlock()
	if err != nil || len(hs) != 1 {
		t.Fatalf("hints for the down owner = %v, %v; want one", hs, err)
	}
	cv, _ := rs[0].Version(key)
	if string(hs[0].Value) != "w2" || core.Compare(hs[0].Stamp, cv.Stamp) != core.Equal {
		t.Errorf("hint carries %q %v, want w2 under a stamp Equal to %v", hs[0].Value, hs[0].Stamp, cv.Stamp)
	}
	holds(t, "the concurrent owner", rs[2], key, "at-conc", rs[2])
}

// TestQuorumReadRepairsOrderedOwners: under a nil resolver, read-repair of
// a key whose owners hold a newer copy, a stale one and a concurrent one
// repairs the stale owner and leaves the concurrent copy standing.
func TestQuorumReadRepairsOrderedOwners(t *testing.T) {
	const key = "key-0000"
	c, _, rs := nilResolverRing(t, key)
	rs[0].Put(key, []byte("newer"))
	rs[2].Put(key, []byte("at-conc"))

	v, ok, err := c.Read(key)
	if err != nil || !ok || string(v) != "newer" {
		t.Fatalf("Read = %q, %v, %v; want the coordinator's copy", v, ok, err)
	}
	holds(t, "the stale owner", rs[1], key, "newer", rs[0])
	holds(t, "the concurrent owner", rs[2], key, "at-conc", rs[2])
}
