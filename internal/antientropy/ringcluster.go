package antientropy

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"versionstamp/internal/core"
	"versionstamp/internal/hints"
	"versionstamp/internal/kvstore"
	"versionstamp/internal/membership"
	"versionstamp/internal/ring"
	"versionstamp/internal/storage/wal"
)

// This file is the topology of Cluster: keys hash to stripes, stripes live
// on a consistent-hash ring with R owners each, gossip is owner-scoped, and
// reads/writes run through quorums with hinted handoff.
//
// The division of labor per GossipRound:
//
//  1. Membership: every up node ticks its view and swaps heartbeat tables
//     with a few up peers. Death is detected here, never declared — a
//     revived node's resumed counter re-alives it with no extra protocol.
//  2. Placement: a node whose view learned new member IDs rebuilds its
//     ring (deterministically — same members, same ring everywhere).
//  3. Handoff: hints queued for targets whose heartbeats resumed drain by
//     MergeVersioned, which runs kvstore's one per-key reconcile with the
//     hint as a detached copy — the stamps decide on delivery whether each
//     hinted write is news, already obsolete, or a conflict.
//  4. Scrub: each durable up node re-verifies one stripe's at-rest bytes
//     (frame CRCs, checkpoint checksum) per round, quarantining a live
//     stripe the moment rot is found instead of at the next restart.
//  5. Anti-entropy: for each stripe it owns, each node runs stripe-scoped
//     rounds with up to k of its reachable co-owners, drawn uniformly. A
//     converged stripe costs one tree-root frame, so a node's idle wire
//     cost is O(stripes it owns), independent of the keyspace and of
//     cluster size. A quarantined stripe's holder exchanges with every
//     live co-owner (the fan-out cap does not apply) so the rebuild
//     finishes in as few rounds as possible.
//  6. Repair: a quarantined stripe whose holder completed every exchange
//     it scheduled for it this round has been rebuilt in memory from the
//     other owners — the stamps arbitrated every key on the way in, so
//     the merge is exact, not a guess. The holder re-checkpoints the
//     stripe (replacing the damaged log wholesale) and lifts the
//     quarantine; when the last one clears, PersistErr clears with it.
//
// Dead owners keep their ring ownership (membership drives rebuilds only
// when the member set grows, e.g. AddNode): a transient failure is bridged
// by hints addressed to the same owner, Dynamo-style, not by re-homing the
// stripe. Ownership moves only when the member set changes, and then
// deterministically. Disk damage is likewise bridged in place: the stripe
// stays owned while quarantined, and repair restores it on the same node.

// RingConfig parameterizes NewRingCluster.
type RingConfig struct {
	// Nodes is the initial member count (>= 1).
	Nodes int
	// Replication is the owner count per stripe (1 <= R <= Nodes). A Write
	// needs acks from, and a Read live copies at, a majority of R owners.
	Replication int
	// Stripes is the virtual stripe count (default kvstore.DefaultShards).
	// Every node's replica is striped identically: the wire protocol syncs
	// only replicas with equal stripe counts.
	Stripes int
	// Seed drives peer selection; fixed seed, reproducible schedule.
	Seed int64
	// Resolver merges conflicting copies cluster-wide.
	Resolver kvstore.Resolver
	// DataDir, when set, makes nodes durable: node i's replica WAL lives
	// in DataDir/node-i and its hint queue in DataDir/node-i/hints. Empty
	// means in-memory: replicas without a WAL and volatile hint queues.
	DataDir string
	// DurableCount limits durability to the first N nodes when DataDir is
	// set (0 = all nodes durable). Large simulated clusters use it to keep
	// crash-restart coverage without opening thousands of WAL directories.
	DurableCount int
	// SuspectAfter/DeadAfter are the membership staleness thresholds in
	// rounds (defaults 3 and 6).
	SuspectAfter, DeadAfter int
	// Transport supplies each node's network; nil means TCP on loopback.
	// The chaos lab passes a chaosnet fabric here, so the identical
	// server/pool/protocol code paths run under injected faults.
	Transport TransportProvider
	// PoolIdle is the pooled-session idle expiry (0 = the 90s default,
	// negative = never expire — for logical-time transports).
	PoolIdle time.Duration
	// GossipWorkers caps the per-round exchange worker pool (0 =
	// GOMAXPROCS). Deterministic scenarios set 1: exchange order then
	// follows schedule order exactly.
	GossipWorkers int
	// HintCap bounds each node's hint queue per dead target, dropping the
	// oldest hints on overflow (anti-entropy later converges what the
	// dropped hints promised). 0 = unbounded.
	HintCap int
}

// ErrQuorum is returned by Write and Read when too few owners acknowledged.
var ErrQuorum = errors.New("antientropy: quorum not reached")

// NewRingCluster starts a partitioned cluster. Close releases listeners,
// WALs and hint queues.
func NewRingCluster(cfg RingConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("antientropy: cluster size %d is not positive", cfg.Nodes)
	}
	if cfg.Replication <= 0 || cfg.Replication > cfg.Nodes {
		return nil, fmt.Errorf("antientropy: replication %d outside [1, %d]", cfg.Replication, cfg.Nodes)
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = kvstore.DefaultShards
	}
	if cfg.Stripes < 1 {
		return nil, fmt.Errorf("antientropy: stripe count %d is not positive", cfg.Stripes)
	}
	c := &Cluster{
		resolve:      cfg.Resolver,
		index:        make(map[string]int, cfg.Nodes),
		group:        make([]int, cfg.Nodes),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		wire:         make([]int64, cfg.Nodes),
		workers:      cfg.GossipWorkers,
		replication:  cfg.Replication,
		quorum:       cfg.Replication/2 + 1,
		stripes:      cfg.Stripes,
		memberCfg:    membership.Config{SuspectAfter: cfg.SuspectAfter, DeadAfter: cfg.DeadAfter},
		dataDir:      cfg.DataDir,
		ringCache:    make(map[string]*ring.Ring),
		transport:    cfg.Transport,
		poolIdle:     cfg.PoolIdle,
		hintCap:      cfg.HintCap,
		durableCount: cfg.DurableCount,
	}
	roster := make([]string, cfg.Nodes)
	for i := range roster {
		roster[i] = fmt.Sprintf("node-%d", i)
	}
	for i := 0; i < cfg.Nodes; i++ {
		nd, err := c.newRingNode(roster[i], roster, c.durableLocked(i))
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, nd)
		c.index[nd.id] = i
	}
	return c, nil
}

// durableLocked reports whether node index i gets a WAL-backed replica.
func (c *Cluster) durableLocked(i int) bool {
	if c.dataDir == "" {
		return false
	}
	return c.durableCount == 0 || i < c.durableCount
}

// newRingNode builds one node: replica (WAL-backed when durable), server,
// pool, hint queue, membership view seeded with roster, and the ring over
// that roster.
func (c *Cluster) newRingNode(id string, roster []string, durable bool) (*node, error) {
	nd := &node{id: id}
	if durable {
		nd.dataDir = filepath.Join(c.dataDir, id)
		r, err := kvstore.Open(nd.dataDir, kvstore.Options{Label: id, Shards: c.stripes})
		if err != nil {
			return nil, err
		}
		nd.replica = r
	} else {
		nd.replica = kvstore.NewReplicaShards(id, c.stripes)
	}
	q, err := c.openHints(nd)
	if err != nil {
		_ = c.releaseNode(nd)
		return nil, err
	}
	nd.hints = q
	view, err := membership.NewView(id, c.memberCfg, roster...)
	if err != nil {
		_ = c.releaseNode(nd)
		return nil, err
	}
	nd.view = view
	rg, err := c.ringFor(view.Members())
	if err != nil {
		_ = c.releaseNode(nd)
		return nil, err
	}
	nd.ring = rg
	nd.ringVer = view.MemberVersion()
	if err := c.startNode(nd); err != nil {
		_ = c.releaseNode(nd)
		return nil, err
	}
	return nd, nil
}

// ringFor returns the shared immutable ring over the given member set,
// building it once per distinct set. Ring construction sorts
// members × virtual-points hash points, which at 1k nodes is 64k points —
// paying that once per member set instead of once per node is what makes
// 1k-node scenarios tractable. Rings are immutable and concurrency-safe,
// so sharing one across nodes is sound.
func (c *Cluster) ringFor(members []string) (*ring.Ring, error) {
	key := strings.Join(members, "\x00")
	if rg, ok := c.ringCache[key]; ok {
		return rg, nil
	}
	rg, err := ring.New(members, c.stripes, c.replication)
	if err != nil {
		return nil, err
	}
	c.ringCache[key] = rg
	return rg, nil
}

// openHints opens the node's hint queue over its durable directory, or a
// volatile one for an in-memory node, applying the cluster's per-target cap.
func (c *Cluster) openHints(nd *node) (*hints.Queue, error) {
	var w *wal.WAL
	if nd.dataDir != "" {
		var err error
		if w, err = wal.Open(filepath.Join(nd.dataDir, "hints"), wal.Options{}); err != nil {
			return nil, err
		}
	}
	return hints.Open(w, hints.Options{CapPerTarget: c.hintCap})
}

// startNode gives the node a fresh server, listener and pool, over the
// node's transport.
func (c *Cluster) startNode(nd *node) error {
	tr := c.transportFor(nd.id)
	nd.server = NewServer(nd.replica, c.resolve)
	addr, err := nd.server.ListenTransport(tr, "127.0.0.1:0")
	if err != nil {
		return err
	}
	nd.addr = addr
	nd.pool = NewPoolOptions(PoolOptions{
		Transport: tr,
		Idle:      c.poolIdle,
	})
	return nil
}

// releaseNode closes whatever resources a partially built or dying node
// holds. Durable replicas are abandoned (crash semantics: the WAL stays).
func (c *Cluster) releaseNode(nd *node) error {
	var firstErr error
	if nd.pool != nil {
		_ = nd.pool.Close()
		nd.pool = nil
	}
	if nd.server != nil {
		if err := nd.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		nd.server = nil
	}
	if nd.dataDir != "" && nd.replica != nil {
		if err := nd.replica.Abandon(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if nd.hints != nil {
		if err := nd.hints.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		nd.hints = nil
	}
	return firstErr
}

// GossipRoundStats is GossipRound with the round's statistics; see the file
// comment for the phases.
func (c *Cluster) GossipRoundStats(k int) (RoundStats, error) {
	if k <= 0 {
		return RoundStats{}, fmt.Errorf("antientropy: fanout %d is not positive", k)
	}
	c.mu.Lock()
	stats := RoundStats{BytesPerNode: make([]int64, len(c.nodes))}

	// Phase 1: membership. Tick every up node, then swap heartbeat tables
	// between up to k random up peers per node (same partition group —
	// partitioned nodes cannot exchange liveness either). The tables ride
	// the same logical round as the data exchanges; in this in-process
	// harness they transfer directly.
	for _, nd := range c.nodes {
		if !nd.down {
			nd.view.Tick()
		}
	}
	for i, nd := range c.nodes {
		if nd.down {
			continue
		}
		peers := c.peerScratch[:0]
		for j, p := range c.nodes {
			if j != i && !p.down && c.group[i] == c.group[j] {
				peers = append(peers, j)
			}
		}
		c.rng.Shuffle(len(peers), func(a, b int) { peers[a], peers[b] = peers[b], peers[a] })
		if len(peers) > k {
			peers = peers[:k]
		}
		for _, j := range peers {
			// Both directions of the heartbeat swap, as direct view-to-view
			// merges (counters only move forward, so the asymmetry of the
			// second merge seeing the first's result is harmless).
			peer := c.nodes[j]
			nd.view.MergeFrom(peer.view)
			peer.view.MergeFrom(nd.view)
		}
		c.peerScratch = peers
	}

	// Phase 2: placement. Rebuild rings whose member set grew.
	var firstErr error
	for _, nd := range c.nodes {
		if nd.down {
			continue
		}
		if v := nd.view.MemberVersion(); v != nd.ringVer {
			rg, err := c.ringFor(nd.view.Members())
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if rg != nd.ring {
				// Ownership moved: every piece of tombstone-GC evidence was
				// gathered under the old placement, so none of it proves
				// propagation to the stripes' new owner sets.
				c.conf = nil
			}
			nd.ring = rg
			nd.ringVer = v
		}
	}

	// Phase 3: hinted handoff to targets whose heartbeats resumed.
	if err := c.drainHintsLocked(&stats); err != nil && firstErr == nil {
		firstErr = err
	}

	// Phase 4: scrub. Every durable up node re-verifies one stripe's
	// at-rest bytes; damage quarantines the stripe (inside ScrubNext) and
	// the repair pass below takes it from there. A corruption finding is
	// the scrub working, not a round failure; any other verify error is.
	for _, nd := range c.nodes {
		if nd.down || nd.dataDir == "" {
			continue
		}
		s, err := nd.replica.ScrubNext()
		if s >= 0 {
			stats.StripesScrubbed++
		}
		if err != nil {
			var ce *wal.CorruptError
			if !errors.As(err, &ce) && firstErr == nil {
				firstErr = fmt.Errorf("antientropy: scrub %s stripe %d: %w", nd.id, s, err)
			}
		}
	}

	// Phase 5: schedule stripe-scoped exchanges. For each stripe a node
	// owns, it contacts up to k reachable co-owners, drawn uniformly (see
	// pickPeers). A quarantined stripe bypasses the cap: its holder
	// contacts every live co-owner, and the repair pass watches the
	// outcomes.
	tasks := c.taskScratch[:0]
	track := make(map[exKey]*exTally)
	for i, nd := range c.nodes {
		if nd.down {
			continue
		}
		for _, s := range nd.ring.StripesOwnedBy(nd.id) {
			owners, err := nd.ring.Owners(s)
			if err != nil {
				continue
			}
			quar := nd.replica.StripeQuarantined(s)
			cand := c.peerScratch[:0]
			for _, oid := range owners {
				j, ok := c.index[oid]
				if !ok || j == i {
					continue
				}
				peer := c.nodes[j]
				if peer.down || c.group[i] != c.group[j] || nd.view.State(oid) == membership.Dead {
					continue
				}
				cand = append(cand, j)
			}
			cand = c.pickPeers(k, cand, quar)
			if quar {
				track[exKey{i, s}] = &exTally{}
			}
			for _, j := range cand {
				tasks = append(tasks, c.task(i, j, s))
			}
			c.peerScratch = cand
		}
	}
	c.taskScratch = tasks
	c.mu.Unlock()

	if err := c.runGossip(tasks, &stats, track); err != nil && firstErr == nil {
		firstErr = err
	}

	// Phase 6: repair. A quarantined stripe whose holder reached every live
	// co-owner it scheduled (at least one, none failed) has been rebuilt in
	// memory by the stamp-arbitrated exchanges; re-checkpoint it and lift
	// the quarantine. Anything still quarantined is reported in the stats.
	c.mu.Lock()
	for i, nd := range c.nodes {
		if nd.down {
			continue
		}
		for _, s := range nd.replica.Quarantined() {
			tl := track[exKey{i, s}]
			if tl == nil || tl.ok == 0 || tl.failed > 0 {
				continue
			}
			if err := nd.replica.RepairStripe(s); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("antientropy: repair %s stripe %d: %w", nd.id, s, err)
				}
				continue
			}
			stats.StripesRepaired++
		}
		stats.StripesQuarantined += len(nd.replica.Quarantined())
	}

	// Phase 7: tombstone GC. Discard tombstones whose propagation to every
	// owner of their stripe the confirmation ledger has proven, so a
	// discarded delete can never resurrect its key.
	c.gcTombstonesLocked(&stats)
	for _, nd := range c.nodes {
		if !nd.down {
			stats.TombstonesLive += nd.replica.TombstonesLive()
		}
	}
	c.mu.Unlock()
	return stats, firstErr
}

// gcTombstonesLocked is the ring round's tombstone GC phase. A tombstone
// is memory that exists only to stop a slower copy of the key from
// resurrecting it, so it may be reclaimed exactly when no slower copy can
// exist — this phase discards a tombstone only once that is proven:
//
//   - No hints are queued anywhere (including the frozen counts of down
//     nodes): a hint is a detached pre-delete copy that would reinstall the
//     key at an owner whose tombstone is gone.
//   - All up nodes agree on the ring (pointer equality — rings are shared
//     via ringFor), so "the owners of stripe s" is well-defined.
//   - Every owner of the stripe is up, un-quarantined, and in one partition
//     group: a down or unreachable owner may hold a pre-delete copy of the
//     key (in-memory nodes keep state across Kill), and a quarantined
//     stripe's contents are incomplete mid-rebuild.
//   - The key is currently a tombstone at every owner, and each owner's
//     tombstone epoch is covered by that owner's confirmed-propagation
//     evidence against every co-owner (see confRecord). Single-owner
//     stripes (R == 1) need no evidence — there is no other copy to wait
//     for, which is also what finally reclaims tombstones of keys deleted
//     before ever replicating.
//
// Qualifying tombstones are discarded at every owner in the same locked
// phase; DiscardTombstones re-checks each key's epoch so a racing re-delete
// or revive is left alone. Known limitation: evidence resets wholesale on
// ring growth (c.conf = nil above), so GC pauses until exchanges under the
// new placement re-prove propagation — correct, just conservative.
func (c *Cluster) gcTombstonesLocked(stats *RoundStats) {
	var base *node
	for _, nd := range c.nodes {
		if nd.down {
			if nd.frozenHints > 0 {
				return
			}
			continue
		}
		if nd.hints.Len() > 0 {
			return
		}
		if base == nil {
			base = nd
		} else if nd.ring != base.ring {
			return
		}
	}
	if base == nil {
		return
	}
	for s := 0; s < c.stripes; s++ {
		owners, err := base.ring.Owners(s)
		if err != nil {
			continue
		}
		idxs := c.gcIdxs[:0]
		ok := true
		for _, oid := range owners {
			j, known := c.index[oid]
			if !known || c.nodes[j].down || c.nodes[j].replica.StripeQuarantined(s) ||
				c.group[j] != c.group[c.index[owners[0]]] {
				ok = false
				break
			}
			idxs = append(idxs, j)
		}
		c.gcIdxs = idxs
		if !ok {
			continue
		}
		// The epoch up to which each owner's state is proven propagated to
		// every co-owner (~uint64(0) = no co-owners).
		minConf := c.gcConf[:0]
		for _, j := range idxs {
			m := ^uint64(0)
			for _, p := range idxs {
				if p == j {
					continue
				}
				e, have := c.conf[confKey{j, s, p}]
				if !have {
					ok = false // no evidence at all: nothing here can qualify
					break
				}
				m = min(m, e)
			}
			minConf = append(minConf, m)
		}
		c.gcConf = minConf
		if !ok {
			continue
		}
		// Each owner's tombstone ledger, copied into the cluster's reused
		// maps; an empty one empties the intersection, so the stripe is
		// skipped before the remaining owners' ledgers are copied.
		for len(c.gcTombs) < len(idxs) {
			c.gcTombs = append(c.gcTombs, nil)
			c.gcExpect = append(c.gcExpect, nil)
		}
		tombs := c.gcTombs[:len(idxs)]
		for x, j := range idxs {
			tombs[x] = c.nodes[j].replica.Tombstones(s, tombs[x])
			if len(tombs[x]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// Candidates: tombstoned at every owner, each owner's tombstone
		// epoch within that owner's proven-propagation horizon.
		expect := c.gcExpect[:len(idxs)]
		for x := range expect {
			clear(expect[x])
		}
		any := false
		for k, e0 := range tombs[0] {
			if e0 > minConf[0] {
				continue
			}
			qualifies := true
			for x := 1; x < len(idxs); x++ {
				e, held := tombs[x][k]
				if !held || e > minConf[x] {
					qualifies = false
					break
				}
			}
			if !qualifies {
				continue
			}
			for x := range idxs {
				if expect[x] == nil {
					expect[x] = make(map[string]uint64)
				}
				expect[x][k] = tombs[x][k]
			}
			any = true
		}
		if !any {
			continue
		}
		for x, j := range idxs {
			stats.TombstonesDiscarded += c.nodes[j].replica.DiscardTombstones(s, expect[x])
		}
	}
}

// drainHintsLocked delivers queued hints whose target is up and judged
// alive by the holder's view. Conflicted deliveries (nil resolver) requeue.
// Caller holds mu.
func (c *Cluster) drainHintsLocked(stats *RoundStats) error {
	var firstErr error
	for _, nd := range c.nodes {
		if nd.down {
			continue
		}
		for _, target := range nd.hints.Targets() {
			j, ok := c.index[target]
			if !ok {
				continue
			}
			tn := c.nodes[j]
			if tn.down || nd.view.State(target) != membership.Alive {
				continue
			}
			hs, err := nd.hints.Take(target)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			var requeue []hints.Hint
			for _, h := range hs {
				// A hint for a quarantined stripe waits: the target's copy of
				// the stripe is incomplete and mid-rebuild, and the hint's
				// promise is durability the stripe cannot offer yet.
				if tn.replica.StripeQuarantined(kvstore.ShardIndex(h.Key, c.stripes)) {
					requeue = append(requeue, h)
					continue
				}
				res, err := tn.replica.MergeVersioned(h.Key, kvstore.Versioned{
					Value: h.Value, Deleted: h.Deleted, Stamp: h.Stamp,
				}, c.resolve)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					requeue = append(requeue, h)
					continue
				}
				if len(res.Conflicts) > 0 {
					requeue = append(requeue, h)
					continue
				}
				stats.HintsDrained++
			}
			if len(requeue) > 0 {
				if err := nd.hints.Requeue(requeue); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}

// ownersLocked returns the stripe's owner IDs per the first up node's ring
// (all up nodes agree once membership has settled). Caller holds mu.
func (c *Cluster) ownersLocked(stripe int) []string {
	for _, nd := range c.nodes {
		if !nd.down {
			owners, err := nd.ring.Owners(stripe)
			if err != nil {
				return nil
			}
			return owners
		}
	}
	return nil
}

// Write performs a quorum write: the first up owner of the key's stripe
// coordinates. It applies the write and converges the key over itself and
// every other live owner in one kvstore.ConvergeKey call, so each owner logs
// the key once. The call joins the owners' stamps and forks the result back
// out, so with every owner live the owners' ids reduce to one on each write
// and the key's stamps stay as small as three forked ids. Owners that are
// down, judged dead, across a partition or quarantined get a durable hint
// instead, filled by a hint slot of the same call with the outer half of the
// result (a hint is a promise, not an ack); the first full write after the
// hints drain reclaims their ids. It returns the ack count: 1 plus
// the live owners converged, or 1 alone when the converge fails, in which
// case no push is acked and the write stands at the coordinator. Under a
// nil resolver, an owner whose copy is concurrent with the write keeps it
// for a resolver to settle and does not ack; the other owners and the hints
// still receive the write. Below the write quorum the error is ErrQuorum —
// the write is still applied wherever it reached, and anti-entropy plus
// hint drains finish the job, but the caller knows durability is degraded.
func (c *Cluster) Write(key string, value []byte) (int, error) {
	return c.write(key, value, false)
}

// Delete performs a quorum delete (a tombstone write).
func (c *Cluster) Delete(key string) (int, error) {
	return c.write(key, nil, true)
}

func (c *Cluster) write(key string, value []byte, del bool) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stripe := kvstore.ShardIndex(key, c.stripes)
	owners := c.ownersLocked(stripe)
	var coord *node
	coordGroup := 0
	for _, oid := range owners {
		// An owner whose copy of this stripe is quarantined cannot
		// coordinate: its stripe contents are incomplete until repair.
		if j, ok := c.index[oid]; ok && !c.nodes[j].down &&
			!c.nodes[j].replica.StripeQuarantined(stripe) {
			coord = c.nodes[j]
			coordGroup = c.group[j]
			break
		}
	}
	if coord == nil {
		return 0, fmt.Errorf("%w: no owner of stripe %d is up", ErrQuorum, stripe)
	}
	rs, slots, targets := append(c.quorumOwners[:0], coord.replica), c.hintSlots[:0], c.hintTargets[:0]
	defer func() {
		// Zeroed, the kept scratch pins no replica or stamp past the call.
		clear(rs)
		clear(slots)
		c.quorumOwners, c.hintSlots, c.hintTargets = rs[:0], slots[:0], targets[:0]
	}()
	for _, oid := range owners {
		if oid == coord.id {
			continue
		}
		j, ok := c.index[oid]
		if !ok {
			continue
		}
		target := c.nodes[j]
		// An owner the coordinator cannot reach — crashed, judged dead, or
		// across a network partition — gets a durable hint instead of a
		// push. So does an owner whose copy of the stripe is quarantined:
		// it would take the write in memory but cannot persist it, and an
		// ack is a durability promise. A hint is a promise, not an ack, so
		// a partition that cuts the coordinator off from a quorum of owners
		// fails the write.
		if target.down || c.group[j] != coordGroup || coord.view.State(oid) == membership.Dead ||
			target.replica.StripeQuarantined(stripe) {
			slots, targets = append(slots, kvstore.Versioned{}), append(targets, oid)
			continue
		}
		rs = append(rs, target.replica)
	}
	w := kvstore.KeyWrite{Value: value, Delete: del}
	acks := len(rs)
	res, err := kvstore.ConvergeKey(rs, key, &w, slots, c.resolve)
	switch {
	case err != nil:
		acks = 1
	case len(res.Conflicts) > 0:
		// The owners whose copies stand concurrent with the write kept
		// them; only those whose copy is now Equal to the coordinator's
		// hold the write.
		acks = 1
		cv, _ := rs[0].Meta(key)
		for _, r := range rs[1:] {
			if v, ok := r.Meta(key); ok && core.Compare(v.Stamp, cv.Stamp) == core.Equal {
				acks++
			}
		}
	}
	for x, cp := range slots {
		if cp.Stamp.IsZero() {
			continue
		}
		if err := coord.hints.Add(hints.Hint{
			Target: targets[x], Key: key, Value: cp.Value, Deleted: cp.Deleted, Stamp: cp.Stamp,
		}); err != nil {
			return acks, err
		}
	}
	switch {
	case acks >= c.quorum:
		return acks, nil
	case err != nil:
		return acks, fmt.Errorf("%w: %d of %d acks: %w", ErrQuorum, acks, c.quorum, err)
	}
	return acks, fmt.Errorf("%w: %d of %d acks", ErrQuorum, acks, c.quorum)
}

// Read performs a quorum read: it gathers the key's copies from the live
// owners of its stripe, and when the stamps show divergence (or some owner
// lacks the key) it read-repairs by converging every live owner's copy in
// one kvstore.ConvergeKey call before answering — the stamps prove which
// copies are obsolete, so repair moves only stale ones. ok=false means the
// key is absent (or tombstoned) at the quorum. ErrQuorum means fewer than a
// majority of the owners are up.
//
// The owners are compared by their copies' metadata alone (Replica.Meta),
// gathered into scratch the Cluster keeps under mu; only the answering Get
// touches a value, so a converged key costs the returned value and nothing
// else.
func (c *Cluster) Read(key string) (value []byte, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stripe := kvstore.ShardIndex(key, c.stripes)
	owners := c.ownersLocked(stripe)
	// The first up owner coordinates; owners across a partition are
	// unreachable from it and cannot serve the quorum.
	live, copies := c.quorumOwners[:0], c.readMeta[:0]
	defer func() {
		// Zeroed, the kept scratch pins no replica or stamp past the call.
		clear(live)
		clear(copies)
		c.quorumOwners, c.readMeta = live[:0], copies[:0]
	}()
	coordGroup, haveCoord := 0, false
	for _, oid := range owners {
		j, ok := c.index[oid]
		if !ok || c.nodes[j].down {
			continue
		}
		// A quarantined owner's stripe contents are incomplete — it cannot
		// vouch for the key's presence or absence until repair.
		if c.nodes[j].replica.StripeQuarantined(stripe) {
			continue
		}
		if !haveCoord {
			coordGroup, haveCoord = c.group[j], true
		}
		if c.group[j] == coordGroup {
			live = append(live, c.nodes[j].replica)
		}
	}
	if len(live) < c.quorum {
		return nil, false, fmt.Errorf("%w: %d of %d owners up", ErrQuorum, len(live), c.quorum)
	}

	anyPresent, divergent := false, false
	for _, r := range live {
		v, present := r.Meta(key)
		copies = append(copies, ownerMeta{v, present})
		anyPresent = anyPresent || present
	}
	if !anyPresent {
		return nil, false, nil
	}
	for _, cp := range copies[1:] {
		if cp.present != copies[0].present ||
			cp.present && core.Compare(copies[0].v.Stamp, cp.v.Stamp) != core.Equal {
			divergent = true
			break
		}
	}
	if divergent {
		if _, err := kvstore.ConvergeKey(live, key, nil, nil, c.resolve); err != nil {
			return nil, false, err
		}
	}
	v, ok := live[0].Get(key)
	return v, ok, nil
}

// ownerMeta is one owner's copy of a key as a quorum read compares it: the
// stamp and tombstone flag, and whether the owner holds the key at all.
type ownerMeta struct {
	v       kvstore.Versioned
	present bool
}

// Kill takes node i down: its server and pooled sessions close, and a
// durable node's replica abandons its WAL without checkpointing — crash
// semantics, so Revive replays the log exactly as a process restart would.
// In-memory nodes keep their state (pause semantics; only durable nodes
// can lose and recover memory). The node's heartbeat counter freezes, so
// peers will suspect and then declare it dead.
func (c *Cluster) Kill(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("antientropy: node %d out of range", i)
	}
	nd := c.nodes[i]
	if nd.down {
		return nil
	}
	nd.down = true
	// Freeze the queued-hint count (the GC gate keeps counting a down
	// node's undelivered hints) and drop propagation evidence involving
	// the node — its post-revive state must be re-proven.
	nd.frozenHints = nd.hints.Len()
	c.confClearFor(i)
	_ = nd.pool.Close()
	err := nd.server.Close()
	if nd.dataDir != "" {
		if aerr := nd.replica.Abandon(); aerr != nil && err == nil {
			err = aerr
		}
		if herr := nd.hints.Close(); herr != nil && err == nil {
			err = herr
		}
		nd.hints = nil
	}
	return err
}

// Revive brings a killed node back: a durable node reopens its WAL
// (checkpoint plus log tail — the crash-restart path) and its hint queue,
// and every revived node gets a fresh listener and pool. Its membership
// view resumes with a grace refresh, and its resumed heartbeat counter
// re-alives it at the peers within a few rounds — at which point their
// queued hints drain to it.
func (c *Cluster) Revive(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return fmt.Errorf("antientropy: node %d out of range", i)
	}
	nd := c.nodes[i]
	if !nd.down {
		return nil
	}
	if nd.dataDir != "" {
		r, err := kvstore.Open(nd.dataDir, kvstore.Options{Label: nd.id, Shards: c.stripes})
		if err != nil {
			return err
		}
		nd.replica = r
		q, err := c.openHints(nd)
		if err != nil {
			_ = r.Abandon()
			return err
		}
		nd.hints = q
	}
	if err := c.startNode(nd); err != nil {
		return err
	}
	nd.view.Refresh()
	nd.down = false
	nd.frozenHints = 0
	c.confClearFor(i)
	return nil
}

// AddNode grows the ring: a new node joins with the current member roster
// as its bootstrap view, and its ID spreads to the existing members by
// membership gossip, after which every view's member set has grown and
// every ring deterministically rebuilds to give the newcomer its stripes.
// Anti-entropy then populates them from the surviving co-owners (a single
// addition shifts at most one owner per stripe, so every stripe keeps R-1
// owners holding its data). Returns the new node's index.
func (c *Cluster) AddNode() (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := fmt.Sprintf("node-%d", len(c.nodes))
	if _, taken := c.index[id]; taken {
		return 0, fmt.Errorf("antientropy: node ID %s already exists", id)
	}
	// Bootstrap roster: the joining node contacts the current membership.
	roster := []string{id}
	for _, nd := range c.nodes {
		roster = append(roster, nd.id)
	}
	nd, err := c.newRingNode(id, roster, c.durableLocked(len(c.nodes)))
	if err != nil {
		return 0, err
	}
	i := len(c.nodes)
	c.nodes = append(c.nodes, nd)
	c.index[id] = i
	c.group = append(c.group, 0)
	c.wire = append(c.wire, 0)
	return i, nil
}

// HintsPending returns the total hinted writes queued across all up nodes.
func (c *Cluster) HintsPending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, nd := range c.nodes {
		if !nd.down {
			total += nd.hints.Len()
		}
	}
	return total
}

// HintsDropped returns the total hints discarded by per-target caps across
// all nodes since the cluster started (0 without a HintCap).
func (c *Cluster) HintsDropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, nd := range c.nodes {
		if nd.hints != nil {
			total += nd.hints.Dropped()
		}
	}
	return total
}

// MemberStatus is one row of a node's membership opinion.
type MemberStatus struct {
	ID    string
	State string
}

// NodeStatus is a point-in-time report of one node, as ExampleNewRingCluster
// prints it and the chaos lab reads it at the end of a run.
type NodeStatus struct {
	ID           string
	Addr         string
	Down         bool
	OwnedStripes []int
	HintsPending int
	// Quarantined lists the node's stripes whose durable bytes are damaged
	// and awaiting repair from ring peers; empty on a healthy node.
	Quarantined []int
	// PersistErr is the node's standing durability degradation report
	// (quarantine, ENOSPC, fsync failure...), empty when durability holds.
	PersistErr string
	// TombstonesLive is the number of delete tombstones the node still
	// holds — retained until the gossip rounds' GC phase proves each one
	// propagated to every owner of its stripe.
	TombstonesLive int
	Members        []MemberStatus
}

// Status reports node i's identity, liveness, owned stripes, queued hints,
// storage health and membership opinion.
func (c *Cluster) Status(i int) (NodeStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return NodeStatus{}, fmt.Errorf("antientropy: node %d out of range", i)
	}
	nd := c.nodes[i]
	st := NodeStatus{
		ID: nd.id, Addr: nd.addr, Down: nd.down,
		OwnedStripes:   nd.ring.StripesOwnedBy(nd.id),
		Quarantined:    nd.replica.Quarantined(),
		TombstonesLive: nd.replica.TombstonesLive(),
	}
	// A killed durable node's queue is closed until Revive reopens it.
	if nd.hints != nil {
		st.HintsPending = nd.hints.Len()
	}
	if pe := nd.replica.PersistErr(); pe != nil {
		st.PersistErr = pe.Error()
	}
	for _, id := range nd.view.Members() {
		st.Members = append(st.Members, MemberStatus{ID: id, State: nd.view.State(id).String()})
	}
	return st, nil
}

// convergedLocked reports convergence: all up nodes agree on the ring, every
// stripe's up owners (same partition group) agree on the stripe's live
// contents, and no hints remain addressed to up targets. Caller holds mu.
func (c *Cluster) convergedLocked() bool {
	var base *node
	for _, nd := range c.nodes {
		if !nd.down {
			base = nd
			break
		}
	}
	if base == nil {
		return true
	}
	baseNodes := base.ring.Nodes()
	for _, nd := range c.nodes {
		if nd.down {
			continue
		}
		// A quarantined stripe is unfinished business: its in-memory copy
		// is incomplete and its durable copy is damaged. The cluster is not
		// converged until repair clears it.
		if len(nd.replica.Quarantined()) > 0 {
			return false
		}
		nodes := nd.ring.Nodes()
		if len(nodes) != len(baseNodes) {
			return false
		}
		for i := range nodes {
			if nodes[i] != baseNodes[i] {
				return false
			}
		}
		for _, target := range nd.hints.Targets() {
			if j, ok := c.index[target]; ok && !c.nodes[j].down {
				return false
			}
		}
	}
	// Per-stripe owner agreement on live contents.
	byStripe := make(map[*node]map[int]map[string]string)
	snapshot := func(nd *node) map[int]map[string]string {
		if m, ok := byStripe[nd]; ok {
			return m
		}
		m := make(map[int]map[string]string)
		for _, k := range nd.replica.Keys() {
			s := kvstore.ShardIndex(k, c.stripes)
			if m[s] == nil {
				m[s] = make(map[string]string)
			}
			v, _ := nd.replica.Get(k)
			m[s][k] = string(v)
		}
		byStripe[nd] = m
		return m
	}
	for s := 0; s < c.stripes; s++ {
		owners, err := base.ring.Owners(s)
		if err != nil {
			return false
		}
		var live []*node
		for _, oid := range owners {
			if j, ok := c.index[oid]; ok && !c.nodes[j].down {
				live = append(live, c.nodes[j])
			}
		}
		for x := 0; x < len(live); x++ {
			for y := x + 1; y < len(live); y++ {
				if c.group[c.index[live[x].id]] != c.group[c.index[live[y].id]] {
					continue
				}
				if !stripeEqual(snapshot(live[x])[s], snapshot(live[y])[s]) {
					return false
				}
			}
		}
	}
	return true
}

func stripeEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
