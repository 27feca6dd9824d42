package antientropy

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"versionstamp/internal/hints"
	"versionstamp/internal/kvstore"
	"versionstamp/internal/membership"
	"versionstamp/internal/ring"
)

// DefaultFanout is how many co-owners each node contacts per stripe in a
// GossipUntilConverged round.
const DefaultFanout = 2

// node is one cluster member: its replica, its server endpoint, its pooled
// client sessions, its membership view, its ring, and its durable hint
// queue. The cosmetic IDs ("node-0", "node-1", …) double as the stable
// addresses of the placement and membership layers; replica indexes are
// only a convenience of the embedding API.
type node struct {
	id      string
	replica *kvstore.Replica
	server  *Server
	addr    string
	pool    *Pool
	view    *membership.View
	ring    *ring.Ring
	ringVer uint64 // MemberVersion the ring was built from
	hints   *hints.Queue
	dataDir string
	down    bool
	// frozenHints is the node's queued-hint count sampled at Kill: a down
	// node's queue is closed (durable) or unreadable-by-contract, but the
	// hints it holds are still promised deliveries, so the tombstone GC must
	// keep counting them. Reset on Revive (the reopened queue counts again).
	frozenHints int
}

// Cluster manages a set of replicas that gossip over TCP: each node runs a
// Server, and every gossip round each node pushes/pulls through its pooled
// sessions with a few co-owners, drawn uniformly, of each stripe it owns.
// Every stripe of the keyspace has R owners on a consistent-hash ring,
// gossip rounds are stripe-scoped and run only between a stripe's owners,
// and reads/writes go through quorums with hinted handoff for dead owners
// (see ringcluster.go). No schedule is needed: the stamps alone order any
// two copies, so any pair of owners that meets can sync. Full replication —
// every node holds every key — is the ring at Replication == Nodes.
//
// Partitions can be injected to model the paper's operating environment:
// gossip simply never selects pairs that cannot reach each other, and
// convergence resumes when the partition heals.
type Cluster struct {
	// mu guards all topology and scheduling state below: group, node
	// liveness and endpoints, wire accounting and the scratch slices.
	// Exchange workers take it only for brief result recording; the network
	// rounds themselves run outside it.
	mu      sync.Mutex
	resolve kvstore.Resolver
	nodes   []*node
	index   map[string]int // node ID -> index
	// group assigns each node to a partition group; nodes in different
	// groups cannot gossip. All zero = fully connected.
	group []int
	rng   *rand.Rand
	// wire accumulates per-node wire bytes (sent+received, both ends of
	// every exchange) since the cluster started; WireBytes snapshots it.
	wire []int64
	// conf is the tombstone GC's propagation evidence: conf[{j, s, p}] = e
	// records that owner j's stripe-s state as of j's stripe epoch e has
	// been converged with co-owner p (a completed, conflict-free exchange
	// between them, with e sampled before the exchange started). A tombstone
	// whose ledger epoch is <= min over co-owners of this evidence is proven
	// propagated ring-wide. Entries involving a node are cleared on its Kill
	// and Revive (its epochs restart / its state may predate the evidence),
	// and the whole map clears when any ring rebuilds (ownership moved).
	conf map[confKey]uint64
	// peerScratch and taskScratch are reused across gossip rounds so a
	// steady gossip loop does not allocate fresh selection slices per node
	// per round.
	peerScratch []int
	taskScratch []gossipTask
	// chainOf and chains are runGossip's: a round's tasks grouped into one
	// chain per stripe (chainOf[s] is stripe s's chain index plus one, 0
	// for none), truncated and refilled each round.
	chainOf []int
	chains  [][]gossipTask
	// gcIdxs, gcConf, gcTombs and gcExpect are gcTombstonesLocked's
	// per-stripe owner indexes, propagation horizons, ledger copies and
	// discard sets, so a stripe it cannot collect costs no allocation.
	gcIdxs   []int
	gcConf   []uint64
	gcTombs  []map[string]uint64
	gcExpect []map[string]uint64
	// quorumOwners, readMeta, hintSlots and hintTargets are the quorum
	// paths' scratch, reused so a quorum op allocates only value copies:
	// the owner replicas a Write or Read converges, the copies' metadata a
	// Read compares, and a Write's hint slots with the owner each is for.
	quorumOwners []*kvstore.Replica
	readMeta     []ownerMeta
	hintSlots    []kvstore.Versioned
	hintTargets  []string
	// workers caps the gossip worker pool; 0 means GOMAXPROCS. Scenario
	// runs set 1 so a round's exchange order is deterministic.
	workers int

	// Placement and quorum configuration.
	replication int
	quorum      int // R/2+1: the acks a Write and the live owners a Read need
	stripes     int
	memberCfg   membership.Config
	dataDir     string
	ringCache   map[string]*ring.Ring // member-set key -> shared immutable ring

	// Transport and pool configuration.
	transport    TransportProvider
	poolIdle     time.Duration
	hintCap      int
	durableCount int
}

// transportFor resolves the transport node id dials and listens through.
func (c *Cluster) transportFor(id string) Transport {
	if c.transport != nil {
		if tr := c.transport(id); tr != nil {
			return tr
		}
	}
	return TCP
}

// Close drops every node's pooled sessions, shuts down every server, and
// releases durable resources (replica WALs, hint queues).
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, n := range c.nodes {
		if n.down {
			continue
		}
		_ = n.pool.Close()
		if err := n.server.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if n.dataDir != "" {
			if err := n.replica.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := n.hints.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Dials reports how many TCP connections the cluster's nodes have opened in
// total — with pooled sessions this stays O(pairs) however many rounds run.
func (c *Cluster) Dials() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, nd := range c.nodes {
		n += nd.pool.Dials()
	}
	return n
}

// Size returns the number of nodes.
func (c *Cluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// Replica returns node i's store for reads and writes. The pointer changes
// when a killed durable node revives (it reopens its WAL), so re-fetch
// after Revive.
func (c *Cluster) Replica(i int) (*kvstore.Replica, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.nodes) {
		return nil, fmt.Errorf("antientropy: node %d out of range", i)
	}
	return c.nodes[i].replica, nil
}

// Partition assigns nodes to connectivity groups; nodes gossip only within
// their group. Pass all zeros (or call Heal) to reconnect everyone. Safe to
// call concurrently with GossipRoundStats: the new topology applies from the
// next selection.
func (c *Cluster) Partition(groups []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(groups) != len(c.nodes) {
		return fmt.Errorf("antientropy: %d group assignments for %d nodes",
			len(groups), len(c.nodes))
	}
	copy(c.group, groups)
	return nil
}

// Heal removes all partitions. Safe concurrently with GossipRoundStats.
func (c *Cluster) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.group {
		c.group[i] = 0
	}
}

// WireBytes returns cumulative per-node wire bytes (payload sent plus
// received, attributed to both endpoints of every exchange).
func (c *Cluster) WireBytes() []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.wire...)
}

// confKey identifies one unit of tombstone-GC evidence: what owner `node`
// has proven propagated to co-owner `peer` for one stripe.
type confKey struct {
	node   int
	stripe int
	peer   int
}

// gossipTask is one scheduled exchange: node i initiates a round against
// node j's server, scoped to one stripe. The endpoint fields are captured
// at scheduling time under the cluster lock, so a concurrent Kill/Revive
// cannot race the worker's reads. epochI/epochJ
// are the two stripes' mutation epochs at scheduling time: if the exchange
// completes without conflicts, each side's state as of its sampled epoch is
// proven propagated to the other (sampling before the exchange makes the
// claim conservative — later writes have later epochs).
type gossipTask struct {
	i, j           int
	stripe         int
	rep            *kvstore.Replica
	pool           *Pool
	addr           string
	epochI, epochJ uint64
}

// task builds a gossipTask from current node state. Caller holds mu (or is
// a single-threaded test).
func (c *Cluster) task(i, j, stripe int) gossipTask {
	return gossipTask{
		i: i, j: j, stripe: stripe,
		rep:    c.nodes[i].replica,
		pool:   c.nodes[i].pool,
		addr:   c.nodes[j].addr,
		epochI: c.nodes[i].replica.StripeEpoch(stripe),
		epochJ: c.nodes[j].replica.StripeEpoch(stripe),
	}
}

// confRecord folds a completed conflict-free stripe exchange into the
// tombstone GC's evidence map. Caller holds mu.
func (c *Cluster) confRecord(i, j, stripe int, epochI, epochJ uint64) {
	if c.conf == nil {
		c.conf = make(map[confKey]uint64)
	}
	if k := (confKey{i, stripe, j}); c.conf[k] < epochI {
		c.conf[k] = epochI
	}
	if k := (confKey{j, stripe, i}); c.conf[k] < epochJ {
		c.conf[k] = epochJ
	}
}

// confClearFor drops every evidence entry involving node index n — called
// on Kill and Revive: a restarted replica's epochs restart, and a revived
// node may hold state older than any recorded evidence about it. Caller
// holds mu.
func (c *Cluster) confClearFor(n int) {
	for k := range c.conf {
		if k.node == n || k.peer == n {
			delete(c.conf, k)
		}
	}
}

// RoundStats reports one gossip round's work.
type RoundStats struct {
	// Exchanges counts sync rounds that completed.
	Exchanges int
	// Moved counts keys that changed on some replica (transferred,
	// reconciled or merged). A converged round moves nothing.
	Moved int
	// Conflicts counts conflicting keys left unresolved.
	Conflicts int
	// HintsDrained counts hinted writes delivered to revived owners this
	// round.
	HintsDrained int
	// StripesSkipped counts stripe-scoped exchanges that completed
	// summary-only — the converged fast path, where one summary frame
	// proved nothing needed to move. A healthy idle ring round is all
	// skips; a freshly repaired stripe shows up here the round after its
	// rebuild.
	StripesSkipped int
	// StripesScrubbed counts background scrub verifications run this round
	// (one stripe per durable up node per round).
	StripesScrubbed int
	// StripesQuarantined is the total quarantined stripes across up nodes
	// at the end of the round — the cluster's damage level,
	// not a per-round delta.
	StripesQuarantined int
	// StripesRepaired counts quarantined stripes rebuilt from their
	// co-owners and re-checkpointed this round.
	StripesRepaired int
	// TombstonesDiscarded counts tombstones the GC phase dropped this round
	// across all owners — each one a delete whose propagation to every
	// owner of its stripe was proven before its memory was reclaimed.
	TombstonesDiscarded int
	// TombstonesLive is the total tombstones still held across up nodes at
	// the end of the round — a gauge, not a delta; it should
	// fall to zero once deletes have propagated and the GC has caught up.
	TombstonesLive int
	// BytesPerNode is this round's wire bytes per node (both endpoints of
	// an exchange are charged its full sent+received payload).
	BytesPerNode []int64
	// Errors lists every exchange that failed this round, one per
	// (peer, stripe) attempt, each naming its nodes and stripe and wrapping
	// the cause. The round returns the first of them whose peer is not
	// known to be down; failures against a down peer are only listed.
	Errors []error
}

// pickPeers picks a node's gossip partners for one stripe from cand, its
// reachable co-owners: a uniform shuffle capped at k, so every reachable
// pair has the same chance each round. all lifts the cap (a quarantined stripe
// contacts every co-owner). Reorders cand in place. Caller holds mu.
func (c *Cluster) pickPeers(k int, cand []int, all bool) []int {
	c.rng.Shuffle(len(cand), func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
	if len(cand) > k && !all {
		cand = cand[:k]
	}
	return cand
}

// exKey identifies one node's exchanges for one stripe within a round —
// the unit the ring repair pass judges: a quarantined stripe clears only
// when every exchange its holder scheduled for it succeeded.
type exKey struct {
	node   int
	stripe int
}

// exTally accumulates one (node, stripe)'s exchange outcomes for a round.
type exTally struct {
	ok, failed int
}

// runGossip executes exchanges through a worker pool bounded by GOMAXPROCS,
// accumulating into stats (which must have BytesPerNode sized). When track
// is non-nil, outcomes of initiator exchanges whose (node, stripe) has an
// entry are tallied into it under the stats mutex — the ring repair pass
// seeds entries for quarantined stripes before the round.
//
// Exchanges scoped to the same stripe are chained onto one worker and run
// sequentially; only distinct stripes proceed in parallel. This is a
// soundness requirement of the stamp discipline, not a tuning choice: two
// concurrent reconciliations that consume the same copy of a key both fork
// its stamp's id space, the initiator can keep only one reply (the other is
// discarded by the moved-copy guard), and the two responders are left
// holding overlapping ids — which a later exchange must treat as
// causally-unrelated copies and reseed, silently discarding causality. With
// R owners per stripe every pair of same-stripe exchanges shares a node, so
// per-stripe serialization is exactly the needed exclusion, while different
// stripes touch disjoint keys and parallelize freely. The chains are
// dispatched in order of their stripe's first task, and reuse the cluster's
// chain scratch: rounds do not overlap, as the task list they group is
// already the cluster's scratch.
func (c *Cluster) runGossip(tasks []gossipTask, stats *RoundStats, track map[exKey]*exTally) error {
	c.mu.Lock()
	if len(c.chainOf) < c.stripes {
		c.chainOf = make([]int, c.stripes)
	}
	chains := c.chains[:0]
	for _, t := range tasks {
		ci := c.chainOf[t.stripe] - 1
		if ci < 0 {
			ci = len(chains)
			c.chainOf[t.stripe] = ci + 1
			if ci < cap(chains) {
				chains = chains[:ci+1]
				chains[ci] = chains[ci][:0]
			} else {
				chains = append(chains, nil)
			}
		}
		chains[ci] = append(chains[ci], t)
	}
	for _, t := range tasks {
		c.chainOf[t.stripe] = 0
	}
	c.chains = chains
	workers := c.workers
	c.mu.Unlock()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(chains) {
		workers = len(chains)
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	ch := make(chan []gossipTask)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chain := range ch {
				c.runChain(chain, stats, &mu, &firstErr, track)
			}
		}()
	}
	for _, chain := range chains {
		ch <- chain
	}
	close(ch)
	wg.Wait()
	return firstErr
}

// runChain executes one chain's tasks in order, recording results.
func (c *Cluster) runChain(chain []gossipTask, stats *RoundStats, mu *sync.Mutex, firstErr *error, track map[exKey]*exTally) {
	for _, t := range chain {
		// Every exchange is a round over the initiator's pooled session to
		// the peer, scoped to one stripe so only that stripe's tree root
		// travels.
		res, err := t.pool.SyncStripes(t.addr, t.rep, []int{t.stripe})
		mu.Lock()
		if err != nil {
			err = fmt.Errorf("antientropy: gossip %d->%d stripe %d: %w", t.i, t.j, t.stripe, err)
			stats.Errors = append(stats.Errors, err)
			// A peer that died mid-round is expected churn and does not
			// fail the round: membership notices the death.
			if *firstErr == nil && !c.nodeDown(t.j) {
				*firstErr = err
			}
			if tl := track[exKey{t.i, t.stripe}]; tl != nil {
				tl.failed++
			}
		} else {
			moved := res.Transferred + res.Reconciled + res.Merged
			stats.Exchanges++
			stats.Moved += moved
			stats.Conflicts += len(res.Conflicts)
			if moved == 0 && len(res.Conflicts) == 0 {
				stats.StripesSkipped++
			}
			if tl := track[exKey{t.i, t.stripe}]; tl != nil {
				tl.ok++
			}
			bytes := res.BytesSent + res.BytesReceived
			stats.BytesPerNode[t.i] += bytes
			stats.BytesPerNode[t.j] += bytes
			c.mu.Lock()
			if len(res.Conflicts) == 0 {
				// The two owners now agree on the stripe (no conflict was
				// left standing), so each side's pre-exchange state is
				// proven propagated to the other — tombstone GC evidence.
				c.confRecord(t.i, t.j, t.stripe, t.epochI, t.epochJ)
			}
			c.wire[t.i] += bytes
			c.wire[t.j] += bytes
			c.mu.Unlock()
		}
		mu.Unlock()
	}
}

// nodeDown reports node j's liveness flag.
func (c *Cluster) nodeDown(j int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return j >= 0 && j < len(c.nodes) && c.nodes[j].down
}

// ErrNotConverged is returned by GossipUntilConverged when the budget runs
// out before all reachable nodes agree.
var ErrNotConverged = errors.New("antientropy: cluster did not converge")

// GossipUntilConverged runs gossip rounds of fan-out DefaultFanout until
// convergence, or maxRounds is exhausted. It returns the number of rounds
// used.
//
// The cluster has converged when every stripe's up owners in one partition
// group agree on the stripe's live contents, all up nodes have the same
// ring, and no hints remain queued for up targets.
func (c *Cluster) GossipUntilConverged(maxRounds int) (int, error) {
	for round := 1; round <= maxRounds; round++ {
		if _, err := c.GossipRoundStats(DefaultFanout); err != nil {
			return round, err
		}
		if c.Converged() {
			return round, nil
		}
	}
	return maxRounds, ErrNotConverged
}

// Converged reports whether the cluster currently satisfies its
// convergence condition without running a round — the check
// GossipUntilConverged applies after each round, exported for scenario
// drivers that manage their own round loop (and must keep looping through
// rounds that partially fail, which GossipUntilConverged treats as fatal).
func (c *Cluster) Converged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.convergedLocked()
}
