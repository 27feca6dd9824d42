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

// DefaultFanout is how many peers each node contacts per gossip round.
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

// divKey identifies one unit of divergence-bias state: an unordered node
// pair plus the stripe their last exchange covered. Keying by node ID
// rather than index keeps the state meaningful across membership churn —
// nodes joining or dying never shift another pair's entry.
type divKey struct {
	a, b   string // node IDs, a < b
	stripe int
}

func pairKey(x, y string, stripe int) divKey {
	if x > y {
		x, y = y, x
	}
	return divKey{a: x, b: y, stripe: stripe}
}

// Cluster manages a set of replicas that gossip over TCP: each node runs a
// Server, and every gossip round each node pushes/pulls with a handful of
// peers through its pooled sessions. Every stripe of the keyspace has R
// owners on a consistent-hash ring, gossip rounds are stripe-scoped and run
// only between a stripe's owners, and reads/writes go through quorums with
// hinted handoff for dead owners (see ringcluster.go). Full replication —
// every node holds every key — is the ring at Replication == Nodes.
//
// Partitions can be injected to model the paper's operating environment:
// gossip simply never selects pairs that cannot reach each other, and
// convergence resumes when the partition heals.
type Cluster struct {
	// mu guards all topology and scheduling state below: group, fanout,
	// node liveness and endpoints, the divergence map, wire accounting and
	// the scratch slices. Exchange workers take it only for brief result
	// recording; the network rounds themselves run outside it.
	mu      sync.Mutex
	resolve kvstore.Resolver
	nodes   []*node
	index   map[string]int // node ID -> index
	// group assigns each node to a partition group; nodes in different
	// groups cannot gossip. All zero = fully connected.
	group []int
	// fanout is the per-node peer count of GossipUntilConverged rounds.
	fanout int
	rng    *rand.Rand
	// div records whether the last exchange of a (pair, stripe) found
	// divergence (data moved or conflicted). Peer selection prefers hot
	// entries — convergence-aware choice: keep pulling from whoever last
	// had news instead of re-verifying converged pairs. Entries for dead
	// peers are cleared when a view reports the death, so a departed
	// node's last-known heat cannot keep attracting picks.
	div map[divKey]bool
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
	// peerScratch and taskScratch are reused across GossipRound calls so a
	// steady gossip loop does not allocate fresh selection slices per node
	// per round.
	peerScratch []int
	taskScratch []gossipTask
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
	backoff      BackoffPolicy
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
// call concurrently with GossipRound: the new topology applies from the
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

// Heal removes all partitions. Safe concurrently with GossipRound.
func (c *Cluster) Heal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.group {
		c.group[i] = 0
	}
}

// SetFanout changes how many peers each node contacts per
// GossipUntilConverged round. k must be positive.
func (c *Cluster) SetFanout(k int) error {
	if k <= 0 {
		return fmt.Errorf("antientropy: fanout %d is not positive", k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fanout = k
	return nil
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

// RoundError is one failed (or skipped) exchange of a gossip round: which
// peer, which stripe, what happened. Operators and the chaos lab both need
// the breakdown — a round that "mostly worked" is the normal case under
// faults, and a bare success count hides who is struggling.
type RoundError struct {
	From   string // initiating node ID
	To     string // peer node ID
	Stripe int    // stripe the exchange was scoped to
	Err    string // error text
	// Retried reports that the pool transparently retried the exchange on
	// a fresh dial before giving up.
	Retried bool
	// Backoff marks an exchange skipped by the peer's backoff window — no
	// traffic happened, the peer was temporarily excused.
	Backoff bool
	// PeerDown marks a failure against a peer the cluster already knows is
	// down — expected churn, not an anomaly.
	PeerDown bool
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
	// Errors lists every exchange that failed or was skipped this round,
	// one entry per (peer, stripe) attempt. The round itself still returns
	// a nil error unless a failure is unexpected (peer not known dead, not
	// a backoff skip).
	Errors []RoundError
}

// GossipRound performs one fan-out round and returns how many exchanges
// ran. k must be positive.
//
// The round is owner-scoped: membership heartbeats gossip first, rings
// rebuild if the member set changed, pending hints drain to revived owners,
// and then every node runs stripe-scoped exchanges with up to k co-owners
// in its partition group of each stripe it owns — wire cost O(stripes it
// owns), not O(cluster keyspace). Nodes with no reachable peer are skipped —
// gossip does not fail, it just cannot happen, exactly like mobile nodes out
// of range.
//
// Exchanges that share a stripe run one after the other within a round —
// see runGossip; writers racing a round are safe: the responder reconciles
// under its stripe locks, and an initiator installs a round's outcome only
// over copies that did not move while it was in flight.
func (c *Cluster) GossipRound(k int) (int, error) {
	stats, err := c.GossipRoundStats(k)
	return stats.Exchanges, err
}

// hotBias is the per-round probability of applying the hot-first partition
// in pickPeers; the complementary rounds select uniformly. Biased-but-not-
// deterministic choice (ε-greedy) keeps convergence fast where divergence
// was last seen while guaranteeing every reachable pair is still selected
// with positive probability each round — a deterministic hot preference
// could starve cold-but-divergent pairs under sustained churn.
const hotBias = 3.0 / 4

// pickPeers picks node i's gossip partners for stripe s from cand, its
// reachable co-owners: a uniform shuffle and, when cand is capped at k, on
// hotBias of the rounds a partition that moves peers whose previous exchange
// with i over s reported divergence to the front — a node chasing known
// divergence converges in fewer rounds than one re-verifying converged
// pairs. The shuffle keeps choice within (and beyond) the hot set random,
// and the uniform rounds keep cold pairs live. all lifts the cap (a
// quarantined stripe contacts every co-owner). Reorders cand in place.
// Caller holds mu.
func (c *Cluster) pickPeers(i, s, k int, cand []int, all bool) []int {
	c.rng.Shuffle(len(cand), func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
	if len(cand) > k && !all {
		if c.rng.Float64() < hotBias {
			front := 0
			for x := 0; x < len(cand); x++ {
				if c.divergent(i, cand[x], s) {
					cand[front], cand[x] = cand[x], cand[front]
					front++
				}
			}
		}
		cand = cand[:k]
	}
	return cand
}

// markDiv records divergence state for a (pair, stripe). Caller holds mu.
func (c *Cluster) markDiv(i, j, stripe int, hot bool) {
	key := pairKey(c.nodes[i].id, c.nodes[j].id, stripe)
	if hot {
		c.div[key] = true
	} else {
		delete(c.div, key)
	}
}

// divergent reports the recorded divergence state. Caller holds mu (tests
// call it single-threaded).
func (c *Cluster) divergent(i, j, stripe int) bool {
	return c.div[pairKey(c.nodes[i].id, c.nodes[j].id, stripe)]
}

// clearDivFor drops every divergence entry involving the given node ID —
// the bugfix for departed peers: a dead node's last-known heat must not
// keep attracting gossip picks (and would otherwise survive forever, since
// no future exchange with it can cool the entry). Caller holds mu.
func (c *Cluster) clearDivFor(id string) {
	for k := range c.div {
		if k.a == id || k.b == id {
			delete(c.div, k)
		}
	}
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
// stripes touch disjoint keys and parallelize freely.
func (c *Cluster) runGossip(tasks []gossipTask, stats *RoundStats, track map[exKey]*exTally) error {
	chains := make([][]gossipTask, 0, len(tasks))
	byStripe := make(map[int]int)
	for _, t := range tasks {
		ci, ok := byStripe[t.stripe]
		if !ok {
			ci = len(chains)
			byStripe[t.stripe] = ci
			chains = append(chains, nil)
		}
		chains[ci] = append(chains[ci], t)
	}
	c.mu.Lock()
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
		res, info, err := t.pool.SyncStripes(t.addr, t.rep, []int{t.stripe})
		mu.Lock()
		if err != nil {
			down := c.nodeDown(t.j)
			stats.Errors = append(stats.Errors, RoundError{
				From: c.nodeID(t.i), To: c.nodeID(t.j), Stripe: t.stripe,
				Err: err.Error(), Retried: info.Retried,
				Backoff: info.Backoff, PeerDown: down,
			})
			// A peer that died mid-round is expected churn, and a backoff
			// skip is the pool doing its job — neither fails the round:
			// membership notices the death, and the backoff window expires.
			if *firstErr == nil && !down && !info.Backoff {
				*firstErr = fmt.Errorf("antientropy: gossip %d->%d: %w", t.i, t.j, err)
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
			// Record whether the exchange found divergence, feeding the next
			// round's convergence-aware peer choice. The relation is
			// symmetric: a round reconciles both sides.
			c.mu.Lock()
			c.markDiv(t.i, t.j, t.stripe, moved+len(res.Conflicts) > 0)
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

// nodeID returns node j's stable ID.
func (c *Cluster) nodeID(j int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j >= 0 && j < len(c.nodes) {
		return c.nodes[j].id
	}
	return fmt.Sprintf("node-%d?", j)
}

// ErrNotConverged is returned by GossipUntilConverged when the budget runs
// out before all reachable nodes agree.
var ErrNotConverged = errors.New("antientropy: cluster did not converge")

// GossipUntilConverged runs fan-out gossip rounds until convergence, or
// maxRounds is exhausted. It returns the number of rounds used.
//
// The cluster has converged when every stripe's up owners in one partition
// group agree on the stripe's live contents, all up nodes have the same
// ring, and no hints remain queued for up targets.
func (c *Cluster) GossipUntilConverged(maxRounds int) (int, error) {
	for round := 1; round <= maxRounds; round++ {
		if _, err := c.GossipRound(c.Fanout()); err != nil {
			return round, err
		}
		if c.Converged() {
			return round, nil
		}
	}
	return maxRounds, ErrNotConverged
}

// Fanout returns the per-round fan-out used by GossipUntilConverged.
func (c *Cluster) Fanout() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fanout
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
