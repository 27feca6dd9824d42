package sim

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/chaosnet"
	"versionstamp/internal/kvstore"
	"versionstamp/internal/storage/faultfs"
)

// deleteWins resolves concurrent copies in favor of deletion, making a
// delete that raced a write stick. The merged value for two concurrent live
// copies is their deterministic concatenation.
func deleteWins(_ string, a, b kvstore.Versioned) ([]byte, bool, error) {
	if a.Deleted || b.Deleted {
		return nil, true, nil
	}
	if string(a.Value) < string(b.Value) {
		return append(append([]byte(nil), a.Value...), b.Value...), false, nil
	}
	return append(append([]byte(nil), b.Value...), a.Value...), false, nil
}

// This file is the cluster half of the simulator: where runner.go replays
// fork/join traces on individual stamp trackers, a Scenario replays a
// scripted fault schedule on a full ring cluster wired over a chaosnet
// fabric — partitions, crashes, churn, lossy links, skewed write traffic —
// and measures how the anti-entropy protocol converges under it.
//
// Everything is deterministic: the fabric's faults are seeded hash
// decisions, the cluster runs with one gossip worker so exchanges follow
// schedule order, the write workload is a seeded Zipf stream, and time is
// logical (rounds and fabric ticks, no wall clock). The same Scenario with
// the same Seed therefore produces byte-identical ScenarioMetrics, which
// TestScenarioDeterminism and TestThousandNodeScenario check by rerunning.

// ActionKind enumerates the fault-schedule verbs.
type ActionKind int

// Scenario script verbs.
const (
	// ActWrite issues Count Zipf-distributed quorum writes. Writes reaching
	// unreachable owners hint or lose acks — errors are counted, not fatal.
	ActWrite ActionKind = iota + 1
	// ActKill crashes node Node (durable nodes drop memory; WAL survives).
	ActKill
	// ActRevive restarts node Node (durable nodes replay their WAL).
	ActRevive
	// ActPartition splits cluster and fabric into Groups (one group index
	// per node, length = current cluster size).
	ActPartition
	// ActHeal removes all partitions, in the cluster and the fabric.
	ActHeal
	// ActAddNode joins a fresh node, triggering membership growth and a
	// deterministic ring rebuild everywhere.
	ActAddNode
	// ActFaults replaces the fabric's default link faults with Faults.
	ActFaults
	// ActCorrupt flips one byte of a WAL frame in node Node's stripe Stripe
	// at rest (Stripe < 0 targets the node's busiest stripe). The node must
	// be durable; script it between a kill and a revive — the revival then
	// quarantines exactly that stripe and ring repair rebuilds it.
	ActCorrupt
	// ActDelete issues Count Zipf-distributed quorum deletes over the same
	// keyspace as ActWrite. Tombstones propagate by anti-entropy and are
	// eventually discarded by the tombstone GC once proven replicated.
	ActDelete
)

// Action is one scripted event, applied before the round it names runs.
type Action struct {
	Round  int
	Kind   ActionKind
	Node   int             // ActKill / ActRevive / ActCorrupt target index
	Count  int             // ActWrite: number of writes
	Stripe int             // ActCorrupt: stripe to damage (< 0 = busiest)
	Groups []int           // ActPartition: group per node index
	Faults chaosnet.Faults // ActFaults: new default link faults
}

// Scenario is one deterministic chaos experiment over a ring cluster.
type Scenario struct {
	Name string
	// Seed drives the fabric's fault schedule, the cluster's peer
	// selection, and the Zipf write stream.
	Seed int64

	// Cluster shape (see antientropy.RingConfig).
	Nodes        int
	Replication  int
	Stripes      int
	Fanout       int // co-owners each node syncs per owned stripe a round (default 1)
	HintCap      int
	DataDir      string // non-empty enables WAL-backed nodes
	DurableCount int    // limits durability to the first N nodes
	SuspectAfter int
	DeadAfter    int
	Backoff      antientropy.BackoffPolicy

	// Faults are the fabric's initial default link faults.
	Faults chaosnet.Faults

	// Write workload: keys are drawn Zipf(s=ZipfS) from a KeySpace-sized
	// keyspace, so a few hot keys are written many times (stamp reuse) and
	// a long tail once (stamp churn).
	KeySpace int     // default 256
	ZipfS    float64 // default 1.2 (must be > 1)

	// DeleteWins resolves conflicting copies in favor of deletion. The
	// default is no resolver at all: conflicts are reported and left
	// standing (ScenarioMetrics.Conflicts), and the scenario converges only
	// if none outlives the faults. DeleteWins is what makes "a deleted key
	// stays deleted until rewritten" a sound invariant, so the resurrection
	// sweep (ScenarioMetrics.Resurrections) only runs for DeleteWins
	// scenarios.
	DeleteWins bool

	// Script is the fault schedule. Rounds past the last scripted action
	// are quiescence: the run ends once the cluster reports convergence
	// (and empty hint queues) for QuiesceRounds consecutive rounds.
	Script        []Action
	RoundBudget   int // hard round cap (default 64)
	QuiesceRounds int // consecutive converged rounds required (default 2)
}

func (s Scenario) withDefaults() Scenario {
	if s.Fanout <= 0 {
		s.Fanout = 1
	}
	if s.KeySpace <= 0 {
		s.KeySpace = 256
	}
	if s.ZipfS <= 1 {
		s.ZipfS = 1.2
	}
	if s.RoundBudget <= 0 {
		s.RoundBudget = 64
	}
	if s.QuiesceRounds <= 0 {
		s.QuiesceRounds = 2
	}
	return s
}

// ScenarioMetrics is a run's complete, deterministic result — every field
// is a pure function of (Scenario, Seed).
type ScenarioMetrics struct {
	Name        string `json:"name"`
	Seed        int64  `json:"seed"`
	Nodes       int    `json:"nodes"` // final cluster size
	RoundBudget int    `json:"round_budget"`

	// Converged reports that the cluster reached (and held) convergence
	// with drained hint queues inside the budget; Rounds is how many
	// rounds that took (or the budget, when it never did).
	Converged bool `json:"converged"`
	Rounds    int  `json:"rounds"`

	Writes      int `json:"writes"`
	WriteErrors int `json:"write_errors"` // quorum shortfalls during faults

	// Tombstone ledger: deletes issued, tombstones the GC discarded after
	// proving propagation, tombstones still live at the end (a healed,
	// quiesced cluster must drain to zero), and deleted-last keys that
	// read as present after convergence (must be zero — a nonzero count
	// means the GC discarded a tombstone its owners had not all seen).
	Deletes             int `json:"deletes,omitempty"`
	DeleteErrors        int `json:"delete_errors,omitempty"`
	TombstonesDiscarded int `json:"tombstones_discarded,omitempty"`
	TombstonesEnd       int `json:"tombstones_end"`
	Resurrections       int `json:"resurrections"`

	Exchanges      int   `json:"exchanges"`
	ExchangeErrors int   `json:"exchange_errors"` // failed or skipped exchanges
	BackoffSkips   int   `json:"backoff_skips"`
	KeysMoved      int   `json:"keys_moved"`
	WireBytes      int64 `json:"wire_bytes"`

	// Conflicts sums the conflicting keys exchanges left unresolved, round
	// by round; ConflictsEnd is the final round's share. A key wedged in
	// arbitration (no resolver, copies that never order) shows as a
	// ConflictsEnd that never reaches zero.
	Conflicts    int `json:"conflicts"`
	ConflictsEnd int `json:"conflicts_end"`

	HintsDrained int   `json:"hints_drained"`
	HintsDropped int64 `json:"hints_dropped"` // evicted by the per-target cap
	HintsPeak    int   `json:"hints_peak"`    // max queued cluster-wide

	// Self-healing ledger: scrub verifications run, quarantined stripes
	// rebuilt from peers, the worst per-round quarantine level, and what
	// remained damaged (or degraded) when the run ended.
	Scrubbed        int `json:"scrubbed"`
	Repaired        int `json:"repaired"`
	QuarantinedPeak int `json:"quarantined_peak"`
	QuarantinedEnd  int `json:"quarantined_end"`
	PersistErrsEnd  int `json:"persist_errs_end"`

	// Stamp growth over every up replica at the end of the run, measured
	// in the stamps' binary form (core.Stamp.BinaryLen).
	KeysTotal      int     `json:"keys_total"`
	StampBytesMax  int     `json:"stamp_bytes_max"`
	StampBytesMean float64 `json:"stamp_bytes_mean"`

	// Net is the fabric's fault ledger: what the chaos actually did.
	Net chaosnet.Stats `json:"net"`
}

// Run executes the scenario and returns its metrics. Fault-induced write
// and exchange failures are counted, not returned; an error means the
// harness itself broke (bad script, cluster construction failure).
func (s Scenario) Run() (*ScenarioMetrics, error) {
	s = s.withDefaults()
	fab := chaosnet.New(s.Seed)
	defer fab.Close()
	var zero chaosnet.Faults
	if s.Faults != zero {
		fab.SetDefaultFaults(s.Faults)
	}

	var resolver kvstore.Resolver
	if s.DeleteWins {
		resolver = deleteWins
	}
	c, err := antientropy.NewRingCluster(antientropy.RingConfig{
		Resolver:      resolver,
		Nodes:         s.Nodes,
		Replication:   s.Replication,
		Stripes:       s.Stripes,
		Seed:          s.Seed,
		HintCap:       s.HintCap,
		DataDir:       s.DataDir,
		DurableCount:  s.DurableCount,
		SuspectAfter:  s.SuspectAfter,
		DeadAfter:     s.DeadAfter,
		Backoff:       s.Backoff,
		Transport:     func(id string) antientropy.Transport { return fab.Node(id) },
		PoolIdle:      -1, // logical time: pooled sessions never expire
		GossipWorkers: 1,  // serial exchanges — schedule order is run order
	})
	if err != nil {
		return nil, fmt.Errorf("sim: scenario %q: %w", s.Name, err)
	}
	defer c.Close()

	// The write stream: seeded Zipf over a fixed keyspace. Derived from
	// Seed but decoupled from the cluster's own rng.
	wrng := rand.New(rand.NewSource(s.Seed ^ 0x5eed5eed))
	zipf := rand.NewZipf(wrng, s.ZipfS, 1, uint64(s.KeySpace-1))
	writeSeq := 0

	byRound := make(map[int][]Action)
	lastScripted := -1
	for _, a := range s.Script {
		byRound[a.Round] = append(byRound[a.Round], a)
		if a.Round > lastScripted {
			lastScripted = a.Round
		}
	}

	m := &ScenarioMetrics{Name: s.Name, Seed: s.Seed, RoundBudget: s.RoundBudget}
	deleted := make(map[string]bool) // keys whose last applied op was a delete
	quiet := 0
	for round := 0; round < s.RoundBudget; round++ {
		for _, a := range byRound[round] {
			if err := s.apply(a, c, fab, zipf, &writeSeq, deleted, m); err != nil {
				return nil, fmt.Errorf("sim: scenario %q round %d: %w", s.Name, round, err)
			}
		}
		// Fault-induced round errors (resets on links, unreachable peers)
		// are the experiment, not a failure: they land in stats.Errors and
		// the error return is ignored.
		stats, _ := c.GossipRoundStats(s.Fanout)
		m.Rounds = round + 1
		m.Exchanges += stats.Exchanges
		m.KeysMoved += stats.Moved
		m.Conflicts += stats.Conflicts
		m.ConflictsEnd = stats.Conflicts
		m.HintsDrained += stats.HintsDrained
		m.TombstonesDiscarded += stats.TombstonesDiscarded
		m.Scrubbed += stats.StripesScrubbed
		m.Repaired += stats.StripesRepaired
		// Peak damage observed this round: what is still quarantined plus
		// what was repaired within the round (a same-round repair would
		// otherwise hide the damage entirely).
		if q := stats.StripesQuarantined + stats.StripesRepaired; q > m.QuarantinedPeak {
			m.QuarantinedPeak = q
		}
		for _, re := range stats.Errors {
			m.ExchangeErrors++
			if re.Backoff {
				m.BackoffSkips++
			}
		}
		if p := c.HintsPending(); p > m.HintsPeak {
			m.HintsPeak = p
		}
		// Quiescence also demands a drained tombstone ledger: converging
		// while deletes still await their GC evidence is not done yet.
		// Vacuously true for scenarios that never delete.
		if round > lastScripted && c.Converged() && c.HintsPending() == 0 &&
			stats.TombstonesLive == 0 {
			quiet++
			if quiet >= s.QuiesceRounds {
				m.Converged = true
				break
			}
		} else {
			quiet = 0
		}
	}

	m.Nodes = c.Size()
	m.HintsDropped = c.HintsDropped()
	for i := 0; i < c.Size(); i++ {
		st, err := c.Status(i)
		if err != nil || st.Down {
			continue
		}
		m.QuarantinedEnd += len(st.Quarantined)
		m.TombstonesEnd += st.TombstonesLive
		if st.PersistErr != "" {
			m.PersistErrsEnd++
		}
	}
	// Resurrection sweep: with delete-wins resolution, a converged healthy
	// cluster must read every deleted-last key as absent — if one comes
	// back, a tombstone was discarded before every owner had seen it.
	if s.DeleteWins && m.Converged {
		keys := make([]string, 0, len(deleted))
		for key := range deleted {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			if _, ok, err := c.Read(key); err == nil && ok {
				m.Resurrections++
			}
		}
	}
	for _, b := range c.WireBytes() {
		m.WireBytes += b
	}
	s.measureStamps(c, m)
	m.Net = fab.Stats()
	return m, nil
}

// apply executes one scripted action. An operation counts as applied for
// the resurrection model once it reached any coordinator (acks >= 1): a
// quorum-failed op is still installed where it landed and propagates from
// there.
func (s Scenario) apply(a Action, c *antientropy.Cluster, fab *chaosnet.Fabric,
	zipf *rand.Zipf, writeSeq *int, deleted map[string]bool, m *ScenarioMetrics) error {
	switch a.Kind {
	case ActWrite:
		for n := 0; n < a.Count; n++ {
			key := fmt.Sprintf("key-%05d", zipf.Uint64())
			val := fmt.Sprintf("v-%d", *writeSeq)
			*writeSeq++
			m.Writes++
			acks, err := c.Write(key, []byte(val))
			if err != nil {
				m.WriteErrors++
			}
			if acks >= 1 {
				delete(deleted, key)
			}
		}
		return nil
	case ActDelete:
		for n := 0; n < a.Count; n++ {
			key := fmt.Sprintf("key-%05d", zipf.Uint64())
			m.Deletes++
			acks, err := c.Delete(key)
			if err != nil {
				m.DeleteErrors++
			}
			if acks >= 1 {
				deleted[key] = true
			}
		}
		return nil
	case ActKill:
		return c.Kill(a.Node)
	case ActRevive:
		return c.Revive(a.Node)
	case ActPartition:
		if len(a.Groups) != c.Size() {
			return fmt.Errorf("partition groups %d != cluster size %d", len(a.Groups), c.Size())
		}
		groups := make(map[string]int, len(a.Groups))
		for i, g := range a.Groups {
			groups[fmt.Sprintf("node-%d", i)] = g
		}
		fab.Partition(groups)
		return c.Partition(a.Groups)
	case ActHeal:
		fab.Heal()
		c.Heal()
		return nil
	case ActAddNode:
		_, err := c.AddNode()
		return err
	case ActFaults:
		fab.SetDefaultFaults(a.Faults)
		return nil
	case ActCorrupt:
		if s.DataDir == "" {
			return fmt.Errorf("ActCorrupt needs a durable scenario (DataDir)")
		}
		dir := filepath.Join(s.DataDir, fmt.Sprintf("node-%d", a.Node))
		stripe := a.Stripe
		if stripe < 0 {
			var ok bool
			if stripe, ok = faultfs.BusiestShard(dir, s.Stripes); !ok {
				return fmt.Errorf("ActCorrupt: node %d has no WAL logs under %s", a.Node, dir)
			}
		}
		if _, err := faultfs.FlipLogByte(dir, stripe, s.Seed); err != nil {
			return fmt.Errorf("ActCorrupt node %d stripe %d: %w", a.Node, stripe, err)
		}
		return nil
	default:
		return fmt.Errorf("unknown action kind %d", a.Kind)
	}
}

// measureStamps sizes every stamp on every up replica in the binary form
// the replicas store and ship — the paper's core cost metric: version
// stamps must stay small even after fault-heavy histories.
func (s Scenario) measureStamps(c *antientropy.Cluster, m *ScenarioMetrics) {
	var total int64
	for i := 0; i < c.Size(); i++ {
		st, err := c.Status(i)
		if err != nil || st.Down {
			continue
		}
		rep, err := c.Replica(i)
		if err != nil {
			continue
		}
		for _, key := range rep.Keys() {
			v, ok := rep.Version(key)
			if !ok {
				continue
			}
			n := v.Stamp.BinaryLen()
			m.KeysTotal++
			total += int64(n)
			if n > m.StampBytesMax {
				m.StampBytesMax = n
			}
		}
	}
	if m.KeysTotal > 0 {
		m.StampBytesMean = float64(total) / float64(m.KeysTotal)
	}
}
