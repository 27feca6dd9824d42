package sim

import (
	"fmt"

	"versionstamp/internal/chaosnet"
	"versionstamp/internal/ring"
)

// The predefined scenario catalog. Each is a small, fully scripted story —
// inject a fault class, keep writing through it, repair, and demand
// convergence within a bounded number of gossip rounds. The invariants every
// one of them must hold are asserted in one place, runScenario in
// scenario_test.go.

// PartitionHeal splits a 12-node ring in half, writes on both sides of the
// split, then heals and requires the halves to reconcile.
func PartitionHeal(seed int64) Scenario {
	return Scenario{
		Name: "partition-heal", Seed: seed,
		Nodes: 12, Replication: 3, Stripes: 32,
		Script: []Action{
			{Round: 0, Kind: ActWrite, Count: 120},
			{Round: 3, Kind: ActPartition, Groups: []int{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}},
			{Round: 4, Kind: ActWrite, Count: 80},
			{Round: 8, Kind: ActHeal},
			{Round: 9, Kind: ActWrite, Count: 40},
		},
		RoundBudget: 48,
	}
}

// LossyQuorum runs quorum writes over links that drop, duplicate, reorder
// and delay — the protocol's framing and the pool's retry discipline must
// still converge every stripe.
func LossyQuorum(seed int64) Scenario {
	return Scenario{
		Name: "lossy-quorum", Seed: seed,
		Nodes: 9, Replication: 3, Stripes: 32,
		Faults: chaosnet.Faults{
			DelayTicks: 1, JitterTicks: 2,
			DropProb: 0.05, DupProb: 0.05, ReorderProb: 0.1,
		},
		Script: []Action{
			{Round: 0, Kind: ActWrite, Count: 100},
			{Round: 3, Kind: ActWrite, Count: 100},
			{Round: 6, Kind: ActWrite, Count: 60},
			// The tail of the run is clean so retransmission storms die out
			// and the quiescence check measures protocol rounds, not luck.
			{Round: 10, Kind: ActFaults, Faults: chaosnet.Faults{}},
		},
		RoundBudget: 64,
	}
}

// CrashRestart kills WAL-backed nodes mid-traffic and revives them: the
// crash-restart replay path plus hinted handoff must restore everything.
// dataDir must be a fresh writable directory (the caller's temp dir).
func CrashRestart(seed int64, dataDir string) Scenario {
	return Scenario{
		Name: "crash-restart", Seed: seed,
		Nodes: 8, Replication: 3, Stripes: 32,
		DataDir: dataDir, HintCap: 32,
		Script: []Action{
			{Round: 0, Kind: ActWrite, Count: 100},
			{Round: 3, Kind: ActKill, Node: 2},
			{Round: 4, Kind: ActKill, Node: 5},
			// Writes while two owners are dead: quorums shrink, hints queue.
			{Round: 5, Kind: ActWrite, Count: 120},
			{Round: 12, Kind: ActRevive, Node: 2},
			{Round: 13, Kind: ActRevive, Node: 5},
			{Round: 14, Kind: ActWrite, Count: 40},
		},
		RoundBudget: 64,
	}
}

// Churn grows the ring mid-traffic: joins trigger membership growth and
// deterministic ring rebuilds, re-homing stripes while writes continue.
func Churn(seed int64) Scenario {
	return Scenario{
		Name: "churn", Seed: seed,
		Nodes: 8, Replication: 3, Stripes: 32,
		Script: []Action{
			{Round: 0, Kind: ActWrite, Count: 120},
			{Round: 3, Kind: ActAddNode},
			{Round: 4, Kind: ActWrite, Count: 60},
			{Round: 6, Kind: ActAddNode},
			{Round: 7, Kind: ActWrite, Count: 60},
			{Round: 9, Kind: ActKill, Node: 1},
			{Round: 10, Kind: ActWrite, Count: 40},
			{Round: 14, Kind: ActRevive, Node: 1},
		},
		RoundBudget: 64,
	}
}

// ThousandNode is the full monte at scale: a 1000-node ring takes a
// partition, node crashes (including a WAL-backed one), churn and skewed
// Zipf writes, then must converge within the budget. dataDir may be empty
// (all in-memory) — when set, only the first DurableCount nodes open WALs
// so the scenario does not hold a thousand directories.
func ThousandNode(seed int64, dataDir string) Scenario {
	groups := make([]int, 1000)
	for i := 500; i < 1000; i++ {
		groups[i] = 1
	}
	return Scenario{
		Name: "thousand-node", Seed: seed,
		Nodes: 1000, Replication: 3, Stripes: 128,
		DataDir: dataDir, DurableCount: 8,
		HintCap: 64, KeySpace: 512,
		Script: []Action{
			{Round: 0, Kind: ActWrite, Count: 300},
			{Round: 2, Kind: ActPartition, Groups: groups},
			{Round: 3, Kind: ActWrite, Count: 150},
			{Round: 4, Kind: ActKill, Node: 7},   // durable: WAL crash path
			{Round: 4, Kind: ActKill, Node: 613}, // in-memory pause
			{Round: 5, Kind: ActWrite, Count: 150},
			{Round: 6, Kind: ActHeal},
			{Round: 7, Kind: ActWrite, Count: 100},
			{Round: 9, Kind: ActRevive, Node: 7},
			{Round: 9, Kind: ActRevive, Node: 613},
			{Round: 11, Kind: ActAddNode},
			{Round: 12, Kind: ActWrite, Count: 100},
		},
		RoundBudget: 48,
	}
}

// DiskCorrupt is the self-healing story: a durable node crashes, one of its
// WAL stripes rots while it is down (a flipped byte in the busiest stripe's
// log), and the revival must scope the damage to that stripe — quarantine
// it, keep serving everything else, rebuild it from the other owners by
// anti-entropy, re-checkpoint, and clear the quarantine. dataDir must be a
// fresh writable directory.
func DiskCorrupt(seed int64, dataDir string) Scenario {
	return Scenario{
		Name: "disk-corrupt", Seed: seed,
		Nodes: 9, Replication: 3, Stripes: 32,
		DataDir: dataDir, HintCap: 32,
		Script: []Action{
			{Round: 0, Kind: ActWrite, Count: 150},
			{Round: 3, Kind: ActKill, Node: 2},
			{Round: 4, Kind: ActCorrupt, Node: 2, Stripe: -1},
			// Writes while the node is down and its disk is rotting: the
			// usual hinted-handoff story layered on top of the damage.
			{Round: 4, Kind: ActWrite, Count: 60},
			{Round: 8, Kind: ActRevive, Node: 2},
			{Round: 9, Kind: ActWrite, Count: 40},
		},
		RoundBudget: 64,
	}
}

// OwnerSetFailure is the correlated-failure story the roadmap asked for:
// every owner of one stripe crashes at once (same rack, same batch of bad
// disks), writes to that stripe fail their quorums outright while writes
// elsewhere continue, and when the owner set revives, their WALs plus
// anti-entropy must restore the stripe with no lost acknowledged write.
// dataDir must be a fresh writable directory — the scenario is only
// meaningful with durable nodes.
func OwnerSetFailure(seed int64, dataDir string) Scenario {
	// The owner set of stripe 0 is deterministic for the initial roster:
	// precompute it so the script kills exactly the correlated group.
	members := make([]string, 9)
	for i := range members {
		members[i] = fmt.Sprintf("node-%d", i)
	}
	victims := []int{0, 1, 2} // fallback; overwritten below
	if rg, err := ring.New(members, 32, 3); err == nil {
		if owners, err := rg.Owners(0); err == nil {
			victims = victims[:0]
			for _, id := range owners {
				var i int
				fmt.Sscanf(id, "node-%d", &i)
				victims = append(victims, i)
			}
		}
	}
	script := []Action{{Round: 0, Kind: ActWrite, Count: 120}}
	for _, v := range victims {
		script = append(script, Action{Round: 3, Kind: ActKill, Node: v})
	}
	script = append(script,
		// Writes through the outage: stripe 0's quorums fail (counted, not
		// fatal), every other stripe keeps its quorum.
		Action{Round: 4, Kind: ActWrite, Count: 80},
		Action{Round: 10, Kind: ActRevive, Node: victims[0]},
		Action{Round: 11, Kind: ActRevive, Node: victims[1]},
		Action{Round: 12, Kind: ActRevive, Node: victims[2]},
		Action{Round: 13, Kind: ActWrite, Count: 40},
	)
	return Scenario{
		Name: "owner-set-failure", Seed: seed,
		Nodes: 9, Replication: 3, Stripes: 32,
		DataDir: dataDir, HintCap: 32,
		Script: script, RoundBudget: 64,
	}
}

// TombstoneGC is the deletion lifecycle story: quorum deletes land while a
// replica owner is down and a partition splits the ring, so their
// tombstones must survive as tombstones until the anti-entropy layer has
// proven every owner saw them — only then may the GC discard. The scenario
// runs delete-wins resolution, which makes resurrection checkable: after
// the healed cluster converges and drains its tombstone ledger to zero,
// every key whose last applied operation was a delete must still read as
// absent. One discarded-too-early tombstone shows up as a resurrection.
func TombstoneGC(seed int64) Scenario {
	return Scenario{
		Name: "tombstone-gc", Seed: seed,
		Nodes: 9, Replication: 3, Stripes: 16,
		KeySpace: 64, DeleteWins: true,
		Script: []Action{
			{Round: 0, Kind: ActWrite, Count: 150},
			// Deletes while an owner is down: those tombstones cannot be
			// discarded until node 3 revives and proves it has them.
			{Round: 3, Kind: ActKill, Node: 3},
			{Round: 4, Kind: ActDelete, Count: 40},
			{Round: 6, Kind: ActPartition, Groups: []int{0, 0, 0, 0, 0, 1, 1, 1, 1}},
			{Round: 7, Kind: ActDelete, Count: 20},
			{Round: 7, Kind: ActWrite, Count: 30},
			{Round: 10, Kind: ActHeal},
			{Round: 11, Kind: ActRevive, Node: 3},
			{Round: 12, Kind: ActWrite, Count: 20},
			{Round: 12, Kind: ActDelete, Count: 10},
		},
		RoundBudget: 96,
	}
}
