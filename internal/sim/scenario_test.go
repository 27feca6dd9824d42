package sim

import (
	"encoding/json"
	"fmt"
	"testing"
)

// stampCapBytes bounds the largest binary-encoded stamp a scenario with
// replication factor r may end with: 40 bytes per owner copy, 120 B at
// R = 3. A quorum write joins the owners' copies and forks them R ways, so a
// key's stamps grow only while copies are outstanding — a hint that has not
// drained, or an id a pairwise sync abandoned. Over the seven small
// scenarios at seeds 1–12 (TestScenarioSeeds, sweep_test.go) the largest
// stamp was 99 B (owner-set-failure, seed 10, whose hint queues peaked at
// 65) and the 1000-node run's 17 B. Which run ends with the largest stamp
// moves with the gossip schedule, so the cap keeps headroom over it.
func stampCapBytes(r int) int { return 40 * r }

// runScenario runs s and asserts the system invariants every chaos scenario
// must hold, whatever fault it injects. It is their one statement: a
// scenario test adds only what is specific to its story.
func runScenario(t *testing.T, s Scenario) *ScenarioMetrics {
	t.Helper()
	m, err := s.Run()
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if !m.Converged {
		t.Fatalf("%s: did not converge within %d rounds: %+v", s.Name, m.RoundBudget, m)
	}
	if m.Writes == 0 || m.Exchanges == 0 {
		t.Fatalf("%s: scenario did no work: %+v", s.Name, m)
	}
	if limit := stampCapBytes(s.Replication); m.KeysTotal == 0 || m.StampBytesMax == 0 || m.StampBytesMax > limit {
		t.Fatalf("%s: max stamp %d B over %d keys, want 1..%d B", s.Name, m.StampBytesMax, m.KeysTotal, limit)
	}
	// Converging around standing disk damage is not convergence.
	if m.QuarantinedEnd != 0 || m.PersistErrsEnd != 0 {
		t.Fatalf("%s: ended damaged: %d stripes quarantined, %d nodes degraded", s.Name, m.QuarantinedEnd, m.PersistErrsEnd)
	}
	// Deletes complete their lifecycle: the GC proved every tombstone
	// replicated and discarded it, and no deleted key came back.
	if m.TombstonesEnd != 0 || m.Resurrections != 0 {
		t.Fatalf("%s: ended with %d live tombstones, %d resurrections", s.Name, m.TombstonesEnd, m.Resurrections)
	}
	if m.Deletes > 0 && m.TombstonesDiscarded == 0 {
		t.Fatalf("%s: %d deletes but the tombstone GC never discarded: %+v", s.Name, m.Deletes, m)
	}
	// Without a resolver a conflict is reported and left standing, so one
	// in the final round is a key stuck in arbitration for good.
	if !s.DeleteWins && m.ConflictsEnd != 0 {
		t.Fatalf("%s: final round left %d conflicts standing: %+v", s.Name, m.ConflictsEnd, m)
	}
	return m
}

// sameMetrics fails unless a rerun of one (scenario, seed) reproduced the
// first run's metrics byte for byte — every counter, down to the fabric's
// fault ledger. Logical time and seeded faults leave nothing to luck. The
// first run's metrics are logged as one JSON line, so `go test -v` output of
// two builds can be diffed to show a change replays the same scenarios.
func sameMetrics(t *testing.T, first *ScenarioMetrics, rerun Scenario) {
	t.Helper()
	second, err := rerun.Run()
	if err != nil {
		t.Fatalf("%s rerun: %v", rerun.Name, err)
	}
	ja, _ := json.Marshal(first)
	jb, _ := json.Marshal(second)
	t.Logf("%s: %s", rerun.Name, ja)
	if string(ja) != string(jb) {
		t.Fatalf("%s: two runs with one seed diverged:\n%s\n%s", rerun.Name, ja, jb)
	}
}

func TestPartitionHealScenario(t *testing.T) {
	m := runScenario(t, PartitionHeal(1))
	if m.WriteErrors == 0 {
		t.Fatalf("no quorum shortfalls during the partition: %+v", m)
	}
	if m.HintsDrained == 0 {
		t.Fatalf("cross-partition writes queued no hints: %+v", m)
	}
	if m.Net.Resets == 0 {
		t.Fatalf("the fabric partition cut no pooled sessions: %+v", m.Net)
	}
}

func TestLossyQuorumScenario(t *testing.T) {
	m := runScenario(t, LossyQuorum(2))
	if m.Net.Drops == 0 || m.Net.Dups == 0 || m.Net.Reorders == 0 {
		t.Fatalf("fault injection did not fire: %+v", m.Net)
	}
}

func TestCrashRestartScenario(t *testing.T) {
	m := runScenario(t, CrashRestart(3, t.TempDir()))
	if m.HintsDrained == 0 {
		t.Fatalf("no hinted handoff happened: %+v", m)
	}
	if m.HintsPeak == 0 {
		t.Fatalf("hint queues never filled: %+v", m)
	}
}

func TestChurnScenario(t *testing.T) {
	m := runScenario(t, Churn(4))
	if m.Nodes != 10 {
		t.Fatalf("churn ended with %d nodes, want 10", m.Nodes)
	}
}

// TestThousandNodeScenario is the headline acceptance run: a seeded
// 1000-node ring through partition, crashes (one WAL-backed), churn and
// Zipf writes must hold every invariant within the round budget — twice,
// with byte-identical metrics.
func TestThousandNodeScenario(t *testing.T) {
	m := runScenario(t, ThousandNode(5, t.TempDir()))
	if m.Nodes != 1001 {
		t.Fatalf("ended with %d nodes, want 1001", m.Nodes)
	}
	if m.WriteErrors == 0 {
		t.Fatalf("partition+kill produced no quorum shortfalls: %+v", m)
	}
	// Rerun in a fresh directory — reusing the first run's WALs would be a
	// different (resumed) experiment, not a replay.
	sameMetrics(t, m, ThousandNode(5, t.TempDir()))
}

// TestScenarioDeterminism reruns every small scenario (the 1000-node one
// reruns itself above) at one more seed, durable ones in a fresh directory.
func TestScenarioDeterminism(t *testing.T) {
	const seed = 42
	for _, build := range []func(dir string) Scenario{
		func(string) Scenario { return PartitionHeal(seed) },
		func(string) Scenario { return LossyQuorum(seed) },
		func(dir string) Scenario { return CrashRestart(seed, dir) },
		func(string) Scenario { return Churn(seed) },
		func(dir string) Scenario { return DiskCorrupt(seed, dir) },
		func(dir string) Scenario { return OwnerSetFailure(seed, dir) },
		func(string) Scenario { return TombstoneGC(seed) },
	} {
		sameMetrics(t, runScenario(t, build(t.TempDir())), build(t.TempDir()))
	}
}

// Seed 6 is the original run. At the others a corrupt stripe log's readable
// prefix used to come back as a rollback: the revived node held a key under
// a stamp id it had since forked away, which reads as independent creation
// against the co-owners' copies, and with no resolver the conflict stood
// forever — repaired, never converged.
func TestDiskCorruptScenario(t *testing.T) {
	for _, seed := range []int64{6, 5, 15, 17, 18} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			m := runScenario(t, DiskCorrupt(seed, t.TempDir()))
			if m.Repaired == 0 {
				t.Fatalf("the corrupted stripe was never repaired from peers: %+v", m)
			}
			if m.QuarantinedPeak == 0 {
				t.Fatalf("the at-rest corruption never quarantined a stripe: %+v", m)
			}
			if m.Scrubbed == 0 {
				t.Fatalf("the scrub phase never ran on a durable cluster: %+v", m)
			}
		})
	}
}

func TestOwnerSetFailureScenario(t *testing.T) {
	m := runScenario(t, OwnerSetFailure(8, t.TempDir()))
	if m.WriteErrors == 0 {
		t.Fatalf("killing a stripe's whole owner set caused no quorum failures: %+v", m)
	}
}

func TestTombstoneGCScenario(t *testing.T) {
	m := runScenario(t, TombstoneGC(7))
	if m.Deletes == 0 || m.WriteErrors+m.DeleteErrors == 0 {
		t.Fatalf("no deletes, or none raced the kill and the partition: %+v", m)
	}
}
