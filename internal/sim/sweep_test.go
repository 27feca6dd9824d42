//go:build sweep

package sim

import (
	"fmt"
	"testing"
)

// TestScenarioSeeds runs the seven small scenarios at seeds 1–12 through
// runScenario, so every run must hold every invariant, then replays each
// one (sameMetrics), which logs its metrics as one JSON line. The sweep is
// what a change to the gossip schedule is measured by: `-v` output of two
// builds can be diffed run for run. It is too slow for the default suite and
// builds only with the sweep tag:
//
//	go test -tags sweep -count=1 -v -run TestScenarioSeeds ./internal/sim/
func TestScenarioSeeds(t *testing.T) {
	builds := []func(seed int64, dir string) Scenario{
		func(seed int64, _ string) Scenario { return PartitionHeal(seed) },
		func(seed int64, _ string) Scenario { return LossyQuorum(seed) },
		CrashRestart,
		func(seed int64, _ string) Scenario { return Churn(seed) },
		DiskCorrupt,
		OwnerSetFailure,
		func(seed int64, _ string) Scenario { return TombstoneGC(seed) },
	}
	for _, build := range builds {
		for seed := int64(1); seed <= 12; seed++ {
			s := build(seed, t.TempDir())
			t.Run(fmt.Sprintf("%s/seed%d", s.Name, seed), func(t *testing.T) {
				sameMetrics(t, runScenario(t, s), build(seed, t.TempDir()))
			})
		}
	}
}
