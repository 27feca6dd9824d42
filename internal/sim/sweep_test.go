//go:build sweep

package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// sweepGolden holds the sweep's 84 metrics lines, one JSON document per run.
const sweepGolden = "testdata/scenario_seeds.golden"

// TestScenarioSeeds runs the seven small scenarios at seeds 1–12 through
// runScenario, so every run must hold every invariant, then replays each
// one (sameMetrics), which logs its metrics as one JSON line. Each line must
// equal the run's line in testdata/scenario_seeds.golden: a change that
// moves the gossip schedule, or any counter, fails here run by run. It is
// too slow for the default suite and builds only with the sweep tag:
//
//	go test -tags sweep -count=1 -v -run TestScenarioSeeds ./internal/sim/
//
// A change meant to move the metrics regenerates the golden from the `-v`
// output of that command (a failure prints its two lines quoted, so they do
// not match):
//
//	go test -tags sweep -count=1 -v -run TestScenarioSeeds ./internal/sim/ | grep -o '{"name".*' > internal/sim/testdata/scenario_seeds.golden
func TestScenarioSeeds(t *testing.T) {
	golden := readSweepGolden(t)
	builds := []func(seed int64, dir string) Scenario{
		func(seed int64, _ string) Scenario { return PartitionHeal(seed) },
		func(seed int64, _ string) Scenario { return LossyQuorum(seed) },
		CrashRestart,
		func(seed int64, _ string) Scenario { return Churn(seed) },
		DiskCorrupt,
		OwnerSetFailure,
		func(seed int64, _ string) Scenario { return TombstoneGC(seed) },
	}
	const seeds = 12
	for _, build := range builds {
		for seed := int64(1); seed <= seeds; seed++ {
			s := build(seed, t.TempDir())
			t.Run(fmt.Sprintf("%s/seed%d", s.Name, seed), func(t *testing.T) {
				m := runScenario(t, s)
				sameMetrics(t, m, build(seed, t.TempDir()))
				got, _ := json.Marshal(m)
				if want := golden[sweepKey(s.Name, seed)]; want != string(got) {
					t.Fatalf("%s seed %d: metrics differ from %s\n got %q\nwant %q",
						s.Name, seed, sweepGolden, got, want)
				}
			})
		}
	}
	if runs := len(builds) * seeds; len(golden) != runs {
		t.Fatalf("%s holds %d runs, the sweep has %d", sweepGolden, len(golden), runs)
	}
}

// readSweepGolden maps each golden line to its scenario and seed.
func readSweepGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(sweepGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]string)
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var id struct {
			Name string `json:"name"`
			Seed int64  `json:"seed"`
		}
		if err := json.Unmarshal(line, &id); err != nil {
			t.Fatalf("%s: %v", sweepGolden, err)
		}
		golden[sweepKey(id.Name, id.Seed)] = string(line)
	}
	return golden
}

func sweepKey(name string, seed int64) string { return fmt.Sprintf("%s/%d", name, seed) }
