package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary: runOnce
// re-executes os.Executable() with -child, which here is the test itself.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSchema runs every workload at 1/100 scale with two repetitions and a
// traced one, and checks the shape of what comes out against BENCHMARK.json.
// It asserts no wall-clock value: a unit test must not fail on a slow host.
func TestSchema(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		want, _ := json.Marshal(endToEnd)
		t.Errorf("BENCHMARK.json end_to_end differs from the binary's list; want\n%s", want)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		want, _ := json.Marshal(perLayer)
		t.Errorf("BENCHMARK.json per_layer differs from the binary's list; want\n%s", want)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(bj.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	o := options{seed: defaultSeed, reps: 2, scale: 0.01, traced: true,
		dataDir: t.TempDir(), outDir: t.TempDir()}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the binary %q", i, bj.Workloads[i].Name, w.name)
		}
		o.names = append(o.names, w.name)
	}
	results, err := runOnce(o, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %s", res.Workload, res.Failed, res.Attempted, res.FirstFail)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want present and positive", res.Workload, d.Name, v)
			}
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, BENCHMARK.json lists %d", res.Workload, len(res.Metrics), len(endToEnd))
		}
		for k := range res.Layer {
			if !seen[k] {
				t.Errorf("%s: layer metric %s is not in BENCHMARK.json", res.Workload, k)
			}
		}
		if len(res.Budget) == 0 {
			t.Errorf("%s: traced repetition produced no budget table", res.Workload)
		}
	}
}
