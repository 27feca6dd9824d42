package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef mirrors one entry of BENCHMARK.json; the unit test holds the
// two lists equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the library sees, and what later changes are
// gated on. Every metric is non-zero on every workload; quantities that are
// structurally zero somewhere (wire bytes on the store workloads, fsyncs
// without group commit) are layer metrics, and io_bytes_per_op carries their
// gated sum. Throughput and latency are layer metrics too (see wallClock):
// on the shared host this was built on, whole runs of unchanged code differ
// by 1.3-1.7x for minutes at a time, so any bound the contract allows would
// flap. setup_s is the one wall-clock number the contract requires here.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_bytes_per_op", "B", "lower", 0.10},
	{"live_heap_mb", "MiB", "lower", 0.05},
	{"io_bytes_per_op", "B", "lower", 0.10},
	{"stamp_bytes_mean", "B", "lower", 0.10},
	{"stamp_bytes_hot", "B", "lower", 0.25},
}

// wallClock lists the throughput and latency metrics: computed by the
// timing rule in every run, printed, compared by --aa, committed in the
// baselines and emitted as layer metrics, but not bounded.
var wallClock = []metricDef{
	{Name: "setup_wall_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_us", Unit: "us", Better: "lower"},
	{Name: "op_p99_us", Unit: "us", Better: "lower"},
}

type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Reps       int                `json:"repetitions"`
	Ops        int                `json:"ops_per_repetition"`
	LatSamples int                `json:"latency_samples"`
	Attempted  int                `json:"ops_attempted"`
	Failed     int                `json:"ops_failed"`
	FirstFail  string             `json:"first_failure,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Wall       map[string]float64 `json:"wall_clock"`
	Layer      map[string]float64 `json:"layer,omitempty"`
	Budget     []budgetRow        `json:"budget,omitempty"`
}

// composite takes, per fixed segment, the fastest time any repetition
// recorded, and sums them. The host's slow spells last longer than a
// segment and shorter than a run, so each segment's minimum over fresh
// processes filters them where the minimum of whole-run times cannot.
func composite(reps [][]float64) (float64, error) {
	n := len(reps[0])
	var sum float64
	for s := 0; s < n; s++ {
		best := math.Inf(1)
		for _, r := range reps {
			if len(r) != n {
				return 0, fmt.Errorf("repetitions disagree on segment count (%d vs %d)", len(r), n)
			}
			best = math.Min(best, r[s])
		}
		sum += best
	}
	return sum, nil
}

// compose applies the timing rule and the determinism guard to one
// workload's repetitions.
func compose(name string, seed int64, fullScale bool, plain []report, traced *report) (result, error) {
	res := result{Workload: name, Seed: seed, Reps: len(plain), Ops: plain[0].Ops,
		LatSamples: plain[0].LatSamples, Metrics: map[string]float64{}}
	all := plain
	if traced != nil {
		all = append(append([]report(nil), plain...), *traced)
	}
	first := plain[0]
	for i, r := range all {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		if res.FirstFail == "" {
			res.FirstFail = r.FirstFail
		}
		if r.Ops != first.Ops {
			return res, fmt.Errorf("%s: nondeterministic: ops %d in repetition %d, %d in repetition 0", name, r.Ops, i, first.Ops)
		}
		if len(r.Exact) != len(first.Exact) {
			return res, fmt.Errorf("%s: nondeterministic: repetition %d reports %d exact counts, repetition 0 %d", name, i, len(r.Exact), len(first.Exact))
		}
		for k, v := range first.Exact {
			if got, ok := r.Exact[k]; !ok || got != v {
				return res, fmt.Errorf("%s: nondeterministic: %s = %v in repetition %d, %v in repetition 0", name, k, got, i, v)
			}
		}
	}
	// The traced repetition allocates for its spans, so allocation counts
	// are compared among the plain repetitions only — and only at full
	// scale: over the unit test's few hundred ops the runtime's own
	// allocations are several percent of the count.
	for k, v := range first.Approx {
		for i, r := range plain {
			if fullScale && math.Abs(r.Approx[k]-v) > approxTolerance*math.Abs(v) {
				return res, fmt.Errorf("%s: nondeterministic: %s = %v in repetition %d, %v in repetition 0", name, k, r.Approx[k], i, v)
			}
		}
	}

	setups := make([][]float64, len(plain))
	setupCPU := make([][]float64, len(plain))
	meas := make([][]float64, len(plain))
	p50 := math.Inf(1)
	p99 := math.Inf(1)
	for i, r := range plain {
		setups[i], setupCPU[i], meas[i] = r.SetupSegs, r.SetupCPU, r.MeasSegs
		p50 = math.Min(p50, r.P50us)
		p99 = math.Min(p99, r.P99us)
	}
	setup, err := composite(setupCPU)
	if err != nil {
		return res, fmt.Errorf("%s: setup: %w", name, err)
	}
	setupWall, err := composite(setups)
	if err != nil {
		return res, fmt.Errorf("%s: setup: %w", name, err)
	}
	measured, err := composite(meas)
	if err != nil {
		return res, fmt.Errorf("%s: measured: %w", name, err)
	}
	M := res.Metrics
	M["setup_s"] = setup
	res.Wall = map[string]float64{
		"setup_wall_s": setupWall,
		"ops_per_s":    float64(first.Ops) / measured,
		"op_p50_us":    p50,
		"op_p99_us":    p99,
	}
	for k := range first.Approx {
		// Median over repetitions: they agree within approxTolerance.
		vs := make([]float64, len(plain))
		for i, r := range plain {
			vs[i] = r.Approx[k]
		}
		sort.Float64s(vs)
		M[k] = vs[len(vs)/2]
	}
	M["io_bytes_per_op"] = first.Exact["wire_bytes_per_op"] + first.Exact["disk_bytes_per_op"]
	M["stamp_bytes_mean"] = first.Exact["stamp_bytes_mean"]
	M["stamp_bytes_hot"] = first.Exact["stamp_bytes_hot"]

	if traced != nil {
		res.Budget = traced.Budget
		L := map[string]float64{}
		for k, v := range traced.Layer {
			L[k] = v
		}
		for k, v := range first.Exact {
			if _, e2e := M[k]; !e2e {
				L[k] = v
			}
		}
		for k, v := range res.Wall {
			L[k] = v
		}
		L["trace_overhead"] = sumFloat(traced.MeasSegs) / measured
		res.Layer = L
	}
	return res, nil
}

// save writes the whole result — composite metrics, layer metrics and the
// budget table — as the repository's committed trajectory point.
func (res result) save(dir string) error {
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+res.Workload+".json"), append(doc, '\n'), 0o644)
}

// print writes the human table and then the contract's JSON object as the
// last line of standard output.
func (res result) print(traced bool) {
	fmt.Printf("%s  seed %d  %d repetitions x %d ops  (%d latency samples per repetition)\n",
		res.Workload, res.Seed, res.Reps, res.Ops, res.LatSamples)
	defs, vals := endToEnd, res.Metrics
	if traced {
		defs, vals = perLayer, res.Layer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		metrics[d.Name] = mv{v, d.Unit}
		if d.Bound > 0 {
			fmt.Printf("  %-36s %16.6g %-6s bound %.2f (%s is better)\n", d.Name, v, d.Unit, d.Bound, d.Better)
		} else if v != 0 {
			fmt.Printf("  %-36s %16.6g %-6s\n", d.Name, v, d.Unit)
		}
	}
	if !traced {
		for _, d := range wallClock {
			fmt.Printf("  %-36s %16.6g %-6s not gated\n", d.Name, res.Wall[d.Name], d.Unit)
		}
	}
	fmt.Printf("  %-36s %16d\n  %-36s %16d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	if traced {
		fmt.Printf("  budget: share of the measured phase by span self time\n")
		fmt.Printf("    %-12s %-26s %9s %10s %10s %7s\n", "layer", "span", "count", "total_s", "self_s", "share")
		for _, b := range res.Budget {
			fmt.Printf("    %-12s %-26s %9d %10.4f %10.4f %6.1f%%\n", b.Layer, b.Span, b.Count, b.TotalS, b.SelfS, 100*b.Share)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}
