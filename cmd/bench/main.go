// Command bench is the repository's benchmark: four seeded workloads driven
// through the public functions of each layer by one client goroutine, the
// end-to-end metrics a caller of the library sees, and a traced repetition
// that attributes the time to layers. See README.md for the metric and
// workload definitions and the timing rule.
//
//	bash cmd/bench/run.sh --workload quorum-zipf --seed 7 --seconds 12 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

type workload struct {
	name, why string
	run       func(*env) error
}

var workloads = []workload{
	{"quorum-zipf", "whole stack: quorum write/read/delete over 5 durable ring nodes with gossip; the only workload where stamp size moves", runQuorumZipf},
	{"store-read-paged", "kvstore.Get and pagecache do the work (working set 6x the cache); WAL, wire and ring almost none, so sync- or fsync-path changes must not move it", runStoreReadPaged},
	{"store-write-fsync", "storage/wal does the work: a lone writer pays the group-commit window plus one fsync per Put, with periodic checkpoints and a crash-reopen", runStoreWriteFsync},
	{"sync-rounds", "antientropy wire code, encoding and the digest tree do the work, the WAL none: pooled rounds at 0 / 1 key / 1% / 25% divergence", runSyncRounds},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type options struct {
	names   []string
	seed    int64
	seconds float64
	reps    int
	scale   float64
	traced  bool
	dataDir string
	outDir  string
	saveDir string
}

func main() {
	var (
		wl      = flag.String("workload", "all", `workload name, comma list, or "all"`)
		seed    = flag.Int64("seed", defaultSeed, "seed of every generated input")
		seconds = flag.Float64("seconds", defaultSeconds, "measured seconds per run; buys seconds/2.4 fresh-process repetitions")
		trace   = flag.Int("trace", 0, "1 = add a traced repetition and print the per-layer metrics")
		reps    = flag.Int("reps", 0, "override the repetition count")
		scale   = flag.Float64("scale", 1, "shrink every frozen size (tests only)")
		aa      = flag.Int("aa", 0, "run N back-to-back invocations and compare them")
		dataDir = flag.String("data", ".bench_build/data", "scratch directory for stores")
		outDir  = flag.String("out", "cmd/bench/out", "where traced repetitions write spans")
		saveDir = flag.String("save", "", "also write each workload's result to DIR/BENCH_<workload>.json")
		child   = flag.Bool("child", false, "internal: run one repetition and print its report")
		dir     = flag.String("dir", "", "internal: the repetition's private directory")
	)
	flag.Parse()
	if *child {
		os.Exit(childMain(*wl, *seed, *scale, *dir, *outDir, *trace == 1))
	}
	o := options{seed: *seed, seconds: *seconds, reps: *reps, scale: *scale,
		traced: *trace == 1, dataDir: *dataDir, outDir: *outDir, saveDir: *saveDir}
	if *wl == "all" {
		for _, w := range workloads {
			o.names = append(o.names, w.name)
		}
	} else {
		o.names = strings.Split(*wl, ",")
	}
	for _, n := range o.names {
		if _, ok := findWorkload(n); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", n)
			os.Exit(2)
		}
	}
	if o.reps == 0 {
		o.reps = int(math.Round(o.seconds / repSeconds))
		if o.traced {
			o.reps-- // the traced repetition takes one repetition's time
		}
	}
	if o.reps < 2 {
		o.reps = 2
	}
	var err error
	if *aa > 0 {
		err = runAA(o, *aa)
	} else {
		_, err = runOnce(o, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func childMain(name string, seed int64, scale float64, dir, outDir string, traced bool) int {
	w, ok := findWorkload(name)
	if !ok || dir == "" {
		fmt.Fprintln(os.Stderr, "bench: -child needs -workload and -dir")
		return 2
	}
	e := newEnv(seed, scale, dir, traced)
	if err := w.run(e); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if e.tr != nil {
		if err := e.tr.write(outDir, name); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: trace: %v\n", name, err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(&e.rep); err != nil {
		return 1
	}
	return 0
}

// spawn runs one repetition in a fresh process: the intern table and the
// compare cache are process-wide, so a second repetition in the same
// process would measure a warmer program than the first.
func spawn(o options, name string, rep int, traced bool) (report, error) {
	var r report
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	dir := filepath.Join(o.dataDir, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), rep))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", name, "-dir", dir, "-out", o.outDir, "-trace", trace,
		"-seed", strconv.FormatInt(o.seed, 10), "-scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("%s repetition %d: %w", name, rep, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &r); err != nil {
		return r, fmt.Errorf("%s repetition %d: bad report: %w", name, rep, err)
	}
	return r, nil
}

// runOnce is one invocation: o.reps plain repetitions per workload,
// interleaved round-robin so each workload's samples span the whole
// invocation, then the traced repetition if asked for. It prints one result
// line per workload, the last line being the contract's JSON object.
func runOnce(o options, print bool) ([]result, error) {
	plain := make(map[string][]report)
	for rep := 0; rep < o.reps; rep++ {
		for _, name := range o.names {
			r, err := spawn(o, name, rep, false)
			if err != nil {
				return nil, err
			}
			plain[name] = append(plain[name], r)
		}
	}
	var results []result
	var firstErr error
	for _, name := range o.names {
		var traced *report
		if o.traced {
			r, err := spawn(o, name, o.reps, true)
			if err != nil {
				return nil, err
			}
			traced = &r
		}
		res, err := compose(name, o.seed, o.scale >= 1, plain[name], traced)
		if err != nil {
			return nil, err
		}
		if print {
			res.print(o.traced)
		}
		if o.saveDir != "" {
			if err := res.save(o.saveDir); err != nil {
				return nil, err
			}
		}
		if res.Failed > 0 && firstErr == nil {
			firstErr = fmt.Errorf("%s: %d of %d operations failed: %s", name, res.Failed, res.Attempted, res.FirstFail)
		}
		results = append(results, res)
	}
	return results, firstErr
}

// runAA makes n back-to-back invocations of the same binary and seed and
// reports, per workload and metric, max/min over the invocations against the
// metric's bound: two sets of runs of the same code must agree within the
// benchmark's own bounds. The unbounded wall-clock metrics are listed too,
// so the host's current noise is on record next to any claim.
func runAA(o options, n int) error {
	o.traced = false
	var all [][]result
	for i := 0; i < n; i++ {
		rs, err := runOnce(o, false)
		if err != nil {
			return err
		}
		all = append(all, rs)
		fmt.Fprintf(os.Stderr, "bench: a/a invocation %d of %d done\n", i+1, n)
	}
	fmt.Printf("%-18s %-20s %14s %14s %8s %6s\n", "workload", "metric", "min", "max", "max/min", "bound")
	bad := 0
	for w, name := range o.names {
		for _, m := range append(append([]metricDef(nil), endToEnd...), wallClock...) {
			vals := make([]float64, n)
			for i := range all {
				if vals[i] = all[i][w].Metrics[m.Name]; m.Bound == 0 {
					vals[i] = all[i][w].Wall[m.Name]
				}
			}
			sort.Float64s(vals)
			ratio := vals[n-1] / vals[0]
			bound, verdict := "", "not gated"
			if m.Bound > 0 {
				bound, verdict = fmt.Sprintf("%.2f", m.Bound), "inside"
				if ratio > 1+m.Bound {
					verdict = "OUTSIDE"
					bad++
				}
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %8.4f %6s  %s\n", name, m.Name, vals[0], vals[n-1], ratio, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("a/a: %d metric(s) outside their bound", bad)
	}
	return nil
}
