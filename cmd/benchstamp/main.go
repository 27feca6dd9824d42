// Command benchstamp measures the interned stamp kernel — Compare, Join,
// Fork, Update and the kvstore's batched digest diff (DiffRanges) — and emits ns/op and
// allocs/op as machine-readable JSON, the artifact CI tracks across PRs so
// kernel regressions show up as a diff in BENCH_stamp.json rather than a
// buried log line.
//
// The run fails (exit 1) if Compare on interned stamps reports any
// allocations: zero allocs on the comparison fast path is the kernel's
// contract, and CI enforces it through this command's exit status.
//
//	benchstamp -keys 1000 -large-keys 100000 -out BENCH_stamp.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// Measurement is one operation × scenario data point.
type Measurement struct {
	Op          string  `json:"op"`          // compare, join, fork, update, diffAgainst
	Scenario    string  `json:"scenario"`    // converged or divergent
	Keys        int     `json:"keys"`        // keyspace size (diffAgainst only)
	NsPerOp     float64 `json:"nsPerOp"`     // wall time per operation
	AllocsPerOp float64 `json:"allocsPerOp"` // heap allocations per operation
}

// Report is the whole emitted document.
type Report struct {
	Shards  int           `json:"shards"`
	Results []Measurement `json:"results"`
}

func main() {
	keys := flag.Int("keys", 1000, "small keyspace size for the digest diff")
	largeKeys := flag.Int("large-keys", 100000, "large keyspace size for the digest diff (0 = skip)")
	out := flag.String("out", "BENCH_stamp.json", `output path ("-" = stdout)`)
	flag.Parse()
	if err := run(*keys, *largeKeys, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchstamp:", err)
		os.Exit(1)
	}
}

// measure times fn and counts its allocations.
func measure(op, scenario string, keys int, fn func()) Measurement {
	fn() // warm caches, intern tables and scratch pools
	allocs := testing.AllocsPerRun(10, fn)
	// Calibrate iterations to ~50ms of wall time.
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed >= 50*time.Millisecond || iters >= 1<<22 {
			return Measurement{
				Op: op, Scenario: scenario, Keys: keys,
				NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
				AllocsPerOp: allocs,
			}
		}
		iters *= 4
	}
}

// kernelStamps builds the stamp shapes the kernel benchmarks compare: an
// equal-handle pair, a concurrent pair, and a dominated pair.
func kernelStamps() (conv core.Stamp, ca, cb core.Stamp, lo, hi core.Stamp) {
	s := core.Seed().Update()
	a, b := s.Fork()
	a = a.Update()
	ca, cb = a.Fork()
	ca, cb = ca.Update(), cb.Update() // concurrent: each saw its own update
	lo, hi = b, a                     // a dominates b
	return b, ca, cb, lo, hi
}

// diffPair builds a server replica of n keys plus the digest of a clone,
// optionally diverging divergedEvery-th key on the server afterwards.
func diffPair(n, divergedEvery int) (*kvstore.Replica, []encoding.Digest) {
	server := kvstore.NewReplica("server")
	for i := 0; i < n; i++ {
		server.Put(fmt.Sprintf("key-%07d", i), []byte("value-with-some-padding"))
	}
	client := server.Clone("client")
	digest := client.Digest()
	if divergedEvery > 0 {
		for i := 0; i < n; i += divergedEvery {
			server.Put(fmt.Sprintf("key-%07d", i), []byte("edited"))
		}
	}
	return server, digest
}

func run(keys, largeKeys int, out string, progress io.Writer) error {
	if keys < 100 {
		return fmt.Errorf("need at least 100 keys, got %d", keys)
	}
	report := Report{Shards: kvstore.DefaultShards}
	add := func(m Measurement) { report.Results = append(report.Results, m) }

	conv, ca, cb, lo, hi := kernelStamps()
	add(measure("compare", "converged", 0, func() { _ = core.Compare(conv, conv) }))
	add(measure("compare", "divergent", 0, func() { _ = core.Compare(ca, cb) }))
	add(measure("join", "converged", 0, func() { // one side dominates: handle reuse
		if _, err := core.Join(lo, hi); err != nil {
			panic(err)
		}
	}))
	add(measure("join", "divergent", 0, func() { // genuine merge of concurrent knowledge
		if _, err := core.Join(ca, cb); err != nil {
			panic(err)
		}
	}))
	add(measure("fork", "converged", 0, func() { _, _ = conv.Fork() }))
	add(measure("update", "converged", 0, func() { _ = conv.Update() }))

	sizes := []int{keys}
	if largeKeys > 0 {
		sizes = append(sizes, largeKeys)
	}
	for _, n := range sizes {
		server, digest := diffPair(n, 0)
		add(measure("diffAgainst", "converged", n, func() {
			if _, err := server.DiffRanges(digest, 0, 0, nil); err != nil {
				panic(err)
			}
		}))
		server, digest = diffPair(n, 100) // 1% of keys diverged
		add(measure("diffAgainst", "divergent", n, func() {
			if _, err := server.DiffRanges(digest, 0, 0, nil); err != nil {
				panic(err)
			}
		}))
	}

	for _, m := range report.Results {
		if m.Op == "compare" && m.AllocsPerOp > 0 {
			return fmt.Errorf("compare/%s allocates %.1f/op; the interned kernel contract is 0",
				m.Scenario, m.AllocsPerOp)
		}
	}

	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if out == "-" {
		_, err = progress.Write(doc)
		return err
	}
	if err := os.WriteFile(out, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(progress, "wrote %s (%d measurements)\n", out, len(report.Results))
	return nil
}
