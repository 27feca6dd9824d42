// Command benchring measures the partitioned cluster's scaling claim: once
// a ring cluster has converged, a gossip round costs each node wire bytes
// proportional to the stripes it owns — not to the total keyspace, and not
// to the cluster size. It runs ring clusters at several node counts over a
// fixed keyspace, measures the converged ("idle") round, compares against a
// whole-keyspace exchange (two binary snapshots of it: what shipping state
// instead of digests costs a node regardless of convergence), and emits the
// comparison as machine-readable JSON — the artifact CI tracks across PRs.
//
// The command exits non-zero when a gate fails:
//
//   - the whole-keyspace baseline must be at least -gate times the worst
//     idle per-node cost at every cluster size (converged rounds scale with
//     owned stripes, not keyspace);
//   - the worst idle per-node cost must shrink as nodes are added (each
//     node owns fewer stripes in a bigger cluster);
//   - the idle cost must stay flat when the keyspace grows (tree roots, not
//     contents, travel in a converged round).
//
// Usage:
//
//	benchring -keys 1000 -out BENCH_ring.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/kvstore"
)

// Measurement is one cluster-size data point.
type Measurement struct {
	Nodes          int   `json:"nodes"`
	Replication    int   `json:"replication"`
	Stripes        int   `json:"stripes"`
	Keys           int   `json:"keys"`
	RoundsToSettle int   `json:"roundsToSettle"` // gossip rounds until converged
	IdleMaxBytes   int64 `json:"idleMaxBytes"`   // worst per-node bytes, converged round
	IdleMeanBytes  int64 `json:"idleMeanBytes"`  // mean per-node bytes, converged round
	NsPerIdleRound int64 `json:"nsPerIdleRound"` // wall time of the idle round
}

// Report is the whole emitted document.
type Report struct {
	Keys          int           `json:"keys"`
	Stripes       int           `json:"stripes"`
	Replication   int           `json:"replication"`
	BaselineBytes int64         `json:"baselineBytes"` // one whole-keyspace exchange
	GateRatio     float64       `json:"gateRatio"`     // required baseline/idle margin
	Results       []Measurement `json:"results"`
	BigKeyspace   *Measurement  `json:"bigKeyspace,omitempty"` // keyspace-independence probe
}

func main() {
	keys := flag.Int("keys", 1000, "keyspace size")
	stripes := flag.Int("stripes", 64, "virtual stripes")
	gate := flag.Float64("gate", 3, "required baseline/idle wire ratio")
	out := flag.String("out", "BENCH_ring.json", `output path ("-" = stdout)`)
	flag.Parse()
	if err := run(*keys, *stripes, *gate, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchring:", err)
		os.Exit(1)
	}
}

func value(i int) []byte {
	return []byte(fmt.Sprintf("value-%d-with-some-padding", i))
}

// measure converges a ring cluster of n nodes over the keyspace and returns
// the idle-round cost.
func measure(n, replication, stripes, keys int) (Measurement, error) {
	c, err := antientropy.NewRingCluster(antientropy.RingConfig{
		Nodes: n, Replication: replication, Stripes: stripes, Seed: 1,
	})
	if err != nil {
		return Measurement{}, err
	}
	defer c.Close()
	for i := 0; i < keys; i++ {
		if _, err := c.Write(fmt.Sprintf("key-%05d", i), value(i)); err != nil {
			return Measurement{}, fmt.Errorf("write: %w", err)
		}
	}
	rounds, err := c.GossipUntilConverged(40 + 4*n)
	if err != nil {
		return Measurement{}, fmt.Errorf("convergence at n=%d: %w", n, err)
	}
	start := time.Now()
	idle, err := c.GossipRoundStats(2)
	if err != nil {
		return Measurement{}, fmt.Errorf("idle round: %w", err)
	}
	elapsed := time.Since(start)
	var max, sum int64
	for _, b := range idle.BytesPerNode {
		if b > max {
			max = b
		}
		sum += b
	}
	return Measurement{
		Nodes:          n,
		Replication:    replication,
		Stripes:        stripes,
		Keys:           keys,
		RoundsToSettle: rounds,
		IdleMaxBytes:   max,
		IdleMeanBytes:  sum / int64(len(idle.BytesPerNode)),
		NsPerIdleRound: elapsed.Nanoseconds(),
	}, nil
}

// baseline is the cost of one whole-keyspace exchange — a binary snapshot
// out and the merged one back: the O(keyspace) per-round cost of shipping
// state instead of digests, paid whether or not anything diverged.
func baseline(stripes, keys int) (int64, error) {
	r := kvstore.NewReplicaShards("full", stripes)
	for i := 0; i < keys; i++ {
		r.Put(fmt.Sprintf("key-%05d", i), value(i))
	}
	snap, err := r.SnapshotBinary()
	if err != nil {
		return 0, err
	}
	return 2 * int64(len(snap)), nil
}

func run(keys, stripes int, gate float64, out string, log io.Writer) error {
	const replication = 3
	base, err := baseline(stripes, keys)
	if err != nil {
		return err
	}
	report := Report{
		Keys: keys, Stripes: stripes, Replication: replication,
		BaselineBytes: base, GateRatio: gate,
	}
	for _, n := range []int{16, 64} {
		m, err := measure(n, replication, stripes, keys)
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "benchring: n=%-3d settle=%d rounds  idle max=%d B  mean=%d B  baseline=%d B (%.1fx)\n",
			n, m.RoundsToSettle, m.IdleMaxBytes, m.IdleMeanBytes, base,
			float64(base)/float64(m.IdleMaxBytes))
		report.Results = append(report.Results, m)
	}
	// Keyspace-independence probe: same cluster size, 4x the keys — the
	// idle round must not grow with it.
	big, err := measure(16, replication, stripes, 4*keys)
	if err != nil {
		return err
	}
	report.BigKeyspace = &big
	fmt.Fprintf(log, "benchring: n=16 keys=%d idle max=%d B (keyspace-independence probe)\n",
		big.Keys, big.IdleMaxBytes)

	// Gates.
	for _, m := range report.Results {
		if float64(m.IdleMaxBytes)*gate > float64(base) {
			return fmt.Errorf("gate: n=%d idle %d B not %.1fx below whole-keyspace baseline %d B",
				m.Nodes, m.IdleMaxBytes, gate, base)
		}
	}
	small, large := report.Results[0], report.Results[len(report.Results)-1]
	if large.IdleMaxBytes >= small.IdleMaxBytes {
		return fmt.Errorf("gate: idle cost did not shrink with cluster growth (n=%d: %d B, n=%d: %d B)",
			small.Nodes, small.IdleMaxBytes, large.Nodes, large.IdleMaxBytes)
	}
	// Allow slack for stamp-size jitter; the whole-keyspace baseline grows
	// ~4x here, the idle round must not grow materially at all.
	if float64(big.IdleMaxBytes) > 1.5*float64(report.Results[0].IdleMaxBytes) {
		return fmt.Errorf("gate: idle cost grew with keyspace (%d B at %d keys vs %d B at %d keys)",
			big.IdleMaxBytes, big.Keys, report.Results[0].IdleMaxBytes, keys)
	}

	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(doc)
		return err
	}
	return os.WriteFile(out, doc, 0o644)
}
