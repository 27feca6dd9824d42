// Command benchwal measures the durable storage path — WAL append
// throughput, crash-restart replay, checkpointing and checkpoint restart —
// and emits the numbers as machine-readable JSON, the artifact CI tracks
// across PRs (BENCH_wal.json) so storage regressions show up as a diff
// rather than a buried log line.
//
// The run doubles as a correctness gate: after every restart the reopened
// store is compared key by key (stamps included) against the writer's
// state, and any divergence fails the run (exit 1) — replay that loses or
// mangles an acknowledged write must never count as a benchmark result.
//
//	benchwal -ops 10000 -out BENCH_wal.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
	"versionstamp/internal/storage"
	"versionstamp/internal/storage/wal"
)

// Measurement is one phase's data point.
type Measurement struct {
	Op      string  `json:"op"`                // append, replay, checkpoint, restore
	Ops     int     `json:"ops,omitempty"`     // operations covered by the phase
	NsPerOp float64 `json:"nsPerOp,omitempty"` // wall time per operation
	TotalMs float64 `json:"totalMs"`           // wall time of the whole phase
	Bytes   int64   `json:"bytes,omitempty"`   // on-disk footprint after the phase
}

// Report is the whole emitted document.
type Report struct {
	Ops        int           `json:"ops"`
	Keys       int           `json:"keys"`
	ValueBytes int           `json:"valueBytes"`
	Fsync      bool          `json:"fsync"`
	Shards     int           `json:"shards"`
	Results    []Measurement `json:"results"`

	// GroupCommitSpeedup is acked appends/sec under group commit divided by
	// appends/sec with a per-append fsync, both at 32 concurrent writers.
	// Recorded, not gated.
	GroupCommitSpeedup float64 `json:"groupCommitSpeedup"`
}

func main() {
	ops := flag.Int("ops", 10000, "write operations to log and replay")
	keys := flag.Int("keys", 2500, "distinct keys the ops rotate over")
	valueBytes := flag.Int("value-bytes", 64, "payload size per write")
	fsync := flag.Bool("fsync", false, "fsync every append")
	out := flag.String("out", "BENCH_wal.json", `output path ("-" = stdout)`)
	flag.Parse()
	if err := run(*ops, *keys, *valueBytes, *fsync, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchwal:", err)
		os.Exit(1)
	}
}

func run(ops, keys, valueBytes int, fsync bool, out string, progress io.Writer) error {
	if ops < 1 || keys < 1 || keys > ops {
		return fmt.Errorf("need 1 <= keys (%d) <= ops (%d)", keys, ops)
	}
	dir, err := os.MkdirTemp("", "benchwal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	report := Report{Ops: ops, Keys: keys, ValueBytes: valueBytes, Fsync: fsync,
		Shards: kvstore.DefaultShards}
	value := make([]byte, valueBytes)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	// Phase 1: append ops writes to a fresh WAL-backed store.
	w, err := kvstore.Open(dir, kvstore.Options{Label: "bench", Fsync: fsync})
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		w.Put(fmt.Sprintf("key-%07d", i%keys), value)
	}
	elapsed := time.Since(start)
	if err := w.PersistErr(); err != nil {
		return err
	}
	report.Results = append(report.Results, Measurement{
		Op: "append", Ops: ops,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(ops),
		TotalMs: float64(elapsed.Microseconds()) / 1000,
		Bytes:   diskBytes(dir, "*.wal"),
	})

	// Phase 2: crash restart — abandon (no checkpoint) and reopen, replaying
	// the full log.
	if err := w.Abandon(); err != nil {
		return err
	}
	start = time.Now()
	replayed, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		return err
	}
	elapsed = time.Since(start)
	if err := verify(w, replayed); err != nil {
		return fmt.Errorf("replayed store diverges: %w", err)
	}
	report.Results = append(report.Results, Measurement{
		Op: "replay", Ops: ops,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(ops),
		TotalMs: float64(elapsed.Microseconds()) / 1000,
	})

	// Phase 3: checkpoint the replayed store, truncating every log.
	start = time.Now()
	if err := replayed.Checkpoint(); err != nil {
		return err
	}
	elapsed = time.Since(start)
	report.Results = append(report.Results, Measurement{
		Op:      "checkpoint",
		TotalMs: float64(elapsed.Microseconds()) / 1000,
		Bytes:   diskBytes(dir, "*.ckpt"),
	})

	// Phase 4: restart from checkpoints alone.
	if err := replayed.Abandon(); err != nil {
		return err
	}
	start = time.Now()
	restored, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		return err
	}
	elapsed = time.Since(start)
	if err := verify(w, restored); err != nil {
		return fmt.Errorf("restored store diverges: %w", err)
	}
	report.Results = append(report.Results, Measurement{
		Op: "restore", Ops: keys,
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(keys),
		TotalMs: float64(elapsed.Microseconds()) / 1000,
	})

	// Phase 5: group commit vs per-append fsync, 32 concurrent writers each
	// blocking until their append is durable. The gate is counted: every
	// acked append must be recovered on reopen (concurrentAppends). The
	// throughput ratio is reported, never failed on: it is a property of the
	// disk under the run (measured ~10x on one host, 0.5x on another with
	// the same code). The "nothing acked before its window's fsync" half of
	// the contract is enforced by the wal package's group-commit crash tests.
	const writers = 32
	perWriter := ops / writers
	if perWriter < 1 {
		perWriter = 1
	}
	if perWriter > 64 {
		perWriter = 64 // per-append fsync at full -ops would take minutes
	}
	fsyncNs, err := concurrentAppends(wal.Options{Fsync: true}, writers, perWriter)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, Measurement{
		Op: "append-fsync-32w", Ops: writers * perWriter,
		NsPerOp: fsyncNs,
		TotalMs: fsyncNs * float64(writers*perWriter) / 1e6,
	})
	groupNs, err := concurrentAppends(wal.Options{GroupCommit: true}, writers, perWriter)
	if err != nil {
		return err
	}
	report.Results = append(report.Results, Measurement{
		Op: "append-group-32w", Ops: writers * perWriter,
		NsPerOp: groupNs,
		TotalMs: groupNs * float64(writers*perWriter) / 1e6,
	})
	if groupNs > 0 {
		report.GroupCommitSpeedup = fsyncNs / groupNs
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
	fmt.Fprintf(progress, "wrote %s (%d measurements, group-commit speedup %.1fx)\n",
		out, len(report.Results), report.GroupCommitSpeedup)
	return nil
}

// concurrentAppends times `writers` goroutines each making `perWriter`
// durable appends to a fresh WAL under opts, returning wall nanoseconds per
// acked append. The reopened WAL is checked record for record: an append
// that was acked but not recovered fails the measurement.
func concurrentAppends(opts wal.Options, writers, perWriter int) (float64, error) {
	dir, err := os.MkdirTemp("", "benchwal-gc-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir, opts)
	if err != nil {
		return 0, err
	}
	stamp := core.Seed().Update()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	start := time.Now()
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shard := i % kvstore.DefaultShards
			for j := 0; j < perWriter; j++ {
				rec := storage.Record{Entry: encoding.Entry{
					Key: fmt.Sprintf("w%02d-%04d", i, j), Value: []byte("x"), Stamp: stamp,
				}}
				if err := w.Append(shard, rec); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			_ = w.Close()
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	reopened, err := wal.Open(dir, opts)
	if err != nil {
		return 0, err
	}
	defer reopened.Close()
	got := 0
	for shard := 0; shard < kvstore.DefaultShards; shard++ {
		err := reopened.ReplayShard(shard, func([]byte) error { return nil },
			func(storage.Record) error { got++; return nil })
		if err != nil {
			return 0, err
		}
	}
	if want := writers * perWriter; got != want {
		return 0, fmt.Errorf("acked appends lost: recovered %d of %d", got, want)
	}
	return float64(elapsed.Nanoseconds()) / float64(writers*perWriter), nil
}

// verify compares two replicas key by key, stamps included — the gate that
// keeps a lossy replay from ever producing a benchmark number.
func verify(want, got *kvstore.Replica) error {
	wk, gk := want.Keys(), got.Keys()
	if len(wk) != len(gk) {
		return fmt.Errorf("key count %d, want %d", len(gk), len(wk))
	}
	for _, k := range wk {
		wv, _ := want.Version(k)
		gv, ok := got.Version(k)
		if !ok {
			return fmt.Errorf("key %q lost", k)
		}
		if gv.Deleted != wv.Deleted || string(gv.Value) != string(wv.Value) ||
			!gv.Stamp.Equal(wv.Stamp) {
			return fmt.Errorf("key %q diverged", k)
		}
	}
	return nil
}

// diskBytes sums the sizes of dir entries matching pattern.
func diskBytes(dir, pattern string) int64 {
	paths, _ := filepath.Glob(filepath.Join(dir, pattern))
	var total int64
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil {
			total += fi.Size()
		}
	}
	return total
}
