// Benchmarks backing the experiment tables of EXPERIMENTS.md. One bench
// series per experiment (E3, E5, E6, E7) plus micro-benchmarks for every
// core operation, codec, and the representation ablations (naive vs
// binary-search domination, sorted-slice vs trie).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package versionstamp_test

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"versionstamp"
	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/itc"
	"versionstamp/internal/kvstore"
	"versionstamp/internal/name"
	"versionstamp/internal/sim"
	"versionstamp/internal/trie"
	"versionstamp/internal/vv"
)

// ---------------------------------------------------------------------------
// Micro-benchmarks: the three operations and comparison (E6's latency side).

// benchFrontier replays a deterministic balanced trace and returns its
// frontier, giving realistic stamp shapes for the micro-benchmarks.
func benchFrontier(b *testing.B, ops int) []core.Stamp {
	b.Helper()
	tracker := sim.NewStampTracker(true)
	if _, err := sim.Replay(tracker, sim.Random(42, ops, sim.Balanced, 10)); err != nil {
		b.Fatal(err)
	}
	out := make([]core.Stamp, tracker.Width())
	for i := range out {
		s, err := tracker.Stamp(i)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = s
	}
	return out
}

func BenchmarkUpdate(b *testing.B) {
	frontier := benchFrontier(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := frontier[i%len(frontier)]
		_ = s.Update()
	}
}

func BenchmarkFork(b *testing.B) {
	frontier := benchFrontier(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := frontier[i%len(frontier)]
		_, _ = s.Fork()
	}
}

func BenchmarkJoin(b *testing.B) {
	frontier := benchFrontier(b, 300)
	if len(frontier) < 2 {
		b.Skip("frontier too narrow")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := frontier[i%len(frontier)]
		c := frontier[(i+1)%len(frontier)]
		if _, err := core.Join(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinNoReduce(b *testing.B) {
	frontier := benchFrontier(b, 300)
	if len(frontier) < 2 {
		b.Skip("frontier too narrow")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := frontier[i%len(frontier)]
		c := frontier[(i+1)%len(frontier)]
		if _, err := core.JoinNoReduce(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompare(b *testing.B) {
	frontier := benchFrontier(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := frontier[i%len(frontier)]
		c := frontier[(i+3)%len(frontier)]
		_ = core.Compare(a, c)
	}
}

func BenchmarkReduce(b *testing.B) {
	// A join-product with collapsible structure.
	s := core.MustParse("[ε|000+001+01+10+110+111]")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Reduce()
	}
}

// ---------------------------------------------------------------------------
// Codec benchmarks (E5's format comparison).

func BenchmarkMarshalBinary(b *testing.B) {
	frontier := benchFrontier(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frontier[i%len(frontier)].MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalBinary(b *testing.B) {
	frontier := benchFrontier(b, 300)
	blobs := make([][]byte, len(frontier))
	for i, s := range frontier {
		blobs[i], _ = s.MarshalBinary()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s core.Stamp
		if err := s.UnmarshalBinary(blobs[i%len(blobs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalCompact(b *testing.B) {
	frontier := benchFrontier(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = encoding.MarshalCompact(frontier[i%len(frontier)])
	}
}

func BenchmarkMarshalJSON(b *testing.B) {
	frontier := benchFrontier(b, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encoding.MarshalJSON(frontier[i%len(frontier)]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Representation ablations.

func randomName(rng *rand.Rand, strings, maxLen int) name.Name {
	bits := make([]versionstamp.Bits, 0, strings)
	for i := 0; i < strings; i++ {
		b := versionstamp.Bits("")
		for j := rng.Intn(maxLen + 1); j > 0; j-- {
			if rng.Intn(2) == 0 {
				b = b.Append0()
			} else {
				b = b.Append1()
			}
		}
		bits = append(bits, b)
	}
	return name.MaxOf(bits...)
}

func BenchmarkNameLeqSlice(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	names := make([]name.Name, 64)
	for i := range names {
		names[i] = randomName(rng, 24, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = names[i%64].Leq(names[(i+1)%64])
	}
}

func BenchmarkNameLeqTrie(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tries := make([]*trie.Interned, 64)
	for i := range tries {
		tries[i] = trie.Intern(randomName(rng, 24, 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tries[i%64].Leq(tries[(i+1)%64])
	}
}

func BenchmarkNameJoinSlice(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	names := make([]name.Name, 64)
	for i := range names {
		names[i] = randomName(rng, 24, 16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = name.Join(names[i%64], names[(i+1)%64])
	}
}

func BenchmarkNameJoinTrie(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	tries := make([]*trie.Interned, 64)
	for i := range tries {
		tries[i] = trie.Intern(randomName(rng, 24, 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = trie.JoinInterned(tries[i%64], tries[(i+1)%64])
	}
}

// ---------------------------------------------------------------------------
// E3: Figure 3 round (update + sync) at several system sizes.

func BenchmarkE3Figure3Round(b *testing.B) {
	for _, n := range []int{3, 4, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Rebuild periodically: rotating syncs grow stamps, so a
				// fixed number of rounds per system keeps work bounded.
				sys, err := sim.NewFigure3System(n)
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < 2*n; r++ {
					k := r % n
					if err := sys.Update(k); err != nil {
						b.Fatal(err)
					}
					if r%2 == 0 {
						if err := sys.Sync(k, (k+1)%n); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(sys.MaxStampSize()), "stamp-bytes")
				b.ReportMetric(float64(sys.VectorSize()), "vv-bytes")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E5: end-to-end trace replay, reducing vs non-reducing (space + time).

func BenchmarkE5ReplayReducing(b *testing.B) {
	for _, wl := range []struct {
		label string
		w     sim.Weights
	}{{"forkheavy", sim.ForkHeavy}, {"syncheavy", sim.SyncHeavy}} {
		b.Run(wl.label, func(b *testing.B) {
			trace := sim.Random(11, 200, wl.w, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tracker := sim.NewStampTracker(true)
				if _, err := sim.Replay(tracker, trace); err != nil {
					b.Fatal(err)
				}
				total := 0
				for a := 0; a < tracker.Width(); a++ {
					total += tracker.SizeOf(a)
				}
				b.ReportMetric(float64(total)/float64(tracker.Width()), "bytes/elem")
			}
		})
	}
}

func BenchmarkE5ReplayNoReduce(b *testing.B) {
	for _, wl := range []struct {
		label string
		w     sim.Weights
	}{{"forkheavy", sim.ForkHeavy}, {"syncheavy", sim.SyncHeavy}} {
		b.Run(wl.label, func(b *testing.B) {
			trace := sim.Random(11, 100, wl.w, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tracker := sim.NewStampTracker(false)
				if _, err := sim.Replay(tracker, trace); err != nil {
					b.Fatal(err)
				}
				total := 0
				for a := 0; a < tracker.Width(); a++ {
					total += tracker.SizeOf(a)
				}
				b.ReportMetric(float64(total)/float64(tracker.Width()), "bytes/elem")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E6: stamps vs dynamic version vectors on identical traces.

func BenchmarkE6StampsVsDVV(b *testing.B) {
	trace := sim.Random(21, 300, sim.SyncHeavy, 10)
	b.Run("stamps", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tracker := sim.NewStampTracker(true)
			if _, err := sim.Replay(tracker, trace); err != nil {
				b.Fatal(err)
			}
			total := 0
			for a := 0; a < tracker.Width(); a++ {
				total += tracker.SizeOf(a)
			}
			b.ReportMetric(float64(total)/float64(tracker.Width()), "bytes/elem")
		}
	})
	b.Run("dynamic-vv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dvv, err := sim.NewDynamicVVTracker(vv.NewCentralServer(), "dvv")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Replay(dvv, trace); err != nil {
				b.Fatal(err)
			}
			total := 0
			for a := 0; a < dvv.Width(); a++ {
				total += dvv.SizeOf(a)
			}
			b.ReportMetric(float64(total)/float64(dvv.Width()), "bytes/elem")
		}
	})
}

// ---------------------------------------------------------------------------
// E7: interval tree clocks on the same traces.

func BenchmarkE7ITC(b *testing.B) {
	trace := sim.Random(21, 300, sim.SyncHeavy, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tracker := sim.NewITCTracker()
		if _, err := sim.Replay(tracker, trace); err != nil {
			b.Fatal(err)
		}
		total := 0
		for a := 0; a < tracker.Width(); a++ {
			total += tracker.SizeOf(a)
		}
		b.ReportMetric(float64(total)/float64(tracker.Width()), "bytes/elem")
	}
}

func BenchmarkITCEvent(b *testing.B) {
	s, err := itc.Seed().Event()
	if err != nil {
		b.Fatal(err)
	}
	l, r := s.Fork()
	l2, _ := l.Event()
	_ = r
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l2.Event(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E4: verification throughput (how fast the lockstep checker itself runs).

func BenchmarkE4LockstepVerification(b *testing.B) {
	trace := sim.Random(3, 120, sim.Balanced, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runner := sim.NewRunner(
			sim.NewCausalTracker(),
			[]sim.Tracker{sim.NewStampTracker(true)},
			sim.Config{Check: sim.CheckSubsets, Seed: int64(i)},
		)
		if _, err := runner.Run(trace); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Sharded kvstore: parallel put throughput and pairwise sync versus the
// seed's single-lock design (shards=1 reproduces it exactly).

func benchKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%06d", i)
	}
	return keys
}

// BenchmarkShardedPut measures concurrent put throughput at several stripe
// counts. shards=1 is the single-lock baseline; run with -cpu to see the
// striped layouts pull ahead as cores are added.
func BenchmarkShardedPut(b *testing.B) {
	keys := benchKeys(4096)
	val := []byte("value-payload-0123456789")
	for _, shards := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := kvstore.NewReplicaShards("bench", shards)
			var ctr atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(ctr.Add(1)) * 7919 // offset goroutines across stripes
				for pb.Next() {
					r.Put(keys[i%len(keys)], val)
					i++
				}
			})
		})
	}
}

// BenchmarkShardedGet measures concurrent read throughput under the same
// layouts.
func BenchmarkShardedGet(b *testing.B) {
	keys := benchKeys(4096)
	val := []byte("value-payload-0123456789")
	for _, shards := range []int{1, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := kvstore.NewReplicaShards("bench", shards)
			for _, k := range keys {
				r.Put(k, val)
			}
			var ctr atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(ctr.Add(1)) * 7919
				for pb.Next() {
					r.Get(keys[i%len(keys)])
					i++
				}
			})
		})
	}
}

// BenchmarkParallelSync measures one pairwise anti-entropy pass over a
// populated keyspace with one fresh divergent write per iteration. With
// equal stripe counts the pass reconciles shard pairs concurrently;
// shards=1 serializes the keyspace under a single lock pair, which is the
// seed's behavior.
func BenchmarkParallelSync(b *testing.B) {
	keys := benchKeys(2048)
	val := []byte("value-payload-0123456789")
	for _, shards := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			a := kvstore.NewReplicaShards("a", shards)
			entries := make(map[string][]byte, len(keys))
			for _, k := range keys {
				entries[k] = val
			}
			a.PutBatch(entries)
			c := kvstore.NewReplicaShards("c", shards)
			if _, err := kvstore.Sync(a, c, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Put(keys[i%len(keys)], val)
				if _, err := kvstore.Sync(a, c, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchPut compares n point puts against one PutBatch of the same
// keys (one lock acquisition per involved stripe).
func BenchmarkBatchPut(b *testing.B) {
	keys := benchKeys(256)
	val := []byte("value-payload-0123456789")
	entries := make(map[string][]byte, len(keys))
	for _, k := range keys {
		entries[k] = val
	}
	b.Run("point", func(b *testing.B) {
		r := kvstore.NewReplica("bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				r.Put(k, val)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		r := kvstore.NewReplica("bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.PutBatch(entries)
		}
	})
}
