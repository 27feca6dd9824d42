package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"versionstamp/internal/kvstore"
)

// valueBytes is the payload size of every write in every workload.
const valueBytes = 128

// report is what one child process (one repetition) hands to the parent.
// Wall-clock numbers are per fixed segment so the parent can build the
// composite; counted numbers are split by how exactly they must repeat.
type report struct {
	SetupSegs  []float64 `json:"setup_segs_s"`
	SetupCPU   []float64 `json:"setup_cpu_segs_s"` // process CPU time, same segments
	MeasSegs   []float64 `json:"meas_segs_s"`
	Ops        int       `json:"ops"`
	Attempted  int       `json:"attempted"` // ops plus verification checks
	Failed     int       `json:"failed"`
	FirstFail  string    `json:"first_fail,omitempty"`
	P50us      float64   `json:"p50_us"`
	P99us      float64   `json:"p99_us"`
	LatSamples int       `json:"lat_samples"`
	// Exact must be bit-identical in every repetition of a run.
	Exact map[string]float64 `json:"exact"`
	// Approx must agree within approxTolerance (malloc counts include
	// runtime goroutine noise).
	Approx map[string]float64 `json:"approx"`
	// Layer holds the per-layer metrics of a traced repetition.
	Layer  map[string]float64 `json:"layer,omitempty"`
	Budget []budgetRow        `json:"budget,omitempty"`
}

// env is the state one repetition threads through its workload.
type env struct {
	seed  int64
	scale float64
	dir   string // private data directory, removed by the parent
	tr    *tracer
	rep   report

	probeFloor time.Duration
	segStart   time.Time
	segCPU     float64   // process CPU seconds at the last setup cut
	lat        []float32 // µs per sample, pre-sized before the measured phase
	mem0       runtime.MemStats
}

func newEnv(seed int64, scale float64, dir string, traced bool) *env {
	e := &env{seed: seed, scale: scale, dir: dir}
	// Each of a layer probe's five tries runs at least 20 ms; the unit
	// test's scale shrinks that too.
	e.probeFloor = time.Duration(20 * float64(time.Millisecond) * math.Min(1, scale))
	e.rep.Exact = map[string]float64{}
	e.rep.Approx = map[string]float64{}
	if traced {
		e.tr = newTracer()
		e.rep.Layer = map[string]float64{}
	}
	return e
}

// scaled shrinks a frozen size for the unit test; at scale 1 it is n.
func (e *env) scaled(n, floor int) int {
	v := int(float64(n) * e.scale)
	if v < floor {
		v = floor
	}
	return v
}

// rng derives an independent stream from the run seed, so adding a consumer
// never shifts the numbers another one sees.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

func (e *env) fail(format string, args ...any) {
	e.rep.Failed++
	if e.rep.FirstFail == "" {
		e.rep.FirstFail = fmt.Sprintf(format, args...)
	}
}

// check counts one verification; a false cond is a failed op.
func (e *env) check(cond bool, format string, args ...any) {
	e.rep.Attempted++
	if !cond {
		e.fail(format, args...)
	}
}

// Segment timing. startSeg opens a segment, cutSetup/cutMeas close it into
// the respective list and open the next. Work between a cut and the next
// startSeg (verification, bookkeeping) is not timed.
func (e *env) startSeg() { e.segStart = time.Now() }

func (e *env) cutSetup() {
	now, cpu := time.Now(), cpuSeconds()
	e.rep.SetupSegs = append(e.rep.SetupSegs, now.Sub(e.segStart).Seconds())
	e.rep.SetupCPU = append(e.rep.SetupCPU, cpu-e.segCPU)
	e.segStart, e.segCPU = now, cpu
}

// cpuSeconds is the process's user plus system CPU time so far, all threads
// (the collector's included). The first setup segment therefore carries
// the runtime's start-up.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

func (e *env) cutMeas() {
	now := time.Now()
	e.rep.MeasSegs = append(e.rep.MeasSegs, now.Sub(e.segStart).Seconds())
	e.segStart = now
}

// beginMeasured settles the heap, sizes the latency buffer and takes the
// allocation baseline, then opens the first measured segment.
func (e *env) beginMeasured(ops, latSamples int) {
	e.rep.Ops = ops
	e.rep.Attempted += ops
	e.lat = make([]float32, 0, latSamples)
	e.rep.MeasSegs = make([]float64, 0, 64)
	e.tr.reset()
	runtime.GC()
	runtime.ReadMemStats(&e.mem0)
	e.startSeg()
}

// endMeasured closes the allocation window and summarises latency. The
// caller must still hold references to all workload state so live heap
// counts it.
func (e *env) endMeasured() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ops := float64(e.rep.Ops)
	e.rep.Approx["allocs_per_op"] = float64(m.Mallocs-e.mem0.Mallocs) / ops
	e.rep.Approx["alloc_bytes_per_op"] = float64(m.TotalAlloc-e.mem0.TotalAlloc) / ops
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	e.rep.Approx["live_heap_mb"] = float64(m.HeapAlloc) / (1 << 20)

	e.rep.LatSamples = len(e.lat)
	if len(e.lat) > 0 {
		s := append([]float32(nil), e.lat...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		e.rep.P50us = float64(s[len(s)/2])
		e.rep.P99us = float64(s[len(s)*99/100])
	}
	internLayer(e)
}

func (e *env) sample(d time.Duration) {
	e.lat = append(e.lat, float32(float64(d.Nanoseconds())/1e3))
}

// stampStats folds replicas into the running stamp-size totals: every
// stored copy, and separately the copies of the hotKeys most popular keys.
type stampStats struct {
	n, sum, max  int
	hotN, hotSum int
}

func (s *stampStats) add(r *kvstore.Replica, ks *keyspace) {
	for _, d := range r.Digest() {
		sz := d.Stamp.EncodedSize()
		s.n++
		s.sum += sz
		if sz > s.max {
			s.max = sz
		}
	}
	for rank := 0; rank < hotKeys && rank < len(ks.perm); rank++ {
		if v, ok := r.Version(ks.names[ks.perm[rank]]); ok {
			s.hotN++
			s.hotSum += v.Stamp.EncodedSize()
		}
	}
}

func (s *stampStats) record(e *env) {
	e.rep.Exact["stamp_bytes_mean"] = float64(s.sum) / float64(s.n)
	e.rep.Exact["stamp_bytes_hot"] = float64(s.hotSum) / float64(s.hotN)
	e.rep.Exact["stamp_bytes_max"] = float64(s.max)
}

// keyspace names keys and builds verifiable values. Zipf ranks map to key
// indices through a seeded permutation, so which stripes are hot depends
// on the seed.
type keyspace struct {
	names []string
	perm  []int32
	v     float64 // popularity offset: P(rank k) ∝ (v+k)^-zipfS
	buf   []byte
}

// fillTable lets a value's filler be checked with one memcmp: the filler of
// a value whose header hashes to h is fillTable[h : h+valueBytes-16].
var fillTable = func() []byte {
	t := make([]byte, 256+valueBytes)
	for i := range t {
		t[i] = byte('a' + i%26)
	}
	return t
}()

func newKeyspace(n int, v float64, rng *rand.Rand) *keyspace {
	ks := &keyspace{names: make([]string, n), perm: make([]int32, n), v: v, buf: make([]byte, valueBytes)}
	for i := range ks.names {
		ks.names[i] = fmt.Sprintf("key-%07d", i)
		ks.perm[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { ks.perm[i], ks.perm[j] = ks.perm[j], ks.perm[i] })
	return ks
}

func fillOf(key int, ver uint64) int {
	return int((uint64(key)*0x9E3779B97F4A7C15 + ver*0xBF58476D1CE4E5B9) >> 56)
}

// value returns the payload for version ver of key, valid until the next
// call (the stores copy what they are handed).
func (ks *keyspace) value(key int, ver uint64) []byte {
	binary.LittleEndian.PutUint64(ks.buf[0:], uint64(key))
	binary.LittleEndian.PutUint64(ks.buf[8:], ver)
	copy(ks.buf[16:], fillTable[fillOf(key, ver):])
	return ks.buf
}

// valueCopy is value with its own backing array, for batch writes.
func (ks *keyspace) valueCopy(key int, ver uint64) []byte {
	return append([]byte(nil), ks.value(key, ver)...)
}

// validValue reports whether got is exactly value(key, ver).
func validValue(got []byte, key int, ver uint64) bool {
	if len(got) != valueBytes ||
		binary.LittleEndian.Uint64(got[0:]) != uint64(key) ||
		binary.LittleEndian.Uint64(got[8:]) != ver {
		return false
	}
	h := fillOf(key, ver)
	return string(got[16:]) == string(fillTable[h:h+valueBytes-16])
}

// zipf draws key indices by the keyspace's popularity law, through its
// permutation.
type zipf struct {
	z  *rand.Zipf
	ks *keyspace
}

func newZipf(rng *rand.Rand, ks *keyspace) zipf {
	return zipf{z: rand.NewZipf(rng, zipfS, ks.v, uint64(len(ks.names)-1)), ks: ks}
}

func (z zipf) next() int { return int(z.ks.perm[z.z.Uint64()]) }

// bestOf runs fn (which performs n operations) five times, each for at
// least e.probeFloor of repeated calls, and returns the best mean time per
// operation in nanoseconds.
func (e *env) bestOf(n int, fn func()) float64 {
	best := math.Inf(1)
	for try := 0; try < 5; try++ {
		calls := 0
		start := time.Now()
		var el time.Duration
		for el < e.probeFloor {
			fn()
			calls++
			el = time.Since(start)
		}
		best = math.Min(best, float64(el.Nanoseconds())/float64(calls*n))
	}
	return best
}

// mallocsOf returns the mean heap allocations of one of fn's n operations.
func mallocsOf(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
