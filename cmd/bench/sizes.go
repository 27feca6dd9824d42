package main

// Frozen sizes. Work is fixed by count, never by wall clock, so both sides
// of a comparison execute the identical seeded sequence. One repetition is
// sized to roughly repSeconds of measured phase at the commit that defined
// the benchmark on a 2-core host; --seconds only chooses how many fresh
// process repetitions feed the composite.
const (
	defaultSeed    = 20021001
	defaultSeconds = 12
	repSeconds     = 2.4

	setupSegments = 12 // preload is cut into this many timed segments
	measSegments  = 48 // the measured phase likewise

	// Key popularity is P(rank k) ∝ (v+k)^-s. The store and sync workloads
	// use v=1 (the hottest key draws 14% of ops). quorum-zipf uses v=32 (the
	// hottest key draws 0.6%): at v=1 one key's stamp swings between 200
	// and 800 bytes, and whether a scrub pass meets its stripe's log inside
	// the phase decides a 3x difference in run time from one seed to the
	// next, which no timing rule can filter.
	zipfS       = 1.1
	zipfV       = 1
	quorumZipfV = 32
	hotKeys     = 256 // most popular keys, for stamp_bytes_hot

	quorumNodes       = 5
	quorumKeys        = 60_000
	quorumOps         = 72_000
	quorumGossipEvery = 9_000

	readKeys       = 200_000
	readCacheBytes = 4 << 20 // working set is ~6x the cache
	readOps        = 2_100_000
	readBatch      = 32 // gets per latency sample, so a sample is >= 10 µs

	writeKeys      = 100_000
	writeOps       = 7_200
	writeCkptEvery = 2_400

	syncKeys   = 100_000
	syncCycles = 1
	// Rounds per cycle, chosen so each class holds 20-30% of measured time.
	syncConvPerCycle  = 16_000
	syncHot1PerCycle  = 90
	sync1pctPerCycle  = 3
	sync25pctPerCycle = 1
)

// approxTolerance is how far allocation counts and bytes may differ between
// the repetitions of one run before the run is declared nondeterministic.
// They include runtime goroutines and, where a server goroutine reads from
// TCP, buffer growth that follows read sizes: repetitions of sync-rounds
// differed by up to 0.7%.
const approxTolerance = 0.02
