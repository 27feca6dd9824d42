package sim

import (
	"errors"
	"strings"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/vv"
)

func TestTraceValidate(t *testing.T) {
	good := Trace{
		{Kind: OpUpdate, A: 0},
		{Kind: OpFork, A: 0},
		{Kind: OpJoin, A: 0, B: 1},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := []Trace{
		{{Kind: OpUpdate, A: 1}},                           // slot out of range at width 1
		{{Kind: OpJoin, A: 0, B: 0}},                       // self join
		{{Kind: OpJoin, A: 0, B: 1}},                       // join at width 1
		{{Kind: OpFork, A: -1}},                            // negative slot
		{{Kind: OpKind(9), A: 0}},                          // invalid kind
		{{Kind: OpFork, A: 0}, {Kind: OpJoin, A: 0, B: 2}}, // B out of range
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

func TestTraceCountsAndWidth(t *testing.T) {
	tr := Figure2Trace()
	u, f, j := tr.Counts()
	if u != 3 || f != 2 || j != 2 {
		t.Errorf("Counts = %d,%d,%d want 3,2,2", u, f, j)
	}
	if tr.FinalWidth() != 1 {
		t.Errorf("FinalWidth = %d, want 1", tr.FinalWidth())
	}
}

func TestGeneratorsProduceValidTraces(t *testing.T) {
	gens := map[string]func(seed int64) Trace{
		"random-balanced":    func(s int64) Trace { return Random(s, 300, Balanced, 12) },
		"random-forkheavy":   func(s int64) Trace { return Random(s, 300, ForkHeavy, 12) },
		"random-syncheavy":   func(s int64) Trace { return Random(s, 300, SyncHeavy, 12) },
		"random-updateheavy": func(s int64) Trace { return Random(s, 300, UpdateHeavy, 12) },
		"fixedN":             func(s int64) Trace { return FixedN(s, 5, 40) },
		"star":               func(s int64) Trace { return StarSync(s, 4, 40) },
		"partitioned":        func(s int64) Trace { return PartitionedEpochs(s, 6, 30, 16) },
		"ring-gossip":        func(s int64) Trace { return RingGossip(s, 9, 3, 40) },
	}
	for label, gen := range gens {
		for seed := int64(0); seed < 10; seed++ {
			tr := gen(seed)
			if err := tr.Validate(); err != nil {
				t.Errorf("%s seed %d: invalid trace: %v", label, seed, err)
			}
			if len(tr) == 0 {
				t.Errorf("%s seed %d: empty trace", label, seed)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Random(42, 200, Balanced, 10)
	b := Random(42, 200, Balanced, 10)
	if len(a) != len(b) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRandomRespectsMaxWidth(t *testing.T) {
	tr := Random(7, 500, ForkHeavy, 5)
	width := 1
	for _, op := range tr {
		switch op.Kind {
		case OpFork:
			width++
		case OpJoin:
			width--
		}
		if width > 5 {
			t.Fatalf("width %d exceeded maxWidth 5", width)
		}
		if width < 1 {
			t.Fatalf("width dropped below 1")
		}
	}
}

// TestEquivalenceAllMechanisms is experiment E4: on random traces of every
// workload, version stamps (reducing and non-reducing) and dynamic version
// vectors all induce exactly the causal-history ordering, pairwise
// (Corollary 5.2) and for random subset queries (Proposition 5.1), with
// stamp invariants I1–I3 checked at every step.
func TestEquivalenceAllMechanisms(t *testing.T) {
	workloads := map[string]Weights{
		"balanced":  Balanced,
		"forkheavy": ForkHeavy,
		"syncheavy": SyncHeavy,
	}
	seeds, traceOps := int64(4), 180
	if testing.Short() {
		// Stamp growth is superlinear in ops; shrunk traces keep every
		// mechanism pair covered at a fraction of the runtime.
		seeds, traceOps = 2, 120
	}
	for label, w := range workloads {
		for seed := int64(0); seed < seeds; seed++ {
			trace := Random(seed*17+3, traceOps, w, 8)
			dvv, err := NewDynamicVVTracker(vv.NewCentralServer(), "dynamic-vv")
			if err != nil {
				t.Fatalf("dvv: %v", err)
			}
			runner := NewRunner(
				NewCausalTracker(),
				[]Tracker{NewStampTracker(true), dvv, NewITCTracker()},
				Config{Check: CheckSubsets, Seed: seed},
			)
			report, err := runner.Run(trace)
			if err != nil {
				t.Fatalf("%s seed %d: %v", label, seed, err)
			}
			if report.Ops != len(trace) {
				t.Errorf("%s seed %d: replayed %d of %d ops", label, seed, report.Ops, len(trace))
			}
			if report.Comparisons == 0 || report.SubsetChecks == 0 {
				t.Errorf("%s seed %d: no checks performed (%d pair, %d subset)",
					label, seed, report.Comparisons, report.SubsetChecks)
			}
		}
	}
}

// TestEquivalenceNonReducing verifies the Definition 4.3 model separately on
// shorter traces: the non-reducing model's state grows exponentially with
// joins (string counts add at joins and duplicate at forks), so long random
// traces are reserved for the reducing model above.
func TestEquivalenceNonReducing(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		trace := Random(seed*17+3, 80, Balanced, 8)
		runner := NewRunner(
			NewCausalTracker(),
			[]Tracker{NewStampTracker(false)},
			Config{Check: CheckSubsets, Seed: seed},
		)
		if _, err := runner.Run(trace); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestEquivalenceScriptedFigure2(t *testing.T) {
	runner := NewRunner(
		NewCausalTracker(),
		[]Tracker{NewStampTracker(true), NewStampTracker(false)},
		Config{Check: CheckSubsets},
	)
	if _, err := runner.Run(Figure2Trace()); err != nil {
		t.Fatalf("figure-2 trace: %v", err)
	}
}

// TestFigure2TraceStamps replays Figure 2 on the non-reducing stamp tracker
// and checks the exact stamps of Figure 4 at the relevant intermediate
// frontiers.
func TestFigure2TraceStamps(t *testing.T) {
	tr := Figure2Trace()
	st := NewStampTracker(false)
	wantAfter := map[int][]string{
		0: {"[ε|ε]"},                     // a2
		1: {"[ε|0]", "[ε|1]"},            // b1, c1
		2: {"[ε|00]", "[ε|1]", "[ε|01]"}, // d1, c1, e1
		4: {"[ε|00]", "[1|1]", "[ε|01]"}, // d1, c3, e1
		5: {"[ε|00]", "[1|01+1]"},        // d1, f1
		6: {"[1|00+01+1]"},               // g1 (unreduced, as in the figure)
	}
	for step, op := range tr {
		if err := applyOp(st, op); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		want, ok := wantAfter[step]
		if !ok {
			continue
		}
		if st.Width() != len(want) {
			t.Fatalf("step %d: width %d, want %d", step, st.Width(), len(want))
		}
		for i, w := range want {
			s, err := st.Stamp(i)
			if err != nil {
				t.Fatalf("step %d slot %d: %v", step, i, err)
			}
			if s.String() != w {
				t.Errorf("step %d slot %d = %v, want %v", step, i, s, w)
			}
		}
	}
}

// TestFigure3 runs the fixed-replica encoding of Figure 3: the orderings
// induced by fixed version vectors and by version stamps agree at every
// step, for systems of 3 (the figure's size) and larger.
func TestFigure3(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		sys, err := NewFigure3System(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := sys.CheckAgreement(); err != nil {
			t.Fatalf("n=%d initial: %v", n, err)
		}
		// Deterministic schedule: replica k updates, then syncs with
		// (k+1) mod n, sweeping k. Round counts stay modest because
		// rotating pairwise syncs grow stamp ids multiplicatively (the
		// known limitation measured in experiment E5).
		for round := 0; round < 6*n; round++ {
			k := round % n
			if err := sys.Update(k); err != nil {
				t.Fatalf("n=%d update: %v", n, err)
			}
			if err := sys.CheckAgreement(); err != nil {
				t.Fatalf("n=%d round %d after update: %v", n, round, err)
			}
			if round%2 == 0 {
				if err := sys.Sync(k, (k+1)%n); err != nil {
					t.Fatalf("n=%d sync: %v", n, err)
				}
				if err := sys.CheckAgreement(); err != nil {
					t.Fatalf("n=%d round %d after sync: %v", n, round, err)
				}
			}
		}
	}
}

func TestFigure3Errors(t *testing.T) {
	if _, err := NewFigure3System(1); err == nil {
		t.Error("n=1 must be rejected")
	}
	sys, _ := NewFigure3System(3)
	if err := sys.Update(3); err == nil {
		t.Error("out-of-range update must fail")
	}
	if err := sys.Sync(0, 0); err == nil {
		t.Error("self-sync must fail")
	}
	if _, err := sys.Vector(9); err == nil {
		t.Error("out-of-range Vector must fail")
	}
	if _, err := sys.Stamp(-1); err == nil {
		t.Error("out-of-range Stamp must fail")
	}
	if sys.Size() != 3 {
		t.Errorf("Size = %d", sys.Size())
	}
	if sys.VectorSize() != 24 {
		t.Errorf("VectorSize = %d, want 24", sys.VectorSize())
	}
	if sys.MaxStampSize() <= 0 {
		t.Error("MaxStampSize must be positive")
	}
}

// lyingTracker wraps a correct tracker but reports Equal for every
// comparison — failure injection proving the checker actually detects
// disagreement.
type lyingTracker struct {
	*StampTracker
}

func (l *lyingTracker) Name() string { return "liar" }

func (l *lyingTracker) Compare(a, b int) (Relation, error) {
	return Equal, nil
}

func TestCheckerDetectsDisagreement(t *testing.T) {
	trace := Random(3, 100, Balanced, 8)
	runner := NewRunner(
		NewCausalTracker(),
		[]Tracker{&lyingTracker{NewStampTracker(true)}},
		Config{Check: CheckPairs},
	)
	_, err := runner.Run(trace)
	if err == nil {
		t.Fatal("lying tracker passed verification")
	}
	var d *DisagreementError
	if !errors.As(err, &d) {
		t.Fatalf("want DisagreementError, got %T: %v", err, err)
	}
	if d.Subject != "liar" {
		t.Errorf("Subject = %q", d.Subject)
	}
	if !strings.Contains(d.Error(), "disagrees with oracle") {
		t.Errorf("Error() = %q", d.Error())
	}
}

func TestSizeCollection(t *testing.T) {
	trace := Random(5, 150, SyncHeavy, 8)
	dvv, err := NewDynamicVVTracker(vv.NewCentralServer(), "dynamic-vv")
	if err != nil {
		t.Fatalf("dvv: %v", err)
	}
	runner := NewRunner(
		NewCausalTracker(),
		[]Tracker{NewStampTracker(true), NewStampTracker(false), dvv},
		Config{Check: CheckNone, CollectSizes: true},
	)
	report, err := runner.Run(trace)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, nameKey := range []string{"stamps", "stamps-noreduce", "dynamic-vv", "causal-histories"} {
		series := report.Sizes[nameKey]
		if len(series) != len(trace) {
			t.Fatalf("%s: %d samples, want %d", nameKey, len(series), len(trace))
		}
		for _, s := range series {
			if s.TotalBytes < 0 || s.MaxBytes > s.TotalBytes || s.Width <= 0 {
				t.Fatalf("%s: implausible sample %+v", nameKey, s)
			}
			if s.MeanBytes() < 0 {
				t.Fatalf("%s: negative mean", nameKey)
			}
		}
	}
	// The headline E5/E6 shape: after a long sync-heavy run, reducing
	// stamps stay no larger than non-reducing stamps.
	last := len(trace) - 1
	red := report.Sizes["stamps"][last]
	nored := report.Sizes["stamps-noreduce"][last]
	if red.TotalBytes > nored.TotalBytes {
		t.Errorf("reducing stamps (%d B) larger than non-reducing (%d B)",
			red.TotalBytes, nored.TotalBytes)
	}
}

func TestPartitionedForkFailsForDynamicVV(t *testing.T) {
	// Experiment E8's core assertion: with a partitioned central id server,
	// dynamic version vectors cannot create replicas, while version stamps
	// fork locally without any allocator.
	server := vv.NewCentralServer()
	dvv, err := NewDynamicVVTracker(server, "dynamic-vv")
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	st := NewStampTracker(true)
	server.SetPartitioned(true)

	if err := dvv.Fork(0); err == nil {
		t.Fatal("dynamic VV fork must fail while partitioned")
	} else if !errors.Is(err, vv.ErrPartitioned) {
		t.Fatalf("want ErrPartitioned, got %v", err)
	}
	if err := st.Fork(0); err != nil {
		t.Fatalf("stamp fork must succeed under partition: %v", err)
	}
	// Healing the partition unblocks the allocator.
	server.SetPartitioned(false)
	if err := dvv.Fork(0); err != nil {
		t.Fatalf("fork after heal: %v", err)
	}
}

func TestReplay(t *testing.T) {
	ops := 200
	if testing.Short() {
		ops = 120 // growth is superlinear; 120 ops replay in well under 1s
	}
	tr := Random(11, ops, Balanced, 8)
	st := NewStampTracker(true)
	width, err := Replay(st, tr)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if width != tr.FinalWidth() {
		t.Errorf("width %d, want %d", width, tr.FinalWidth())
	}
	if err := st.CheckInvariants(); err != nil {
		t.Errorf("invariants after replay: %v", err)
	}
}

func TestReplayInvalidTrace(t *testing.T) {
	if _, err := Replay(NewStampTracker(true), Trace{{Kind: OpJoin, A: 0, B: 1}}); err == nil {
		t.Error("invalid trace must be rejected")
	}
}

func TestTrackerSlotErrors(t *testing.T) {
	trackers := []Tracker{NewStampTracker(true), NewCausalTracker()}
	dvv, err := NewDynamicVVTracker(vv.NewCentralServer(), "dvv")
	if err != nil {
		t.Fatal(err)
	}
	trackers = append(trackers, dvv)
	for _, tk := range trackers {
		if err := tk.Update(5); err == nil {
			t.Errorf("%s: out-of-range update accepted", tk.Name())
		}
		if err := tk.Fork(-1); err == nil {
			t.Errorf("%s: out-of-range fork accepted", tk.Name())
		}
		if err := tk.Join(0, 0); err == nil {
			t.Errorf("%s: self-join accepted", tk.Name())
		}
		if _, err := tk.Compare(0, 3); err == nil {
			t.Errorf("%s: out-of-range compare accepted", tk.Name())
		}
	}
}

func TestOpAndRelationStrings(t *testing.T) {
	if OpUpdate.String() != "update" || OpFork.String() != "fork" ||
		OpJoin.String() != "join" || OpKind(0).String() != "invalid" {
		t.Error("OpKind.String incorrect")
	}
	op := Op{Kind: OpJoin, A: 1, B: 4}
	if op.String() != "join(1,4)" {
		t.Errorf("Op.String = %q", op.String())
	}
	up := Op{Kind: OpUpdate, A: 3}
	if up.String() != "update(3)" {
		t.Errorf("Op.String = %q", up.String())
	}
	if Equal.String() != "equal" || Concurrent.String() != "concurrent" ||
		Relation(0).String() != "invalid" {
		t.Error("Relation.String incorrect")
	}
}

// TestLeakedZeroAlongTraces: the kernel conserves the id space, so along
// random fork/join/update traces no stamp frontier, reducing or not, ever
// loses any of it.
func TestLeakedZeroAlongTraces(t *testing.T) {
	for _, reduce := range []bool{true, false} {
		for seed := int64(0); seed < 4; seed++ {
			st := NewStampTracker(reduce)
			for step, op := range Random(seed, 150, Balanced, 8) {
				if err := applyOp(st, op); err != nil {
					t.Fatalf("%s seed %d step %d: %v", st.Name(), seed, step, err)
				}
				if leaked := core.Leaked(st.stamps); leaked != 0 {
					t.Fatalf("%s seed %d step %d (%v): leaked %g of the id space",
						st.Name(), seed, step, op, leaked)
				}
				if err := core.CheckCover(st.stamps); err != nil {
					t.Fatalf("%s seed %d step %d: %v", st.Name(), seed, step, err)
				}
			}
		}
	}
}
