package experiments_test

import (
	"fmt"

	"versionstamp/internal/core"
	"versionstamp/internal/sim"
	"versionstamp/internal/vv"
)

// must panics on err, which fails the Example. Every check the experiments
// rely on (Runner.Run against the causal-history oracle, CheckAgreement)
// reports a disagreement as an error, so a table that prints at all was
// checked.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// E1 reproduces Figure 1: fixed version vectors among three replicas.
func Example_e1() {
	fmt.Println("E1 — Figure 1: fixed version vectors, three replicas")
	fmt.Println("step                          A          B          C")
	a, b, c := vv.NewVector(3), vv.NewVector(3), vv.NewVector(3)
	row := func(label string) {
		fmt.Printf("%-24s %10s %10s %10s\n", label, a, b, c)
	}
	row("initial")
	a = must(a.Update(0))
	row("update at A")
	b = must(vv.Join(b, a))
	row("B syncs from A")
	c = must(c.Update(2))
	row("update at C")
	m := must(vv.Join(b, c))
	b, c = m.Clone(), m.Clone()
	row("B and C sync")
	a = must(a.Update(0))
	row("update at A")
	fmt.Printf("final: A vs B = %v (mutual inconsistency), B vs C = %v\n",
		must(vv.Compare(a, b)), must(vv.Compare(b, c)))
	fmt.Println("paper: A=[2,0,0], B=C=[1,0,1]")
	// Output:
	// E1 — Figure 1: fixed version vectors, three replicas
	// step                          A          B          C
	// initial                     [0,0,0]    [0,0,0]    [0,0,0]
	// update at A                 [1,0,0]    [0,0,0]    [0,0,0]
	// B syncs from A              [1,0,0]    [1,0,0]    [0,0,0]
	// update at C                 [1,0,0]    [1,0,0]    [0,0,1]
	// B and C sync                [1,0,0]    [1,0,1]    [1,0,1]
	// update at A                 [2,0,0]    [1,0,1]    [1,0,1]
	// final: A vs B = concurrent (mutual inconsistency), B vs C = equal
	// paper: A=[2,0,0], B=C=[1,0,1]
}

// E2 reproduces Figures 2 and 4: the fork/join execution annotated with
// version stamps, including the non-reduced join results shown in the
// figure and their reduced forms.
func Example_e2() {
	fmt.Println("E2 — Figures 2+4: version stamps on the fork/join execution")
	fmt.Printf("%-28s %-14s %s\n", "element (derivation)", "stamp", "paper")
	a1 := core.Seed()
	a2 := a1.Update()
	b1, c1 := a2.Fork()
	d1, e1 := b1.Fork()
	c2 := c1.Update()
	c3 := c2.Update()
	f1 := must(core.Join(e1, c3))
	g1 := must(core.JoinNoReduce(d1, f1))
	h1 := must(core.JoinNoReduce(b1, c2))
	for _, r := range []struct {
		label string
		stamp core.Stamp
		paper string
	}{
		{"a1 (seed)", a1, "[ε|ε]"},
		{"a2 = update(a1)", a2, "[ε|ε]"},
		{"b1 (fork a2, left)", b1, "[ε|0]"},
		{"c1 (fork a2, right)", c1, "[ε|1]"},
		{"d1 (fork b1, left)", d1, "[ε|00]"},
		{"e1 (fork b1, right)", e1, "[ε|01]"},
		{"c2 = update(c1)", c2, "[1|1]"},
		{"c3 = update(c2)", c3, "[1|1]"},
		{"f1 = join(e1,c3)", f1, "[1|01+1]"},
		{"g1 = join(d1,f1) no-reduce", g1, "[1|00+01+1]"},
		{"h1 = join(b1,c2) no-reduce", h1, "[1|0+1]"},
		{"g1 reduced", g1.Reduce(), "[ε|ε]"},
	} {
		fmt.Printf("%-28s %-14s %s\n", r.label, r.stamp, r.paper)
	}
	// Output:
	// E2 — Figures 2+4: version stamps on the fork/join execution
	// element (derivation)         stamp          paper
	// a1 (seed)                    [ε|ε]          [ε|ε]
	// a2 = update(a1)              [ε|ε]          [ε|ε]
	// b1 (fork a2, left)           [ε|0]          [ε|0]
	// c1 (fork a2, right)          [ε|1]          [ε|1]
	// d1 (fork b1, left)           [ε|00]         [ε|00]
	// e1 (fork b1, right)          [ε|01]         [ε|01]
	// c2 = update(c1)              [1|1]          [1|1]
	// c3 = update(c2)              [1|1]          [1|1]
	// f1 = join(e1,c3)             [1|01+1]       [1|01+1]
	// g1 = join(d1,f1) no-reduce   [1|00+01+1]    [1|00+01+1]
	// h1 = join(b1,c2) no-reduce   [1|0+1]        [1|0+1]
	// g1 reduced                   [ε|ε]          [ε|ε]
}

// E3 reproduces Figure 3: a fixed replica set encoded under fork-and-join
// dynamics; fixed version vectors and version stamps must order every pair
// identically at every step.
func Example_e3() {
	fmt.Println("E3 — Figure 3: fixed N replicas, vectors vs fork/join stamps")
	fmt.Println("   N  rounds  syncs  checks  vv-bytes  max-stamp-bytes")
	for _, n := range []int{3, 4, 6} {
		sys := must(sim.NewFigure3System(n))
		// Rotating pairwise syncs grow stamp ids multiplicatively (see the
		// growth table in E5), so round counts stay modest; ordering
		// agreement — the figure's claim — is checked after every step.
		rounds := 6 * n
		checks, syncs := 0, 0
		for r := 0; r < rounds; r++ {
			k := r % n
			check(sys.Update(k))
			if r%2 == 0 {
				check(sys.Sync(k, (k+1)%n))
				syncs++
			}
			check(sys.CheckAgreement())
			checks += n * (n - 1) / 2
		}
		fmt.Printf("%4d  %6d  %5d  %6d  %8d  %15d\n",
			n, rounds, syncs, checks, sys.VectorSize(), sys.MaxStampSize())
	}
	fmt.Println("paper claim (Fig. 3): both encodings order every pair identically, checked after every step")
	fmt.Println("max-stamp-bytes is not a function of N: rotating pairwise syncs grow ids (N=3; E5's growth table)")
	// Output:
	// E3 — Figure 3: fixed N replicas, vectors vs fork/join stamps
	//    N  rounds  syncs  checks  vv-bytes  max-stamp-bytes
	//    3      18      9      54        24              435
	//    4      24     12     144        32                7
	//    6      36     18     540        48                7
	// paper claim (Fig. 3): both encodings order every pair identically, checked after every step
	// max-stamp-bytes is not a function of N: rotating pairwise syncs grow ids (N=3; E5's growth table)
}

// E4 verifies Proposition 5.1 / Corollary 5.2 on randomized traces: version
// stamps (both models) and dynamic version vectors induce exactly the
// causal-history ordering.
func Example_e4() {
	const row = "%-13s %5v  %9v  %11v  %13v\n"
	fmt.Println("E4 — Prop 5.1 / Cor 5.2: lockstep equivalence vs causal histories")
	fmt.Printf(row, "workload", "seeds", "ops/trace", "pair-checks", "subset-checks")
	for _, wl := range []struct {
		label string
		w     sim.Weights
		ops   int
		// The non-reducing model's state grows exponentially with trace
		// length (string counts add at joins and duplicate at forks), so it
		// is verified on shorter traces; the reducing model and dynamic
		// version vectors run the full length.
		noReduce bool
	}{
		{"balanced", sim.Balanced, 200, false},
		{"forkheavy", sim.ForkHeavy, 200, false},
		{"syncheavy", sim.SyncHeavy, 200, false},
		{"balanced-nr", sim.Balanced, 80, true},
		{"syncheavy-nr", sim.SyncHeavy, 80, true},
	} {
		pairs, subsets := 0, 0
		const seeds = 5
		for seed := int64(0); seed < seeds; seed++ {
			dvv := must(sim.NewDynamicVVTracker(vv.NewCentralServer(), "dynamic-vv"))
			subjects := []sim.Tracker{sim.NewStampTracker(true), dvv}
			if wl.noReduce {
				subjects = append(subjects, sim.NewStampTracker(false))
			}
			report := must(sim.NewRunner(
				sim.NewCausalTracker(),
				subjects,
				sim.Config{Check: sim.CheckSubsets, Seed: seed},
			).Run(sim.Random(seed*31+7, wl.ops, wl.w, 8)))
			pairs += report.Comparisons
			subsets += report.SubsetChecks
		}
		fmt.Printf(row, wl.label, seeds, wl.ops, pairs, subsets)
	}
	fmt.Println("paper claim: orders coincide (proved); every check above agreed with causal histories")
	// Output:
	// E4 — Prop 5.1 / Cor 5.2: lockstep equivalence vs causal histories
	// workload      seeds  ops/trace  pair-checks  subset-checks
	// balanced          5        200        14674           8000
	// forkheavy         5        200        44528           8000
	// syncheavy         5        200        13632           8000
	// balanced-nr       5         80         5553           6400
	// syncheavy-nr      5         80         7230           6400
	// paper claim: orders coincide (proved); every check above agreed with causal histories
}

// E5 measures the space-adaptivity claim: reducing vs non-reducing stamps
// across workloads (plus the causal-history oracle as the unbounded
// baseline).
func Example_e5() {
	fmt.Println("E5 — space adaptivity: reducing vs non-reducing stamps (bytes/element, end of run)")
	fmt.Println("workload       ops  width  reduce(mean/max)  noreduce(mean/max)  causal(mean)")
	// Traces are short because the non-reducing ablation's state grows
	// exponentially with joins (that growth is the point of the ablation);
	// both models replay the identical trace, so the comparison is fair.
	for _, w := range []struct {
		label string
		trace sim.Trace
	}{
		{"forkheavy", sim.Random(11, 120, sim.ForkHeavy, 10)},
		{"syncheavy", sim.Random(12, 120, sim.SyncHeavy, 10)},
		{"balanced", sim.Random(13, 120, sim.Balanced, 10)},
		{"partitioned", sim.PartitionedEpochs(14, 4, 25, 12)},
		{"fixedN=6", sim.FixedN(15, 6, 15)},
	} {
		report := must(sim.NewRunner(
			sim.NewCausalTracker(),
			[]sim.Tracker{sim.NewStampTracker(true), sim.NewStampTracker(false)},
			sim.Config{Check: sim.CheckNone, CollectSizes: true},
		).Run(w.trace))
		last := len(w.trace) - 1
		red := report.Sizes["stamps"][last]
		nored := report.Sizes["stamps-noreduce"][last]
		causal := report.Sizes["causal-histories"][last]
		fmt.Printf("%-12s %5d  %5d  %8.1f/%-8d %9.1f/%-8d %10.1f\n",
			w.label, len(w.trace), red.Width,
			red.MeanBytes(), red.MaxBytes,
			nored.MeanBytes(), nored.MaxBytes,
			causal.MeanBytes())
	}
	fmt.Println("paper claim: reduction adapts stamp size to the frontier; causal histories only grow")

	// Negative finding: under ROTATING pairwise synchronization (three or
	// more replicas syncing round-robin), id components grow roughly by a
	// factor (1 + 2/N) per sync despite reduction — each sync gives both
	// participants the union of their id fragments with a fresh bit
	// appended, and the sibling halves rarely meet again. This is the known
	// growth weakness of version stamps that Interval Tree Clocks (E7)
	// later fixed; the paper targets frontier-shaped (fork/join-churning)
	// workloads, where reduction does keep stamps compact.
	fmt.Println("\nrotating-sync growth, N=3 round-robin (the mechanism's worst case):")
	fmt.Println("  syncs  max-id-strings  max-stamp-bytes")
	stamps := core.Seed().ForkN(3)
	for s := 0; s <= 12; s++ {
		if s > 0 {
			k := (s - 1) % 3
			stamps[k] = stamps[k].Update()
			stamps[k], stamps[(k+1)%3] = must(core.Join(stamps[k], stamps[(k+1)%3])).Fork()
		}
		if s%3 == 0 {
			maxStrings, maxBytes := 0, 0
			for _, st := range stamps {
				maxStrings = max(maxStrings, st.IDName().Len())
				maxBytes = max(maxBytes, st.EncodedSize())
			}
			fmt.Printf("  %5d  %14d  %15d\n", s, maxStrings, maxBytes)
		}
	}
	fmt.Println("  (growth is multiplicative: the successor ITC design, E7, bounds it)")
	// Output:
	// E5 — space adaptivity: reducing vs non-reducing stamps (bytes/element, end of run)
	// workload       ops  width  reduce(mean/max)  noreduce(mean/max)  causal(mean)
	// forkheavy      120      9     175.4/317          395.4/666           193.8
	// syncheavy      120      8       9.5/15        126885.8/260103        424.0
	// balanced       120      3     916.3/1019        1626.3/1803          442.7
	// partitioned    116     12      33.2/61            54.2/159           164.7
	// fixedN=6        50      6     147.7/205          218.3/297            82.7
	// paper claim: reduction adapts stamp size to the frontier; causal histories only grow
	//
	// rotating-sync growth, N=3 round-robin (the mechanism's worst case):
	//   syncs  max-id-strings  max-stamp-bytes
	//       0               1                6
	//       3               5               19
	//       6              21               71
	//       9              89              338
	//      12             377             1806
	//   (growth is multiplicative: the successor ITC design, E7, bounds it)
}

// E6 compares version stamps against dynamic version vectors on identical
// traces: dynamic vectors grow with replicas-ever-created, stamps with the
// ids their sync pattern leaves behind.
func Example_e6() {
	fmt.Println("E6 — stamps vs dynamic version vectors (bytes/element, end of run)")
	fmt.Println("workload        ops  width  replicas-created  stamps(mean)  dvv(mean)")
	for _, ops := range []int{150, 300, 600} {
		trace := sim.Random(21, ops, sim.SyncHeavy, 10)
		dvv := must(sim.NewDynamicVVTracker(vv.NewCentralServer(), "dynamic-vv"))
		report := must(sim.NewRunner(
			sim.NewCausalTracker(),
			[]sim.Tracker{sim.NewStampTracker(true), dvv},
			sim.Config{Check: sim.CheckNone, CollectSizes: true},
		).Run(trace))
		_, forks, _ := trace.Counts()
		last := len(trace) - 1
		st := report.Sizes["stamps"][last]
		dv := report.Sizes["dynamic-vv"][last]
		fmt.Printf("syncheavy  %7d  %5d  %16d  %12.1f  %9.1f\n",
			ops, st.Width, forks+1, st.MeanBytes(), dv.MeanBytes())
	}
	fmt.Println("dvv grows ~linearly with replicas ever created; stamps need not track the frontier:")
	fmt.Println("rotating pairwise syncs grow ids (the 300-op row at width 4; E5's growth table)")
	// Output:
	// E6 — stamps vs dynamic version vectors (bytes/element, end of run)
	// workload        ops  width  replicas-created  stamps(mean)  dvv(mean)
	// syncheavy      150     10                41          30.8      273.6
	// syncheavy      300      4                75        4691.0      636.0
	// syncheavy      600     10               146          32.1     1352.0
	// dvv grows ~linearly with replicas ever created; stamps need not track the frontier:
	// rotating pairwise syncs grow ids (the 300-op row at width 4; E5's growth table)
}

// E7 runs interval tree clocks (the successor design) through the same
// lockstep checks and compares sizes.
func Example_e7() {
	fmt.Println("E7 — interval tree clocks: agreement and size vs version stamps")
	fmt.Println("workload    seeds  pair-checks  stamps(mean B)  itc(mean B)")
	for _, wl := range []struct {
		label string
		w     sim.Weights
	}{
		{"balanced", sim.Balanced},
		{"syncheavy", sim.SyncHeavy},
	} {
		pairs := 0
		var stampMean, itcMean float64
		const seeds = 4
		for seed := int64(0); seed < seeds; seed++ {
			trace := sim.Random(seed*13+5, 200, wl.w, 10)
			report := must(sim.NewRunner(
				sim.NewCausalTracker(),
				[]sim.Tracker{sim.NewStampTracker(true), sim.NewITCTracker()},
				sim.Config{Check: sim.CheckPairs, Seed: seed, CollectSizes: true},
			).Run(trace))
			pairs += report.Comparisons
			last := len(trace) - 1
			stampMean += report.Sizes["stamps"][last].MeanBytes()
			itcMean += report.Sizes["itc"][last].MeanBytes()
		}
		fmt.Printf("%-11s %5d  %11d  %14.1f  %11.1f\n",
			wl.label, seeds, pairs, stampMean/seeds, itcMean/seeds)
	}
	fmt.Println("paper (§7) anticipates this line of work; ITC induces the identical frontier order")
	// Output:
	// E7 — interval tree clocks: agreement and size vs version stamps
	// workload    seeds  pair-checks  stamps(mean B)  itc(mean B)
	// balanced        4        28342          1601.7         21.2
	// syncheavy       4        12012           103.9          9.6
	// paper (§7) anticipates this line of work; ITC induces the identical frontier order
}

// E8 demonstrates the identification problem: replica creation under
// partition fails for id-server dynamic version vectors and succeeds for
// version stamps; random ids trade the failure for collision probability.
func Example_e8() {
	fmt.Println("E8 — the identification problem under partition")
	server := vv.NewCentralServer()
	dvv := must(sim.NewDynamicVVTracker(server, "dynamic-vv"))
	st := sim.NewStampTracker(true)
	server.SetPartitioned(true)
	attempts, dvvFailures := 10, 0
	for i := 0; i < attempts; i++ {
		if dvv.Fork(0) != nil {
			dvvFailures++
		}
		check(st.Fork(0))
	}
	fmt.Printf("partitioned replica creation: dynamic-vv %d/%d failed\n", dvvFailures, attempts)
	fmt.Printf("stamp frontier width after %d offline forks: %d\n", attempts, st.Width())

	fmt.Println("\nprobabilistic ids (birthday bound, 64-bit): draws -> P(collision)")
	for _, n := range []int{1 << 10, 1 << 16, 1 << 24, 1 << 32} {
		fmt.Printf("  %12d -> %.3g\n", n, vv.CollisionProbability(n, 64))
	}
	fmt.Println("paper (§1): guaranteed-unique ids are required; stamps need none")
	// Output:
	// E8 — the identification problem under partition
	// partitioned replica creation: dynamic-vv 10/10 failed
	// stamp frontier width after 10 offline forks: 11
	//
	// probabilistic ids (birthday bound, 64-bit): draws -> P(collision)
	//           1024 -> 2.84e-14
	//          65536 -> 1.16e-10
	//       16777216 -> 7.63e-06
	//     4294967296 -> 0.393
	// paper (§1): guaranteed-unique ids are required; stamps need none
}
