// Package experiments regenerates the paper-reproduction artifacts: one
// function per experiment E1–E8 (each documented at its function — the
// paper's figures 1–4, Proposition 5.1, the space claims, interval tree
// clocks and the identification problem), each returning a human-readable
// report whose numbers are produced live by the library. cmd/experiments is
// a thin CLI over this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"versionstamp/internal/core"
	"versionstamp/internal/sim"
	"versionstamp/internal/vv"
)

// Registry maps experiment ids to their implementations.
func Registry() map[string]func() (string, error) {
	return map[string]func() (string, error){
		"e1": E1,
		"e2": E2,
		"e3": E3,
		"e4": E4,
		"e5": E5,
		"e6": E6,
		"e7": E7,
		"e8": E8,
	}
}

// IDs returns the experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry()))
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// E1 reproduces Figure 1: fixed version vectors among three replicas.
func E1() (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "E1 — Figure 1: fixed version vectors, three replicas")
	fmt.Fprintln(&b, "step                          A          B          C")

	a, bb, c := vv.NewVector(3), vv.NewVector(3), vv.NewVector(3)
	row := func(label string) {
		fmt.Fprintf(&b, "%-24s %10s %10s %10s\n", label, a, bb, c)
	}
	row("initial")
	var err error
	if a, err = a.Update(0); err != nil {
		return "", err
	}
	row("update at A")
	if bb, err = vv.Join(bb, a); err != nil {
		return "", err
	}
	row("B syncs from A")
	if c, err = c.Update(2); err != nil {
		return "", err
	}
	row("update at C")
	m, err := vv.Join(bb, c)
	if err != nil {
		return "", err
	}
	bb, c = m.Clone(), m.Clone()
	row("B and C sync")
	if a, err = a.Update(0); err != nil {
		return "", err
	}
	row("update at A")

	ab, err := vv.Compare(a, bb)
	if err != nil {
		return "", err
	}
	bc, err := vv.Compare(bb, c)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "final: A vs B = %v (mutual inconsistency), B vs C = %v\n", ab, bc)
	fmt.Fprintf(&b, "paper: A=[2,0,0], B=C=[1,0,1]; measured matches: %v\n",
		a.String() == "[2,0,0]" && bb.String() == "[1,0,1]" && c.String() == "[1,0,1]")
	return b.String(), nil
}

// E2 reproduces Figures 2 and 4: the fork/join execution annotated with
// version stamps, including the non-reduced join results shown in the
// figure and their reduced forms.
func E2() (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "E2 — Figures 2+4: version stamps on the fork/join execution")
	fmt.Fprintf(&b, "%-28s %-14s %s\n", "element (derivation)", "stamp", "paper")

	type rowT struct {
		label, paper string
		stamp        core.Stamp
	}
	a1 := core.Seed()
	a2 := a1.Update()
	b1, c1 := a2.Fork()
	d1, e1 := b1.Fork()
	c2 := c1.Update()
	c3 := c2.Update()
	f1, err := core.Join(e1, c3)
	if err != nil {
		return "", err
	}
	g1, err := core.JoinNoReduce(d1, f1)
	if err != nil {
		return "", err
	}
	h1, err := core.JoinNoReduce(b1, c2)
	if err != nil {
		return "", err
	}
	rows := []rowT{
		{"a1 (seed)", "[ε|ε]", a1},
		{"a2 = update(a1)", "[ε|ε]", a2},
		{"b1 (fork a2, left)", "[ε|0]", b1},
		{"c1 (fork a2, right)", "[ε|1]", c1},
		{"d1 (fork b1, left)", "[ε|00]", d1},
		{"e1 (fork b1, right)", "[ε|01]", e1},
		{"c2 = update(c1)", "[1|1]", c2},
		{"c3 = update(c2)", "[1|1]", c3},
		{"f1 = join(e1,c3)", "[1|01+1]", f1},
		{"g1 = join(d1,f1) no-reduce", "[1|00+01+1]", g1},
		{"h1 = join(b1,c2) no-reduce", "[1|0+1]", h1},
		{"g1 reduced", "[ε|ε]", g1.Reduce()},
	}
	allMatch := true
	for _, r := range rows {
		match := r.stamp.String() == r.paper
		allMatch = allMatch && match
		fmt.Fprintf(&b, "%-28s %-14s %s\n", r.label, r.stamp, r.paper)
	}
	fmt.Fprintf(&b, "all stamps match the paper: %v\n", allMatch)
	return b.String(), nil
}

// E3 reproduces Figure 3: a fixed replica set encoded under fork-and-join
// dynamics; fixed version vectors and version stamps must order every pair
// identically at every step.
func E3() (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "E3 — Figure 3: fixed N replicas, vectors vs fork/join stamps")
	fmt.Fprintln(&b, "   N  rounds  syncs  checks  disagreements  vv-bytes  max-stamp-bytes")
	for _, n := range []int{3, 4, 6} {
		sys, err := sim.NewFigure3System(n)
		if err != nil {
			return "", err
		}
		// Rotating pairwise syncs grow stamp ids multiplicatively (see the
		// growth table in E5), so round counts stay modest; ordering
		// agreement — the figure's claim — is checked after every step.
		rounds := 6 * n
		checks, syncs := 0, 0
		for r := 0; r < rounds; r++ {
			k := r % n
			if err := sys.Update(k); err != nil {
				return "", err
			}
			if r%2 == 0 {
				if err := sys.Sync(k, (k+1)%n); err != nil {
					return "", err
				}
				syncs++
			}
			if err := sys.CheckAgreement(); err != nil {
				return "", fmt.Errorf("disagreement at round %d: %w", r, err)
			}
			checks += n * (n - 1) / 2
		}
		fmt.Fprintf(&b, "%4d  %6d  %5d  %6d  %13d  %8d  %15d\n",
			n, rounds, syncs, checks, 0, sys.VectorSize(), sys.MaxStampSize())
	}
	fmt.Fprintln(&b, "paper claim: the encodings are order-equivalent (Fig. 3); measured: 0 disagreements")
	return b.String(), nil
}

// E4 verifies Proposition 5.1 / Corollary 5.2 on randomized traces: version
// stamps (both models) and dynamic version vectors induce exactly the
// causal-history ordering.
func E4() (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "E4 — Prop 5.1 / Cor 5.2: lockstep equivalence vs causal histories")
	fmt.Fprintln(&b, "workload    seeds  ops/trace  pair-checks  subset-checks  disagreements")
	workloads := []struct {
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
	}
	for _, wl := range workloads {
		pairs, subsets := 0, 0
		const seeds = 5
		for seed := int64(0); seed < seeds; seed++ {
			trace := sim.Random(seed*31+7, wl.ops, wl.w, 8)
			dvv, err := sim.NewDynamicVVTracker(vv.NewCentralServer(), "dynamic-vv")
			if err != nil {
				return "", err
			}
			subjects := []sim.Tracker{sim.NewStampTracker(true), dvv}
			if wl.noReduce {
				subjects = append(subjects, sim.NewStampTracker(false))
			}
			runner := sim.NewRunner(
				sim.NewCausalTracker(),
				subjects,
				sim.Config{Check: sim.CheckSubsets, Seed: seed},
			)
			report, err := runner.Run(trace)
			if err != nil {
				return "", err
			}
			pairs += report.Comparisons
			subsets += report.SubsetChecks
		}
		fmt.Fprintf(&b, "%-13s %5d  %9d  %11d  %13d  %13d\n",
			wl.label, seeds, wl.ops, pairs, subsets, 0)
	}
	fmt.Fprintln(&b, "paper claim: orders coincide (proved); measured: 0 disagreements")
	return b.String(), nil
}

// E5 measures the space-adaptivity claim: reducing vs non-reducing stamps
// across workloads (plus the causal-history oracle as the unbounded
// baseline).
func E5() (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "E5 — space adaptivity: reducing vs non-reducing stamps (bytes/element, end of run)")
	fmt.Fprintln(&b, "workload       ops  width  reduce(mean/max)  noreduce(mean/max)  causal(mean)")
	type wl struct {
		label string
		trace sim.Trace
	}
	// Traces are short because the non-reducing ablation's state grows
	// exponentially with joins (that growth is the point of the ablation);
	// both models replay the identical trace, so the comparison is fair.
	wls := []wl{
		{"forkheavy", sim.Random(11, 120, sim.ForkHeavy, 10)},
		{"syncheavy", sim.Random(12, 120, sim.SyncHeavy, 10)},
		{"balanced", sim.Random(13, 120, sim.Balanced, 10)},
		{"partitioned", sim.PartitionedEpochs(14, 4, 25, 12)},
		{"fixedN=6", sim.FixedN(15, 6, 15)},
	}
	for _, w := range wls {
		runner := sim.NewRunner(
			sim.NewCausalTracker(),
			[]sim.Tracker{sim.NewStampTracker(true), sim.NewStampTracker(false)},
			sim.Config{Check: sim.CheckNone, CollectSizes: true},
		)
		report, err := runner.Run(w.trace)
		if err != nil {
			return "", err
		}
		last := len(w.trace) - 1
		red := report.Sizes["stamps"][last]
		nored := report.Sizes["stamps-noreduce"][last]
		causal := report.Sizes["causal-histories"][last]
		fmt.Fprintf(&b, "%-12s %5d  %5d  %8.1f/%-8d %9.1f/%-8d %10.1f\n",
			w.label, len(w.trace), red.Width,
			red.MeanBytes(), red.MaxBytes,
			nored.MeanBytes(), nored.MaxBytes,
			causal.MeanBytes())
	}
	fmt.Fprintln(&b, "paper claim: reduction adapts stamp size to the frontier; causal histories only grow")

	// Negative finding: under ROTATING pairwise synchronization (three or
	// more replicas syncing round-robin), id components grow roughly by a
	// factor (1 + 2/N) per sync despite reduction — each sync gives both
	// participants the union of their id fragments with a fresh bit
	// appended, and the sibling halves rarely meet again. This is the known
	// growth weakness of version stamps that Interval Tree Clocks (E7)
	// later fixed; the paper targets frontier-shaped (fork/join-churning)
	// workloads, where reduction does keep stamps compact.
	fmt.Fprintln(&b, "\nrotating-sync growth, N=3 round-robin (the mechanism's worst case):")
	fmt.Fprintln(&b, "  syncs  max-id-strings  max-stamp-bytes")
	stamps := core.Seed().ForkN(3)
	for s := 0; s <= 12; s++ {
		if s > 0 {
			k := (s - 1) % 3
			stamps[k] = stamps[k].Update()
			j, err := core.Join(stamps[k], stamps[(k+1)%3])
			if err != nil {
				return "", err
			}
			stamps[k], stamps[(k+1)%3] = j.Fork()
		}
		if s%3 == 0 {
			maxStrings, maxBytes := 0, 0
			for _, st := range stamps {
				if l := st.IDName().Len(); l > maxStrings {
					maxStrings = l
				}
				if sz := st.EncodedSize(); sz > maxBytes {
					maxBytes = sz
				}
			}
			fmt.Fprintf(&b, "  %5d  %14d  %15d\n", s, maxStrings, maxBytes)
		}
	}
	fmt.Fprintln(&b, "  (growth is multiplicative: the successor ITC design, E7, bounds it)")
	return b.String(), nil
}

// E6 compares version stamps against dynamic version vectors on identical
// traces: dynamic vectors grow with replicas-ever-created, stamps with the
// live frontier.
func E6() (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "E6 — stamps vs dynamic version vectors (bytes/element, end of run)")
	fmt.Fprintln(&b, "workload        ops  width  replicas-created  stamps(mean)  dvv(mean)")
	for _, ops := range []int{150, 300, 600} {
		trace := sim.Random(21, ops, sim.SyncHeavy, 10)
		alloc := vv.NewCentralServer()
		dvv, err := sim.NewDynamicVVTracker(alloc, "dynamic-vv")
		if err != nil {
			return "", err
		}
		runner := sim.NewRunner(
			sim.NewCausalTracker(),
			[]sim.Tracker{sim.NewStampTracker(true), dvv},
			sim.Config{Check: sim.CheckNone, CollectSizes: true},
		)
		report, err := runner.Run(trace)
		if err != nil {
			return "", err
		}
		_, forks, _ := trace.Counts()
		last := len(trace) - 1
		st := report.Sizes["stamps"][last]
		dv := report.Sizes["dynamic-vv"][last]
		fmt.Fprintf(&b, "syncheavy  %7d  %5d  %16d  %12.1f  %9.1f\n",
			ops, st.Width, forks+1, st.MeanBytes(), dv.MeanBytes())
	}
	fmt.Fprintln(&b, "shape: dvv grows ~linearly with replicas ever created; stamps track the live frontier")
	return b.String(), nil
}

// E7 runs interval tree clocks (the successor design) through the same
// lockstep checks and compares sizes.
func E7() (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "E7 — interval tree clocks: agreement and size vs version stamps")
	fmt.Fprintln(&b, "workload    seeds  pair-checks  disagreements  stamps(mean B)  itc(mean B)")
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
			runner := sim.NewRunner(
				sim.NewCausalTracker(),
				[]sim.Tracker{sim.NewStampTracker(true), sim.NewITCTracker()},
				sim.Config{Check: sim.CheckPairs, Seed: seed, CollectSizes: true},
			)
			report, err := runner.Run(trace)
			if err != nil {
				return "", err
			}
			pairs += report.Comparisons
			last := len(trace) - 1
			stampMean += report.Sizes["stamps"][last].MeanBytes()
			itcMean += report.Sizes["itc"][last].MeanBytes()
		}
		fmt.Fprintf(&b, "%-11s %5d  %11d  %13d  %14.1f  %11.1f\n",
			wl.label, seeds, pairs, 0, stampMean/seeds, itcMean/seeds)
	}
	fmt.Fprintln(&b, "paper (§7) anticipates this line of work; ITC induces the identical frontier order")
	return b.String(), nil
}

// E8 demonstrates the identification problem: replica creation under
// partition fails for id-server dynamic version vectors and succeeds for
// version stamps; random ids trade the failure for collision probability.
func E8() (string, error) {
	var b strings.Builder
	fmt.Fprintln(&b, "E8 — the identification problem under partition")

	server := vv.NewCentralServer()
	dvv, err := sim.NewDynamicVVTracker(server, "dynamic-vv")
	if err != nil {
		return "", err
	}
	st := sim.NewStampTracker(true)
	server.SetPartitioned(true)
	attempts, dvvFailures := 10, 0
	for i := 0; i < attempts; i++ {
		if err := dvv.Fork(0); err != nil {
			dvvFailures++
		}
		if err := st.Fork(0); err != nil {
			return "", fmt.Errorf("stamp fork failed under partition: %w", err)
		}
	}
	fmt.Fprintf(&b, "partitioned replica creation: dynamic-vv %d/%d failed, stamps 0/%d failed\n",
		dvvFailures, attempts, attempts)
	fmt.Fprintf(&b, "stamp frontier width after %d offline forks: %d\n", attempts, st.Width())

	fmt.Fprintln(&b, "\nprobabilistic ids (birthday bound, 64-bit): draws -> P(collision)")
	for _, n := range []int{1 << 10, 1 << 16, 1 << 24, 1 << 32} {
		fmt.Fprintf(&b, "  %12d -> %.3g\n", n, vv.CollisionProbability(n, 64))
	}
	fmt.Fprintln(&b, "paper (§1): guaranteed-unique ids are required; stamps need none")
	return b.String(), nil
}
