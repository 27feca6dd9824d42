package causalgraph_test

import (
	"fmt"

	"versionstamp/internal/causalgraph"
)

// Post-hoc analysis of a recorded replicated execution — the §1.2 use case
// the paper contrasts with frontier ordering: "one may want to inquire how
// c2 and a1 relate and determine that a1 is in the past of c2", even though
// a1 and c2 never coexist. The recorder keeps the whole derivation DAG (a
// global view, fine for offline debugging) while the live replicas only
// ever carried their version stamps.
func Example() {
	must := func(id causalgraph.ElemID, err error) causalgraph.ElemID {
		if err != nil {
			panic(err)
		}
		return id
	}
	// Re-record the execution of the paper's Figure 2.
	rec, a1 := causalgraph.New()
	a2 := must(rec.Update(a1))
	b1, c1, err := rec.Fork(a2)
	if err != nil {
		panic(err)
	}
	d1, e1, err := rec.Fork(b1)
	if err != nil {
		panic(err)
	}
	c2 := must(rec.Update(c1))
	c3 := must(rec.Update(c2))
	f1 := must(rec.Join(e1, c3))
	g1 := must(rec.Join(d1, f1))
	names := map[causalgraph.ElemID]string{
		a1: "a1", a2: "a2", b1: "b1", c1: "c1", d1: "d1",
		e1: "e1", c2: "c2", c3: "c3", f1: "f1", g1: "g1",
	}
	fmt.Printf("recorded %d elements, %d live\n", rec.Size(), rec.LiveCount())

	// The paper's query: how do a1 and c2 relate?
	rel, err := rec.Relation(a1, c2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("a1 vs c2: %v\n", rel)

	// Elements connected by a path can never have coexisted.
	for _, q := range [][2]causalgraph.ElemID{{a1, c2}, {d1, c2}, {b1, c1}, {e1, g1}} {
		ok, err := rec.CoexistencePossible(q[0], q[1])
		if err != nil {
			panic(err)
		}
		fmt.Printf("could %s and %s coexist in some frontier? %v\n", names[q[0]], names[q[1]], ok)
	}

	// Update-history ordering across the whole run (not just frontiers).
	for _, q := range [][2]causalgraph.ElemID{{d1, c3}, {c3, g1}, {d1, e1}} {
		o, err := rec.CompareHistories(q[0], q[1])
		if err != nil {
			panic(err)
		}
		h0, _ := rec.History(q[0])
		h1, _ := rec.History(q[1])
		fmt.Printf("histories: %s (%d updates) vs %s (%d updates): %v\n",
			names[q[0]], len(h0), names[q[1]], len(h1), o)
	}
	// Output:
	// recorded 10 elements, 1 live
	// a1 vs c2: ancestor
	// could a1 and c2 coexist in some frontier? false
	// could d1 and c2 coexist in some frontier? true
	// could b1 and c1 coexist in some frontier? true
	// could e1 and g1 coexist in some frontier? false
	// histories: d1 (1 updates) vs c3 (3 updates): before
	// histories: c3 (3 updates) vs g1 (3 updates): equal
	// histories: d1 (1 updates) vs e1 (1 updates): equal
}
