// Package experiments is the paper reproduction: one output-checked
// Example per experiment, each printing a table whose numbers the library
// produces live, pinned by the Example's // Output: block. A changed number
// fails `go test`; `go test -run '^Example' -v ./internal/experiments/`
// prints every table.
//
//   - E1, Figure 1: fixed version vectors among three replicas.
//   - E2, Figures 2 and 4: the fork/join execution annotated with version
//     stamps, including the non-reduced joins the figure shows.
//   - E3, Figure 3: a fixed replica set under fork-and-join dynamics;
//     vectors and stamps order every pair identically at every step.
//   - E4, Proposition 5.1 / Corollary 5.2: stamps (both models) and dynamic
//     version vectors against causal histories on randomized traces.
//   - E5, the §6 space claim: reducing vs non-reducing stamps, and id
//     growth under rotating pairwise syncs.
//   - E6: stamps vs dynamic version vectors on identical traces.
//   - E7, §7: interval tree clocks, the successor design, through the same
//     lockstep checks.
//   - E8, the §1 identification problem: replica creation under partition,
//     and the collision odds of random ids.
package experiments
