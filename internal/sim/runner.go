package sim

import (
	"fmt"
	"math/rand"
)

// CheckLevel selects how much cross-checking the runner performs per step.
type CheckLevel int

const (
	// CheckNone replays the trace without verification (benchmarks).
	CheckNone CheckLevel = iota + 1
	// CheckPairs verifies all pairwise comparisons against the oracle
	// (Corollary 5.2) and the subjects' internal invariants.
	CheckPairs
	// CheckSubsets additionally verifies random (x, S) subset queries
	// against the oracle (the stronger Proposition 5.1).
	CheckSubsets
)

// Config parameterizes a lockstep run.
type Config struct {
	// Check selects the verification level (default CheckPairs).
	Check CheckLevel
	// SubsetQueries is the number of random (x, S) queries per checked step
	// at CheckSubsets level (default 8).
	SubsetQueries int
	// Seed drives the random subset choices (not the trace).
	Seed int64
	// CollectSizes records per-step size statistics for every tracker that
	// implements SizeReporter.
	CollectSizes bool
}

func (c Config) withDefaults() Config {
	if c.Check == 0 {
		c.Check = CheckPairs
	}
	if c.SubsetQueries <= 0 {
		c.SubsetQueries = 8
	}
	return c
}

// SizeSample is one per-step size observation of a tracker's frontier.
type SizeSample struct {
	Step       int
	Width      int
	TotalBytes int
	MaxBytes   int
}

// MeanBytes returns the mean per-element size of the sample.
func (s SizeSample) MeanBytes() float64 {
	if s.Width == 0 {
		return 0
	}
	return float64(s.TotalBytes) / float64(s.Width)
}

// Report summarizes a lockstep run.
type Report struct {
	// Ops is the number of operations replayed.
	Ops int
	// Comparisons counts pairwise agreement checks performed.
	Comparisons int
	// SubsetChecks counts (x, S) agreement checks performed.
	SubsetChecks int
	// Sizes maps tracker name to its per-step size series (when
	// CollectSizes is set).
	Sizes map[string][]SizeSample
}

// DisagreementError reports a subject mechanism disagreeing with the oracle;
// it is the failure the whole simulator exists to detect.
type DisagreementError struct {
	Step    int
	Op      Op
	Subject string
	Detail  string
}

// Error implements error.
func (e *DisagreementError) Error() string {
	return fmt.Sprintf("sim: step %d (%v): %s disagrees with oracle: %s",
		e.Step, e.Op, e.Subject, e.Detail)
}

// Runner replays traces on an oracle and a set of subject trackers in
// lockstep, verifying agreement.
type Runner struct {
	oracle   Tracker
	subjects []Tracker
	cfg      Config
	rng      *rand.Rand
}

// NewRunner builds a runner. The oracle provides ground truth (normally
// NewCausalTracker()); subjects are verified against it.
func NewRunner(oracle Tracker, subjects []Tracker, cfg Config) *Runner {
	cfg = cfg.withDefaults()
	return &Runner{
		oracle:   oracle,
		subjects: subjects,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Run replays the trace, verifying per Config and collecting statistics.
// It stops at the first error or disagreement.
func (r *Runner) Run(trace Trace) (*Report, error) {
	if err := trace.Validate(); err != nil {
		return nil, err
	}
	report := &Report{Sizes: make(map[string][]SizeSample)}
	all := append([]Tracker{r.oracle}, r.subjects...)
	for step, op := range trace {
		for _, t := range all {
			if err := applyOp(t, op); err != nil {
				return report, fmt.Errorf("sim: step %d (%v) on %s: %w", step, op, t.Name(), err)
			}
		}
		report.Ops++
		if r.cfg.Check != CheckNone {
			if err := r.verify(step, op, report); err != nil {
				return report, err
			}
		}
		if r.cfg.CollectSizes {
			r.collectSizes(step, report)
		}
	}
	return report, nil
}

func applyOp(t Tracker, op Op) error {
	switch op.Kind {
	case OpUpdate:
		return t.Update(op.A)
	case OpFork:
		return t.Fork(op.A)
	case OpJoin:
		return t.Join(op.A, op.B)
	default:
		return fmt.Errorf("invalid op kind %d", op.Kind)
	}
}

func (r *Runner) verify(step int, op Op, report *Report) error {
	width := r.oracle.Width()
	for _, subj := range r.subjects {
		if subj.Width() != width {
			return &DisagreementError{Step: step, Op: op, Subject: subj.Name(),
				Detail: fmt.Sprintf("width %d, oracle %d", subj.Width(), width)}
		}
		if ic, ok := subj.(InvariantChecker); ok {
			if err := ic.CheckInvariants(); err != nil {
				return &DisagreementError{Step: step, Op: op, Subject: subj.Name(),
					Detail: err.Error()}
			}
		}
		// Pairwise agreement (Corollary 5.2).
		for a := 0; a < width; a++ {
			for b := a + 1; b < width; b++ {
				want, err := r.oracle.Compare(a, b)
				if err != nil {
					return fmt.Errorf("sim: oracle compare: %w", err)
				}
				got, err := subj.Compare(a, b)
				if err != nil {
					return fmt.Errorf("sim: %s compare: %w", subj.Name(), err)
				}
				report.Comparisons++
				if got != want {
					return &DisagreementError{Step: step, Op: op, Subject: subj.Name(),
						Detail: fmt.Sprintf("compare(%d,%d) = %v, oracle %v", a, b, got, want)}
				}
			}
		}
		// Subset agreement (Proposition 5.1).
		if r.cfg.Check == CheckSubsets {
			oracleSC, ok1 := r.oracle.(SubsetComparer)
			subjSC, ok2 := subj.(SubsetComparer)
			if !ok1 || !ok2 {
				continue
			}
			for q := 0; q < r.cfg.SubsetQueries; q++ {
				x := r.rng.Intn(width)
				set := randomSubset(r.rng, width)
				want, err := oracleSC.LeqUnion(x, set)
				if err != nil {
					return fmt.Errorf("sim: oracle subset query: %w", err)
				}
				got, err := subjSC.LeqUnion(x, set)
				if err != nil {
					return fmt.Errorf("sim: %s subset query: %w", subj.Name(), err)
				}
				report.SubsetChecks++
				if got != want {
					return &DisagreementError{Step: step, Op: op, Subject: subj.Name(),
						Detail: fmt.Sprintf("leqUnion(%d,%v) = %v, oracle %v", x, set, got, want)}
				}
			}
		}
	}
	return nil
}

// randomSubset draws a non-empty subset of [0,width) as required by
// Proposition 5.1 (∅ ⊂ S ⊆ dom).
func randomSubset(rng *rand.Rand, width int) []int {
	var set []int
	for i := 0; i < width; i++ {
		if rng.Intn(2) == 0 {
			set = append(set, i)
		}
	}
	if len(set) == 0 {
		set = append(set, rng.Intn(width))
	}
	return set
}

func (r *Runner) collectSizes(step int, report *Report) {
	all := append([]Tracker{r.oracle}, r.subjects...)
	for _, t := range all {
		sr, ok := t.(SizeReporter)
		if !ok {
			continue
		}
		sample := SizeSample{Step: step, Width: t.Width()}
		for a := 0; a < t.Width(); a++ {
			sz := sr.SizeOf(a)
			sample.TotalBytes += sz
			if sz > sample.MaxBytes {
				sample.MaxBytes = sz
			}
		}
		report.Sizes[t.Name()] = append(report.Sizes[t.Name()], sample)
	}
}

// Replay runs a trace on a single tracker without verification; it returns
// the final width. Useful for benchmarks and for preparing a tracker state.
func Replay(t Tracker, trace Trace) (int, error) {
	if err := trace.Validate(); err != nil {
		return 0, err
	}
	for step, op := range trace {
		if err := applyOp(t, op); err != nil {
			return 0, fmt.Errorf("sim: step %d (%v) on %s: %w", step, op, t.Name(), err)
		}
	}
	return t.Width(), nil
}
