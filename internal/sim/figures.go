package sim

import (
	"fmt"

	"versionstamp/internal/core"
	"versionstamp/internal/vv"
)

// This file reproduces the paper's worked figures as executable artifacts:
// Figure 2's execution as a Trace (its stamps are Figure 4, checked in the
// tests and in internal/experiments' E2), and Figure 3's encoding of a fixed
// replica set under fork-and-join dynamics.

// Figure2Trace returns the execution of Figure 2 in slot form:
//
//	slot evolution        elements
//	update(0)             a1 -> a2
//	fork(0)               a2 -> b1 (slot 0), c1 (slot 1)
//	fork(0)               b1 -> d1 (slot 0), e1 (slot 2)
//	update(1), update(1)  c1 -> c2 -> c3
//	join(2,1)             f1 = e1 ⊔ c3 (slot 1 after shift)
//	join(0,1)             g1 = d1 ⊔ f1
//
// Replaying it on a StampTracker yields exactly the version stamps of
// Figure 4 (see TestFigure2TraceStamps).
func Figure2Trace() Trace {
	return Trace{
		{Kind: OpUpdate, A: 0},
		{Kind: OpFork, A: 0},
		{Kind: OpFork, A: 0},
		{Kind: OpUpdate, A: 1},
		{Kind: OpUpdate, A: 1},
		{Kind: OpJoin, A: 2, B: 1},
		{Kind: OpJoin, A: 0, B: 1},
	}
}

// Figure3System runs the paper's Figure 3 comparison: a classic system of n
// replicas tracked by fixed version vectors (left side of the figure),
// operated in lockstep with the fork-and-join encoding tracked by version
// stamps (right side). Each replica keeps a stable index in both systems;
// synchronization of two replicas is a vector join on the left and a
// join-then-fork on the right.
type Figure3System struct {
	vectors []vv.Vector
	stamps  []core.Stamp
}

// NewFigure3System builds the n-replica lockstep system.
func NewFigure3System(n int) (*Figure3System, error) {
	if n < 2 {
		return nil, fmt.Errorf("sim: figure-3 system needs >= 2 replicas, got %d", n)
	}
	vectors := make([]vv.Vector, n)
	for i := range vectors {
		vectors[i] = vv.NewVector(n)
	}
	return &Figure3System{
		vectors: vectors,
		stamps:  core.Seed().ForkN(n),
	}, nil
}

// Size returns the number of replicas.
func (f *Figure3System) Size() int { return len(f.vectors) }

// Vector returns replica i's fixed version vector.
func (f *Figure3System) Vector(i int) (vv.Vector, error) {
	if i < 0 || i >= len(f.vectors) {
		return nil, fmt.Errorf("sim: replica %d out of range", i)
	}
	return f.vectors[i].Clone(), nil
}

// Stamp returns replica i's version stamp.
func (f *Figure3System) Stamp(i int) (core.Stamp, error) {
	if i < 0 || i >= len(f.stamps) {
		return core.Stamp{}, fmt.Errorf("sim: replica %d out of range", i)
	}
	return f.stamps[i], nil
}

// Update records an update at replica i in both systems.
func (f *Figure3System) Update(i int) error {
	if i < 0 || i >= len(f.vectors) {
		return fmt.Errorf("sim: replica %d out of range", i)
	}
	updated, err := f.vectors[i].Update(i)
	if err != nil {
		return err
	}
	f.vectors[i] = updated
	f.stamps[i] = f.stamps[i].Update()
	return nil
}

// Sync synchronizes replicas i and j in both systems: vector join on the
// left, join-then-fork (Figure 3's encoding) on the right.
func (f *Figure3System) Sync(i, j int) error {
	if i < 0 || i >= len(f.vectors) || j < 0 || j >= len(f.vectors) || i == j {
		return fmt.Errorf("sim: invalid sync pair (%d,%d)", i, j)
	}
	merged, err := vv.Join(f.vectors[i], f.vectors[j])
	if err != nil {
		return err
	}
	f.vectors[i], f.vectors[j] = merged.Clone(), merged.Clone()

	si, sj, err := core.Sync(f.stamps[i], f.stamps[j])
	if err != nil {
		return err
	}
	f.stamps[i], f.stamps[j] = si, sj
	return nil
}

// CheckAgreement verifies that the two systems induce the same ordering on
// every pair of replicas, and that the stamp frontier satisfies I1–I3. A
// non-nil error means the Figure 3 equivalence failed.
func (f *Figure3System) CheckAgreement() error {
	if err := core.CheckFrontier(f.stamps); err != nil {
		return err
	}
	for i := 0; i < len(f.vectors); i++ {
		for j := i + 1; j < len(f.vectors); j++ {
			vo, err := vv.Compare(f.vectors[i], f.vectors[j])
			if err != nil {
				return err
			}
			so := core.Compare(f.stamps[i], f.stamps[j])
			if Relation(vo) != Relation(so) {
				return fmt.Errorf(
					"sim: figure-3 disagreement on (%d,%d): vectors %v (%v vs %v), stamps %v (%v vs %v)",
					i, j, vo, f.vectors[i], f.vectors[j], so, f.stamps[i], f.stamps[j])
			}
		}
	}
	return nil
}

// MaxStampSize returns the largest encoded stamp in bytes, for the E3/E5
// observation that fixed-frontier operation keeps stamps bounded.
func (f *Figure3System) MaxStampSize() int {
	maxSize := 0
	for _, s := range f.stamps {
		if sz := s.EncodedSize(); sz > maxSize {
			maxSize = sz
		}
	}
	return maxSize
}

// VectorSize returns the constant encoded size of each fixed vector
// (8 bytes per counter).
func (f *Figure3System) VectorSize() int { return 8 * len(f.vectors) }
