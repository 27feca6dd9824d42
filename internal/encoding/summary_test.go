package encoding

import (
	"testing"

	"versionstamp/internal/core"
)

// forkedPair returns the two sides of one updated seed — equivalent copies
// with distinct id components, the shape every synced key has.
func forkedPair() (core.Stamp, core.Stamp) {
	return core.Seed().Update().Fork()
}

func summarize(ds []Digest) uint64 {
	h, _ := SummarizeDigestsBuf(ds, nil)
	return h
}

func TestSummarizeEquivalentCopiesMatch(t *testing.T) {
	var mine, theirs []Digest
	for _, k := range []string{"alpha", "beta", "gamma"} {
		a, b := forkedPair()
		if !a.Equivalent(b) {
			t.Fatalf("forked pair not equivalent")
		}
		mine = append(mine, Digest{Key: k, Stamp: a})
		theirs = append(theirs, Digest{Key: k, Stamp: b})
	}
	if summarize(mine) != summarize(theirs) {
		t.Error("equivalent stripes summarize differently")
	}
}

func TestSummarizeDivergenceDetected(t *testing.T) {
	a, b := forkedPair()
	base := []Digest{{Key: "k", Stamp: a}}
	moved := []Digest{{Key: "k", Stamp: b.Update()}}
	if summarize(base) == summarize(moved) {
		t.Error("an updated copy summarized as unchanged")
	}
	// A key present on one side only must also show.
	if summarize(base) == summarize(nil) {
		t.Error("non-empty stripe summarized as empty")
	}
	extra := append(append([]Digest(nil), base...), Digest{Key: "k2", Stamp: a})
	if summarize(base) == summarize(extra) {
		t.Error("extra key summarized as unchanged")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if summarize(nil) != RootSummarySeed {
		t.Errorf("empty summary = %d, want RootSummarySeed", summarize(nil))
	}
}

func TestAppendCompactMatchesMarshal(t *testing.T) {
	s := core.Seed().Update()
	a, _ := s.Fork()
	for _, st := range []core.Stamp{s, a, a.Update()} {
		got := AppendCompact(nil, st)
		want := MarshalCompact(st)
		if string(got) != string(want) {
			t.Errorf("AppendCompact = %x, MarshalCompact = %x", got, want)
		}
		// And the appended form decodes back to an equal stamp.
		dec, used, err := UnmarshalCompact(got)
		if err != nil || used != len(got) || !dec.Equal(st) {
			t.Errorf("round trip failed: %v used=%d", err, used)
		}
	}
}
