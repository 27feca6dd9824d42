package trie

import (
	"math/rand"
	"testing"

	"versionstamp/internal/bitstr"
	"versionstamp/internal/name"
)

func randName(rng *rand.Rand, maxStrings, maxLen int) name.Name {
	n := rng.Intn(maxStrings + 1)
	bits := make([]bitstr.Bits, 0, n)
	for i := 0; i < n; i++ {
		l := rng.Intn(maxLen + 1)
		b := bitstr.Epsilon
		for j := 0; j < l; j++ {
			if rng.Intn(2) == 0 {
				b = b.Append0()
			} else {
				b = b.Append1()
			}
		}
		bits = append(bits, b)
	}
	return name.MaxOf(bits...)
}

// collapseFixpoint is the id half of the Section 6 reduction at the name
// level: collapse sibling pairs one at a time until none is left.
func collapseFixpoint(n name.Name) name.Name {
	for {
		s, ok := n.SiblingPair()
		if !ok {
			return n
		}
		n, _ = n.CollapseSiblings(s)
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := randName(rng, 10, 8)
		h := Intern(n)
		if err := h.Validate(); err != nil {
			t.Fatalf("Intern(%v) invalid: %v", n, err)
		}
		if back := h.Name(); !back.Equal(n) {
			t.Fatalf("round trip %v -> %v", n, back)
		}
	}
}

func TestEmptyAndLeaf(t *testing.T) {
	var empty *Interned
	if !empty.IsEmpty() || empty.Len() != 0 || empty.IsLeaf() {
		t.Error("nil handle must be empty")
	}
	if empty.String() != "∅" {
		t.Errorf("String(∅) = %q", empty.String())
	}
	eps := Intern(name.Epsilon())
	if !eps.IsLeaf() || eps.Len() != 1 || eps.String() != "ε" {
		t.Errorf("Intern({ε}) = %v", eps)
	}
	if z, o := eps.Children(); z != nil || o != nil {
		t.Error("the leaf has children")
	}
	if Intern(name.Empty()) != nil {
		t.Error("Intern(∅) must be nil")
	}
}

func TestLenMatchesName(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		n := randName(rng, 10, 6)
		if got := Intern(n).Len(); got != n.Len() {
			t.Fatalf("Len(%v) = %d, want %d", n, got, n.Len())
		}
	}
}

func TestCoversAgreesWithName(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 800; i++ {
		n := randName(rng, 8, 6)
		h := Intern(n)
		probeName := randName(rng, 1, 6)
		probe := bitstr.Epsilon
		if probeName.Len() == 1 {
			probe, _ = probeName.At(0)
		}
		if got, want := h.Covers(probe), n.Covers(probe); got != want {
			t.Fatalf("Covers(%v, %v) = %v, want %v", n, probe, got, want)
		}
	}
}

func TestLeqAgreesWithName(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 800; i++ {
		a, b := randName(rng, 8, 6), randName(rng, 8, 6)
		if got, want := Intern(a).Leq(Intern(b)), a.Leq(b); got != want {
			t.Fatalf("Leq(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestJoinAgreesWithName(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 800; i++ {
		a, b := randName(rng, 8, 6), randName(rng, 8, 6)
		got := JoinInterned(Intern(a), Intern(b))
		if err := got.Validate(); err != nil {
			t.Fatalf("Join(%v,%v) invalid: %v", a, b, err)
		}
		if want := name.Join(a, b); !got.Name().Equal(want) {
			t.Fatalf("Join(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestEqualAgreesWithName(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		a, b := randName(rng, 6, 5), randName(rng, 6, 5)
		if got, want := Intern(a).Equal(Intern(b)), a.Equal(b); got != want {
			t.Fatalf("Equal(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestCollapse(t *testing.T) {
	tests := []struct {
		in, want string
	}{
		{"∅", "∅"},
		{"ε", "ε"},
		{"0", "0"},
		{"0+1", "ε"},
		{"00+01", "0"},
		{"00+01+1", "ε"},
		{"00+01+10", "0+10"},
		{"000+001+01+10+11", "ε"},
		{"00+011+10", "00+011+10"}, // nothing collapses
	}
	for _, tt := range tests {
		_, got := Reduce(nil, Intern(name.MustParse(tt.in)))
		if err := got.Validate(); err != nil {
			t.Fatalf("Reduce(∅, %s) invalid: %v", tt.in, err)
		}
		if got.String() != tt.want {
			t.Errorf("Reduce(∅, %s) = %v, want %s", tt.in, got, tt.want)
		}
	}
}

func TestCollapseAgreesWithSiblingFixpoint(t *testing.T) {
	// The id normalization must compute exactly the fixpoint of
	// name.CollapseSiblings.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		n := randName(rng, 10, 6)
		_, got := Reduce(nil, Intern(n))
		if want := collapseFixpoint(n); !got.Name().Equal(want) {
			t.Fatalf("Reduce(∅, %v) = %v, want fixpoint %v", n, got, want)
		}
	}
}

func TestCollapseIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		_, n := Reduce(nil, Intern(randName(rng, 10, 6)))
		if _, again := Reduce(nil, n); again != n {
			t.Fatalf("Reduce not idempotent on %v", n)
		}
	}
}

func TestAppendBit(t *testing.T) {
	n := name.MustParse("0+10")
	h := Intern(n)
	if z := h.Append0(); !z.Name().Equal(n.Append0()) {
		t.Errorf("Append0 = %v, want %v", z, n.Append0())
	}
	if o := h.Append1(); !o.Name().Equal(n.Append1()) {
		t.Errorf("Append1 = %v, want %v", o, n.Append1())
	}
	var empty *Interned
	if empty.Append0() != nil || empty.Append1() != nil {
		t.Error("appending to ∅ must stay ∅")
	}
}

func TestAppendBitAgreesWithName(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		n := randName(rng, 8, 5)
		if z := Intern(n).Append0(); !z.Name().Equal(n.Append0()) {
			t.Fatalf("Append0 disagrees on %v", n)
		}
	}
}

func TestImmutability(t *testing.T) {
	a := name.MustParse("00+01")
	b := name.MustParse("1")
	ha, hb := Intern(a), Intern(b)
	_ = JoinInterned(ha, hb)
	_, _ = Reduce(nil, ha)
	_ = ha.Append1()
	if !ha.Name().Equal(a) || !hb.Name().Equal(b) {
		t.Error("operations mutated their inputs")
	}
}

func TestStringRendering(t *testing.T) {
	tests := []struct{ in, want string }{
		{"∅", "∅"},
		{"ε", "ε"},
		{"0+10+111", "0+10+111"},
	}
	for _, tt := range tests {
		if got := Intern(name.MustParse(tt.in)).String(); got != tt.want {
			t.Errorf("String(%s) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestFlatSizeMatchesName(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		n := randName(rng, 12, 20)
		if got, want := Intern(n).FlatSize(), n.EncodedSize(); got != want {
			t.Fatalf("FlatSize(%v) = %d, want %d", n, got, want)
		}
	}
	if got, want := (*Interned)(nil).FlatSize(), name.Empty().EncodedSize(); got != want {
		t.Errorf("FlatSize(∅) = %d, want %d", got, want)
	}
}
