package name

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"versionstamp/internal/bitstr"
)

// genName is a quick.Generator wrapper producing arbitrary valid names.
type genName struct{ Name }

var _ quick.Generator = genName{}

// Generate implements quick.Generator: an arbitrary antichain built by
// taking maximal elements of a random string set.
func (genName) Generate(rng *rand.Rand, size int) reflect.Value {
	if size > 12 {
		size = 12
	}
	n := rng.Intn(size + 1)
	bits := make([]bitstr.Bits, 0, n)
	for i := 0; i < n; i++ {
		l := rng.Intn(8)
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
	return reflect.ValueOf(genName{MaxOf(bits...)})
}

func quickCfg() *quick.Config {
	return &quick.Config{MaxCount: 400}
}

func TestQuickGeneratedNamesValid(t *testing.T) {
	if err := quick.Check(func(g genName) bool {
		return g.Validate() == nil
	}, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickPartialOrderLaws(t *testing.T) {
	if err := quick.Check(func(a, b, c genName) bool {
		if !a.Leq(a.Name) {
			return false // reflexivity
		}
		if a.Leq(b.Name) && b.Leq(a.Name) && !a.Equal(b.Name) {
			return false // antisymmetry
		}
		if a.Leq(b.Name) && b.Leq(c.Name) && !a.Leq(c.Name) {
			return false // transitivity
		}
		return true
	}, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinIsLub(t *testing.T) {
	if err := quick.Check(func(a, b, u genName) bool {
		j := Join(a.Name, b.Name)
		if !a.Leq(j) || !b.Leq(j) {
			return false // upper bound
		}
		if a.Leq(u.Name) && b.Leq(u.Name) && !j.Leq(u.Name) {
			return false // least
		}
		return true
	}, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickSemilatticeLaws(t *testing.T) {
	if err := quick.Check(func(a, b, c genName) bool {
		return Join(a.Name, a.Name).Equal(a.Name) && // idempotent
			Join(a.Name, b.Name).Equal(Join(b.Name, a.Name)) && // commutative
			Join(Join(a.Name, b.Name), c.Name).Equal(Join(a.Name, Join(b.Name, c.Name))) && // associative
			Join(a.Name, Empty()).Equal(a.Name) // unit
	}, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickLeqIffJoinAbsorbs(t *testing.T) {
	// In a join semilattice, a ⊑ b ⇔ a ⊔ b = b.
	if err := quick.Check(func(a, b genName) bool {
		return a.Leq(b.Name) == Join(a.Name, b.Name).Equal(b.Name)
	}, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	if err := quick.Check(func(a genName) bool {
		back, err := Parse(a.String())
		return err == nil && back.Equal(a.Name)
	}, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickAppendReflectsOrder(t *testing.T) {
	if err := quick.Check(func(a, b genName) bool {
		// n·0 ⊑ m·0 ⇒ n ⊑ m, and equality is preserved by lifting.
		if a.Append0().Leq(b.Append0()) && !a.Leq(b.Name) {
			return false
		}
		if a.Equal(b.Name) && !a.Append1().Equal(b.Append1()) {
			return false
		}
		return true
	}, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestQuickCollapseShrinks(t *testing.T) {
	if err := quick.Check(func(a genName) bool {
		s, ok := a.SiblingPair()
		if !ok {
			return true
		}
		c, ok := a.CollapseSiblings(s)
		return ok && c.Validate() == nil && c.Leq(a.Name) && c.Len() == a.Len()-1
	}, quickCfg()); err != nil {
		t.Error(err)
	}
}
