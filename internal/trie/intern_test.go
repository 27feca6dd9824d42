package trie

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"versionstamp/internal/bitstr"
	"versionstamp/internal/name"
)

func mustName(t *testing.T, s string) name.Name {
	t.Helper()
	n, err := name.Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return n
}

func TestInternDedupsToOneHandle(t *testing.T) {
	for _, s := range []string{"ε", "0", "1", "0+1", "00+01+1", "010+0111"} {
		a := Intern(mustName(t, s))
		b := Intern(mustName(t, s))
		if a != b {
			t.Errorf("Intern(%q) returned two records: %p %p", s, a, b)
		}
		if a == nil {
			t.Fatalf("Intern(%q) = nil for a nonempty name", s)
		}
		if a.ID() == 0 {
			t.Errorf("table-resident record for %q has id 0", s)
		}
		if err := a.Validate(); err != nil {
			t.Errorf("Intern(%q): %v", s, err)
		}
	}
	if Intern(name.Empty()) != nil {
		t.Error("Intern(∅) is not the nil handle")
	}
}

func TestInternEncodedRoundTrip(t *testing.T) {
	for _, s := range []string{"∅", "ε", "0", "0+1", "00+01+10+11", "0101+011"} {
		n := mustName(t, s)
		h := Intern(n)
		enc := h.AppendEncoding(nil)
		got, used, err := InternEncoded(enc)
		if err != nil {
			t.Fatalf("InternEncoded(%q): %v", s, err)
		}
		if used != len(enc) {
			t.Errorf("InternEncoded(%q) consumed %d of %d bytes", s, used, len(enc))
		}
		if got != h {
			t.Errorf("InternEncoded(%q) did not dedup onto the interned handle", s)
		}
		if !got.Name().Equal(n) {
			t.Errorf("InternEncoded(%q) = %v", s, got.Name())
		}
	}
}

// TestInternEncodedCanonicalizesPadding: an encoding whose padding bits are
// garbage must decode to the same handle as the canonical encoding — the
// table key is the re-encoded canonical form, never raw wire bytes.
func TestInternEncodedCanonicalizesPadding(t *testing.T) {
	h := Intern(mustName(t, "0+10"))
	enc := h.AppendEncoding(nil)
	dirty := append([]byte(nil), enc...)
	// The bit stream is MSB-first and padded to a byte; flipping the last
	// byte's lowest bits touches only padding for this name's bit count.
	nbits := int(dirty[0])
	pad := 8 - nbits%8
	if pad == 8 {
		t.Skip("encoding has no padding bits")
	}
	dirty[len(dirty)-1] ^= 1 // lowest bit of the final byte = last padding bit
	got, used, err := InternEncoded(dirty)
	if err != nil {
		t.Fatalf("InternEncoded(dirty): %v", err)
	}
	if used != len(dirty) || got != h {
		t.Errorf("padded variant decoded to a different handle (used %d)", used)
	}
}

func TestInternEncodedRejectsCorrupt(t *testing.T) {
	for _, in := range [][]byte{{}, {0xFF}, {0x03, 0x00}, {0x20}} {
		if h, _, err := InternEncoded(in); err == nil {
			t.Errorf("InternEncoded(% x) accepted: %v", in, h)
		}
	}
}

func TestInternedComparisons(t *testing.T) {
	empty := Intern(name.Empty())
	eps := Intern(mustName(t, "ε"))
	a := Intern(mustName(t, "0"))
	ab := Intern(mustName(t, "0+1"))
	deep := Intern(mustName(t, "00+01+1"))

	cases := []struct {
		n, m *Interned
		leq  bool
	}{
		{empty, empty, true}, {empty, a, true}, {a, empty, false},
		{eps, eps, true}, {a, ab, true}, {ab, a, false},
		{ab, deep, true}, {deep, ab, false}, {a, deep, true},
	}
	for _, c := range cases {
		if got := c.n.Leq(c.m); got != c.leq {
			t.Errorf("(%v).Leq(%v) = %v, want %v", c.n, c.m, got, c.leq)
		}
		if want := c.n.Name().Leq(c.m.Name()); c.leq != want {
			t.Errorf("case (%v, %v) disagrees with name-level Leq", c.n, c.m)
		}
	}
	if !ab.Covers(bitstr.Bits("0")) || ab.Covers(bitstr.Bits("00")) {
		t.Error("Covers disagrees with name-level semantics")
	}
	if !a.IncomparableTo(Intern(mustName(t, "1"))) {
		t.Error("0 and 1 should be incomparable")
	}
	if a.IncomparableTo(a) {
		t.Error("a nonempty name is comparable to itself")
	}
	if !empty.IncomparableTo(a) || !a.IncomparableTo(empty) {
		t.Error("∅ is vacuously incomparable to everything")
	}
}

func TestJoinInternedReusesDominatingSide(t *testing.T) {
	a := Intern(mustName(t, "0"))
	ab := Intern(mustName(t, "0+1"))
	if got := JoinInterned(a, ab); got != ab {
		t.Errorf("join with dominating right side = %v, want the right handle", got)
	}
	if got := JoinInterned(ab, a); got != ab {
		t.Errorf("join with dominating left side = %v, want the left handle", got)
	}
	if got := JoinInterned(a, a); got != a {
		t.Errorf("self-join = %v, want the same handle", got)
	}
	if got := JoinInterned(nil, ab); got != ab {
		t.Errorf("join with ∅ = %v", got)
	}
	// A genuine merge dedups onto the interned join.
	l := Intern(mustName(t, "00"))
	r := Intern(mustName(t, "01"))
	j := JoinInterned(l, r)
	if j != Intern(name.Join(l.Name(), r.Name())) {
		t.Error("merged join is not the interned canonical result")
	}
}

func TestJoinInternedMatchesNameJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	randName := func() name.Name {
		var bits []bitstr.Bits
		for i, n := 0, rng.Intn(4); i < n; i++ {
			b := bitstr.Epsilon
			for j, l := 0, rng.Intn(5); j < l; j++ {
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
	for i := 0; i < 500; i++ {
		a, b := randName(), randName()
		got := JoinInterned(Intern(a), Intern(b)).Name()
		want := name.Join(a, b)
		if !got.Equal(want) {
			t.Fatalf("JoinInterned(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestAppendBitMemoized(t *testing.T) {
	h := Intern(mustName(t, "0+1"))
	z1, z2 := h.Append0(), h.Append0()
	if z1 != z2 {
		t.Error("Append0 not memoized to one handle")
	}
	if !z1.Name().Equal(h.Name().Append0()) {
		t.Errorf("Append0 = %v, want %v", z1.Name(), h.Name().Append0())
	}
	o := h.Append1()
	if !o.Name().Equal(h.Name().Append1()) {
		t.Errorf("Append1 = %v, want %v", o.Name(), h.Name().Append1())
	}
	if (*Interned)(nil).Append0() != nil {
		t.Error("∅·0 must be ∅")
	}
	if a := testing.AllocsPerRun(200, func() { _ = h.Append0() }); a != 0 {
		t.Errorf("memoized Append0 allocates %.1f/op, want 0", a)
	}
}

func TestInternedEncodingMatchesTrieEncode(t *testing.T) {
	for _, c := range []struct{ name, enc string }{
		{"∅", "\x01\x00"},
		{"ε", "\x02\xc0"},
		{"0+1", "\x06\xbc"},
		{"00+01+10+11", "\x0e\xb7\xbc"},
	} {
		h := Intern(mustName(t, c.name))
		if got := h.AppendEncoding(nil); string(got) != c.enc {
			t.Errorf("encoding of %q = % x, want % x", c.name, got, c.enc)
		}
		if h.EncodedLen() != len(c.enc) {
			t.Errorf("EncodedLen(%q) = %d, want %d", c.name, h.EncodedLen(), len(c.enc))
		}
	}
}

// TestInternConcurrent hammers the table from many goroutines over a shared
// working set; every goroutine must observe identical handles for identical
// names. Run under -race this also proves the table and the memoized fork
// slots are properly synchronized.
func TestInternConcurrent(t *testing.T) {
	const workers = 8
	names := make([]name.Name, 64)
	for i := range names {
		names[i] = mustName(t, fmt.Sprintf("0%05b+1%05b", i, (i*7)%64))
	}
	handles := make([][]*Interned, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*Interned, len(names))
			for i, n := range names {
				h := Intern(n)
				h.Append0()
				h.Append1()
				out[i] = h
			}
			handles[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range names {
			if handles[w][i] != handles[0][i] {
				t.Fatalf("worker %d got a different handle for %v", w, names[i])
			}
		}
	}
}

func TestInternAllocationProfile(t *testing.T) {
	a := Intern(mustName(t, "00+010+10"))
	b := Intern(mustName(t, "00+010+10+110"))
	if allocs := testing.AllocsPerRun(200, func() {
		if !a.Leq(b) || b.Leq(a) {
			t.Fatal("unexpected order")
		}
	}); allocs != 0 {
		t.Errorf("interned Leq allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if JoinInterned(a, b) != b {
			t.Fatal("join should reuse b")
		}
	}); allocs != 0 {
		t.Errorf("dominated JoinInterned allocates %.1f/op, want 0", allocs)
	}
}

// TestInternOversizedNamesNotPinned: names whose encoding exceeds the
// table's per-record size bound must come back correct but unshared (id 0),
// so wire input cannot pin unbounded memory in the never-evicted table.
func TestInternOversizedNamesNotPinned(t *testing.T) {
	var bits []bitstr.Bits
	for i := 0; i < 600; i++ {
		b := bitstr.Epsilon
		for j := 0; j < 10; j++ {
			if (i>>j)&1 == 1 {
				b = b.Append1()
			} else {
				b = b.Append0()
			}
		}
		bits = append(bits, b)
	}
	huge := name.MaxOf(bits...)
	h := Intern(huge)
	if h == nil || !h.Name().Equal(huge) {
		t.Fatal("oversized name did not intern correctly")
	}
	if h.EncodedLen() <= maxInternedEncoding {
		t.Skipf("test name encodes in %d bytes; not oversized", h.EncodedLen())
	}
	if h.ID() != 0 {
		t.Errorf("oversized record is table-resident (id %d)", h.ID())
	}
	// Equality across unshared records still holds via the canonical bytes.
	if h2 := Intern(huge); !h.Equal(h2) || h == h2 {
		t.Errorf("oversized records must be distinct pointers yet Equal")
	}
	enc := h.AppendEncoding(nil)
	got, _, err := InternEncoded(enc)
	if err != nil || !got.Equal(h) || got.ID() != 0 {
		t.Errorf("InternEncoded of oversized name: %v id=%d err=%v", got, got.ID(), err)
	}
}

// TestInternRotationBoundsResidency is the fork-storm regression test for
// the two-generation intern table: a storm of distinct transient names must
// not grow the resident table past maxInterned, rotation must actually
// evict, and handles that were rotated out must keep comparing exactly like
// their naive name counterparts — including against freshly re-interned
// copies of themselves. It takes ~16 s on one goroutine, so the race
// detector finds nothing in it: it skips under -short, and CI runs it
// without -short and without -race.
func TestInternRotationBoundsResidency(t *testing.T) {
	if testing.Short() {
		t.Skip("a 340 000-fork storm; run without -short")
	}
	// Enough distinct names to force second rotations (the evicting kind) in
	// most shards: eviction needs more than maxInterned names issued.
	const steps = 340000
	base := Intern(mustName(t, "0"))
	rng := rand.New(rand.NewSource(42))
	type sample struct {
		h *Interned
		n name.Name
	}
	var samples []sample
	h := base
	for i := 0; i < steps; i++ {
		// Random walks deep enough that nearly every step mints a distinct
		// name, shallow enough that each append stays cheap.
		if h.EncodedLen() > 64 {
			h = base
		}
		if rng.Intn(2) == 0 {
			h = h.Append0()
		} else {
			h = h.Append1()
		}
		if i%2500 == 0 {
			samples = append(samples, sample{h: h, n: h.Name()})
		}
	}

	resident := InternedResident()
	issued := InternedCount()
	if resident > maxInterned {
		t.Fatalf("resident table %d records, bound is %d", resident, maxInterned)
	}
	if int64(resident) >= issued {
		t.Fatalf("no eviction: %d resident of %d issued — rotation never fired", resident, issued)
	}
	t.Logf("storm of %d forks: %d ids issued, %d resident (bound %d)",
		steps, issued, resident, maxInterned)

	// Every sampled handle — most long since rotated out — must agree with
	// the naive name-level comparison against every other sample, and must
	// compare Equal to a fresh re-intern of its own name even when that
	// re-intern is a different record.
	for i, a := range samples {
		re := Intern(a.n)
		if !re.Equal(a.h) || !a.h.Equal(re) {
			t.Fatalf("sample %d: re-interned copy not Equal to the original handle", i)
		}
		if !a.h.Leq(re) || !re.Leq(a.h) {
			t.Fatalf("sample %d: re-interned copy not Leq-equivalent", i)
		}
		for j, b := range samples {
			if got, want := a.h.Leq(b.h), a.n.Leq(b.n); got != want {
				t.Fatalf("samples %d vs %d: interned Leq = %v, naive = %v", i, j, got, want)
			}
			if got, want := a.h.Equal(b.h), a.n.Equal(b.n); got != want {
				t.Fatalf("samples %d vs %d: interned Equal = %v, naive = %v", i, j, got, want)
			}
			if got, want := a.h.IncomparableTo(b.h), a.n.IncomparableTo(b.n); got != want {
				t.Fatalf("samples %d vs %d: interned IncomparableTo = %v, naive = %v", i, j, got, want)
			}
		}
	}
}

// TestHandleOpsAllocs gates the handle kernel at zero allocations once its
// inputs are interned and its results memoized or cached: a genuine merge
// join, an id reduction, a fork append, encoding into a sized buffer, the
// flat size, and wire ingestion of a known name.
func TestHandleOpsAllocs(t *testing.T) {
	a := Intern(mustName(t, "00+0100+10"))
	b := Intern(mustName(t, "0101+011+11"))
	ids := JoinInterned(a, b)
	enc := ids.AppendEncoding(nil)
	if _, _, err := InternEncoded(enc); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 64)
	ops := map[string]func(){
		"JoinInterned":   func() { _ = JoinInterned(a, b) },
		"Reduce":         func() { _, _ = Reduce(a, ids) },
		"Append0":        func() { _ = ids.Append0() },
		"AppendEncoding": func() { buf = ids.AppendEncoding(buf[:0]) },
		"FlatSize":       func() { _ = ids.FlatSize() },
		"InternEncoded":  func() { _, _, _ = InternEncoded(enc) },
	}
	for op, fn := range ops {
		fn() // warm the memo and the caches
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", op, allocs)
		}
	}
}
