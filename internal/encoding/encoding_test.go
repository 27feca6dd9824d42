package encoding

import (
	"bytes"
	"math/rand"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/trie"
)

// randomStamps builds a reachable frontier of stamps for round-trip tests.
func randomStamps(rng *rand.Rand, ops int) []core.Stamp {
	frontier := []core.Stamp{core.Seed()}
	for k := 0; k < ops; k++ {
		switch op := rng.Intn(3); {
		case op == 0:
			i := rng.Intn(len(frontier))
			frontier[i] = frontier[i].Update()
		case op == 1 || len(frontier) == 1:
			i := rng.Intn(len(frontier))
			a, b := frontier[i].Fork()
			frontier[i] = a
			frontier = append(frontier, b)
		default:
			i, j := rng.Intn(len(frontier)), rng.Intn(len(frontier))
			if i == j {
				continue
			}
			joined, err := core.JoinNoReduce(frontier[i], frontier[j])
			if err != nil {
				continue
			}
			frontier[i] = joined
			frontier = append(frontier[:j], frontier[j+1:]...)
		}
	}
	return frontier
}

func TestJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20; iter++ {
		for _, s := range randomStamps(rng, 60) {
			data, err := MarshalJSON(s)
			if err != nil {
				t.Fatalf("MarshalJSON(%v): %v", s, err)
			}
			back, err := UnmarshalJSON(data)
			if err != nil {
				t.Fatalf("UnmarshalJSON(%s): %v", data, err)
			}
			if !back.Equal(s) {
				t.Fatalf("JSON round trip %v -> %v", s, back)
			}
		}
	}
}

func TestJSONShape(t *testing.T) {
	data, err := MarshalJSON(core.MustParse("[1|0+1]"))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"update":"1","id":"0+1"}`
	if string(data) != want {
		t.Errorf("JSON = %s, want %s", data, want)
	}
}

func TestJSONRejects(t *testing.T) {
	bad := []string{
		`{`,
		`{"update":"x","id":"0"}`,
		`{"update":"1","id":"0+01"}`, // id not an antichain
		`{"update":"1","id":"0"}`,    // I1 violated
	}
	for _, in := range bad {
		if _, err := UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("UnmarshalJSON(%s) accepted invalid input", in)
		}
	}
}

func TestCompactRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 20; iter++ {
		for _, s := range randomStamps(rng, 60) {
			data := MarshalCompact(s)
			back, used, err := UnmarshalCompact(data)
			if err != nil {
				t.Fatalf("UnmarshalCompact(%v): %v", s, err)
			}
			if used != len(data) {
				t.Fatalf("consumed %d of %d bytes", used, len(data))
			}
			if !back.Equal(s) {
				t.Fatalf("compact round trip %v -> %v", s, back)
			}
		}
	}
}

func TestCompactRejects(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},       // wrong format byte
		{0x02},       // truncated
		{0x02, 0x01}, // truncated trie
	}
	for _, data := range cases {
		if _, _, err := UnmarshalCompact(data); err == nil {
			t.Errorf("UnmarshalCompact(%x) accepted invalid input", data)
		}
	}
}

func TestMeasure(t *testing.T) {
	s := core.MustParse("[1|0+1]")
	sz := Measure(s)
	if sz.Flat <= 0 || sz.Compact <= 0 || sz.Text <= 0 || sz.JSON <= 0 {
		t.Fatalf("Measure = %+v", sz)
	}
	if sz.Text != len("[1|0+1]") {
		t.Errorf("Text size = %d", sz.Text)
	}
	if sz.JSON <= sz.Text {
		t.Errorf("JSON (%d) should exceed bare text (%d)", sz.JSON, sz.Text)
	}
}

func TestCompactBeatsFlatOnBushyStamps(t *testing.T) {
	// A wide full-level id is the compact format's best case.
	s := core.MustParse("[ε|000+001+010+011+100+101+110+111]")
	sz := Measure(s)
	if sz.Compact >= sz.Flat {
		t.Errorf("compact (%d B) not smaller than flat (%d B) for %v", sz.Compact, sz.Flat, s)
	}
}

// TestCompactBytesMatchTrieReference is the wire-stability property of the
// interned kernel: AppendCompact serves each component's cached intern key,
// and those bytes must be identical to encoding the component tries directly
// (the pre-interning construction). Digest and entry frames and snapshots
// all embed this format, so byte equality here pins the whole wire surface.
func TestCompactBytesMatchTrieReference(t *testing.T) {
	reference := func(s core.Stamp) []byte {
		out := []byte{0x02} // compactFormat
		out = append(out, trie.FromName(s.UpdateName()).Encode()...)
		return append(out, trie.FromName(s.IDName()).Encode()...)
	}
	rng := rand.New(rand.NewSource(5))
	frontier := []core.Stamp{core.Seed()}
	check := func(s core.Stamp) {
		t.Helper()
		got := MarshalCompact(s)
		want := reference(s)
		if !bytes.Equal(got, want) {
			t.Fatalf("MarshalCompact(%v) = % x, trie reference % x", s, got, want)
		}
		back, used, err := UnmarshalCompact(got)
		if err != nil || used != len(got) || !back.Equal(s) {
			t.Fatalf("round trip of %v: %v (used %d) err %v", s, back, used, err)
		}
	}
	for k := 0; k < 300; k++ {
		switch op := rng.Intn(3); {
		case op == 0:
			i := rng.Intn(len(frontier))
			frontier[i] = frontier[i].Update()
		case op == 1 || len(frontier) == 1:
			i := rng.Intn(len(frontier))
			a, b := frontier[i].Fork()
			frontier[i] = a
			frontier = append(frontier, b)
		default:
			i, j := rng.Intn(len(frontier)), rng.Intn(len(frontier))
			if i == j {
				continue
			}
			if joined, err := core.Join(frontier[i], frontier[j]); err == nil {
				frontier[i] = joined
				frontier = append(frontier[:j], frontier[j+1:]...)
			}
		}
		for _, s := range frontier {
			check(s)
		}
	}
}

// TestAppendCompactAllocationFree: marshaling an interned stamp into a
// pre-sized buffer must not allocate — the per-digest cost of every wire
// frame build.
func TestAppendCompactAllocationFree(t *testing.T) {
	s := core.Seed().Update()
	a, _ := s.Fork()
	buf := make([]byte, 0, 64)
	if allocs := testing.AllocsPerRun(500, func() {
		buf = AppendCompact(buf[:0], a)
	}); allocs != 0 {
		t.Errorf("AppendCompact allocates %.1f/op, want 0", allocs)
	}
}
