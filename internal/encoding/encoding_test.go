package encoding

import (
	"math/rand"
	"testing"

	"versionstamp/internal/core"
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
