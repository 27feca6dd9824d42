package kvstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"versionstamp/internal/encoding"
)

// Digest and Summaries are the two whole-replica views read off the stripes'
// maintained digest trees. These tests hold them against the stripes
// themselves.

// freshDigest enumerates every stored copy straight off the stripes,
// bypassing the trees, and sorts it by key — the oracle for Digest.
func freshDigest(r *Replica) []encoding.Digest {
	var ds []encoding.Digest
	for i := range r.shards {
		ds = append(ds, stripeDigests(r, i)...)
	}
	slices.SortFunc(ds, func(a, b encoding.Digest) int { return strings.Compare(a.Key, b.Key) })
	return ds
}

func requireDigestMatchesStripes(t *testing.T, what string, r *Replica) {
	t.Helper()
	got, want := r.Digest(), freshDigest(r)
	if len(got) != len(want) {
		t.Fatalf("%s: Digest has %d entries, the stripes %d", what, len(got), len(want))
	}
	for i := range got {
		if i > 0 && got[i-1].Key >= got[i].Key {
			t.Fatalf("%s: Digest unsorted at %d: %q >= %q", what, i, got[i-1].Key, got[i].Key)
		}
		if got[i].Key != want[i].Key || !got[i].Stamp.Equal(want[i].Stamp) {
			t.Fatalf("%s: Digest[%d] = %q %v, the stripe holds %q %v", what, i,
				got[i].Key, got[i].Stamp, want[i].Key, want[i].Stamp)
		}
	}
}

// TestDigestAndSummariesFollowTheStripes drives a seeded Put / Delete / Sync
// sequence over a same-layout pair, asking for Digest along the way so the
// trees behind it are patched rather than freshly built, and checks after
// every step that Digest is key-sorted and equals a fresh enumeration of the
// stripes. Whenever the pair has just synced, their Summaries must be equal;
// a fork alone must not move them, a write must.
func TestDigestAndSummariesFollowTheStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(20021001))
	a := NewReplicaShards("a", 8)
	key := func(i int) string { return fmt.Sprintf("key-%03d", i) }
	for i := 0; i < 300; i++ {
		a.Put(key(i), []byte("v0"))
	}
	b := a.Clone("b")
	pair := [2]*Replica{a, b}
	resolve := KeepBoth([]byte("|"))
	for step := 0; step < 200; step++ {
		r := pair[rng.Intn(2)]
		what := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(10); {
		case op < 5:
			r.Put(key(rng.Intn(400)), []byte(fmt.Sprintf("v%d", step)))
		case op < 8:
			r.Delete(key(rng.Intn(400)))
		default:
			if _, err := Sync(a, b, resolve); err != nil {
				t.Fatal(err)
			}
			if sa, sb := a.Summaries(), b.Summaries(); !slices.Equal(sa, sb) {
				t.Fatalf("%s: summaries differ right after a sync:\n%v\n%v", what, sa, sb)
			}
		}
		requireDigestMatchesStripes(t, what, a)
		requireDigestMatchesStripes(t, what, b)
	}

	if _, err := Sync(a, b, resolve); err != nil {
		t.Fatal(err)
	}
	before := b.Summaries()
	if !slices.Equal(a.Summaries(), before) {
		t.Fatal("summaries differ after the closing sync")
	}
	// A fork moves ids only: every copy stays equivalent, no summary moves.
	_ = a.Clone("c")
	if !slices.Equal(a.Summaries(), before) {
		t.Error("summaries moved on an id-only change")
	}
	// One key's update component moves: so does a summary.
	a.Put(key(0), []byte("edited"))
	if slices.Equal(a.Summaries(), before) {
		t.Error("summaries did not move after a write")
	}
	requireDigestMatchesStripes(t, "after the edit", a)
}

// TestSummariesEquivalentAcrossSync: after a sync, both replicas' stripes
// summarize identically even though their stamps' id components differ, and
// a local write breaks exactly the touched stripe's agreement.
func TestSummariesEquivalentAcrossSync(t *testing.T) {
	a := NewReplica("a")
	for i := 0; i < 200; i++ {
		a.Put(fmt.Sprintf("key-%03d", i), []byte("v"))
	}
	b := a.Clone("b")
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Summaries(), b.Summaries()
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("stripe %d summaries differ after sync", i)
		}
	}

	a.Put("key-000", []byte("edited"))
	touched := ShardIndex("key-000", a.Shards())
	sa = a.Summaries()
	for i := range sa {
		if i == touched && sa[i] == sb[i] {
			t.Errorf("stripe %d summary did not change after write", i)
		}
		if i != touched && sa[i] != sb[i] {
			t.Errorf("stripe %d summary changed without a write", i)
		}
	}
}

// TestSummariesTrackMutations: an empty stripe summarizes as the empty hash,
// a quiet stripe keeps its summary, and a delete moves it.
func TestSummariesTrackMutations(t *testing.T) {
	r := NewReplicaShards("r", 4)
	for i, sum := range r.Summaries() {
		if sum != encoding.RootSummarySeed {
			t.Errorf("empty stripe %d summary = %d, want RootSummarySeed", i, sum)
		}
	}
	r.Put("k", []byte("v"))
	idx := ShardIndex("k", 4)
	afterPut := r.Summaries()[idx]
	if afterPut == encoding.RootSummarySeed {
		t.Error("summary unchanged after Put")
	}
	if again := r.Summaries()[idx]; again != afterPut {
		t.Errorf("quiet stripe summary moved: %d vs %d", again, afterPut)
	}

	// Causality becomes visible in the update name only once a stamp has
	// forked (a sole unforked copy sits at ε, the top update name), so the
	// mutation-tracking check uses the forked shape every synced key has.
	_ = r.Clone("peer")
	forked := r.Summaries()[idx]
	r.Delete("k")
	if r.Summaries()[idx] == forked {
		t.Error("summary unchanged after Delete on a forked copy")
	}
}
