package kvstore

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
)

// pairFromClone seeds a replica with n keys and clones it, so every key has
// a common causal origin on both sides.
func pairFromClone(n int) (*Replica, *Replica) {
	a := NewReplica("a")
	for i := 0; i < n; i++ {
		a.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	return a, a.Clone("b")
}

func entriesFor(r *Replica, keys []string) []encoding.Entry {
	var out []encoding.Entry
	for _, k := range keys {
		v, ok := r.Version(k)
		if !ok {
			continue
		}
		out = append(out, encoding.Entry{Key: k, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp})
	}
	return out
}

// wholeStripe is the range scope of a whole stripe.
var wholeStripe = []TreeRange{{}}

// deltaRound runs a full in-process two-phase round with b as initiator and
// a as responder, stripe by stripe over whole stripes, applying each
// stripe's reply on b.
func deltaRound(t *testing.T, a, b *Replica, resolve Resolver) SyncResult {
	t.Helper()
	var res SyncResult
	for idx, digest := range stripeRuns(t, b) {
		diff, err := a.DiffRanges(digest, idx, wholeStripe)
		if err != nil {
			t.Fatalf("DiffRanges: %v", err)
		}
		entries := entriesFor(b, diff.Need)
		reply, part, err := a.ApplyDeltaRanges(DeltaReply{}, digest, entries, resolve, idx, wholeStripe)
		if err != nil {
			t.Fatalf("ApplyDeltaRanges: %v", err)
		}
		b.ApplyDeltaReply(reply, entries, shippedIn(digest))
		res.Add(part)
	}
	sort.Strings(res.Conflicts)
	return res
}

// stripeRuns returns r's digests stripe by stripe, each in tree order.
func stripeRuns(t testing.TB, r *Replica) [][]encoding.Digest {
	t.Helper()
	out := make([][]encoding.Digest, r.Shards())
	for i := range out {
		tree, err := r.StripeTree(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = tree.RunRange(TreeRange{})
	}
	return out
}

// diffStripes runs DiffRanges over every stripe's whole range, digests[i]
// being the peer's digests of stripe i, and sums the results.
func diffStripes(r *Replica, digests [][]encoding.Digest) (Diff, error) {
	var d Diff
	for i, ds := range digests {
		part, err := r.DiffRanges(ds, i, wholeStripe)
		if err != nil {
			return d, err
		}
		d.Need = append(d.Need, part.Need...)
		d.Equivalent += part.Equivalent
		d.LocalOnly += part.LocalOnly
	}
	sort.Strings(d.Need)
	return d, nil
}

// shippedIn is ApplyDeltaReply's guard for a round that shipped digest.
func shippedIn(digest []encoding.Digest) func(string) (core.Stamp, bool) {
	sent := make(map[string]core.Stamp, len(digest))
	for _, d := range digest {
		sent[d.Key] = d.Stamp
	}
	return func(k string) (core.Stamp, bool) { st, ok := sent[k]; return st, ok }
}

func requireSameContents(t *testing.T, a, b *Replica) {
	t.Helper()
	keys := map[string]bool{}
	for _, k := range a.Keys() {
		keys[k] = true
	}
	for _, k := range b.Keys() {
		keys[k] = true
	}
	for k := range keys {
		va, okA := a.Get(k)
		vb, okB := b.Get(k)
		if okA != okB || !bytes.Equal(va, vb) {
			t.Errorf("key %q: %q/%v vs %q/%v", k, va, okA, vb, okB)
		}
	}
}

func TestDigestSortedAndComplete(t *testing.T) {
	a, _ := pairFromClone(20)
	a.Delete("key-003")
	d := a.Digest()
	if len(d) != 20 {
		t.Fatalf("digest has %d entries, want 20 (tombstones included)", len(d))
	}
	for i := 1; i < len(d); i++ {
		if d[i-1].Key >= d[i].Key {
			t.Fatalf("digest unsorted at %d: %q >= %q", i, d[i-1].Key, d[i].Key)
		}
	}
	total := 0
	for i := 0; i < a.Shards(); i++ {
		ds := stripeTreeRun(t, a, i)
		for _, x := range ds {
			if ShardIndex(x.Key, a.Shards()) != i {
				t.Errorf("stripe %d tree holds foreign key %q", i, x.Key)
			}
		}
		total += len(ds)
	}
	if total != 20 {
		t.Errorf("per-stripe trees cover %d keys, want 20", total)
	}
	if _, err := a.StripeTree(a.Shards()); err == nil {
		t.Error("out-of-range StripeTree accepted")
	}
}

// stripeTreeRun returns the digests of stripe idx, read off its tree.
func stripeTreeRun(t *testing.T, r *Replica, idx int) []encoding.Digest {
	t.Helper()
	tree, err := r.StripeTree(idx)
	if err != nil {
		t.Fatal(err)
	}
	return tree.RunRange(TreeRange{})
}

func TestDiffAgainstClassification(t *testing.T) {
	a, b := pairFromClone(8)
	b.Put("key-000", []byte("newer-on-b")) // b dominates
	a.Put("key-001", []byte("newer-on-a")) // a dominates
	a.Put("key-002", []byte("conc-a"))     // concurrent
	b.Put("key-002", []byte("conc-b"))
	b.Put("only-b", []byte("x")) // unknown to a
	a.Put("only-a", []byte("y")) // unknown to b

	diff, err := diffStripes(a, stripeRuns(t, b))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"key-000": true, "key-002": true, "only-b": true}
	if len(diff.Need) != len(want) {
		t.Fatalf("Need = %v, want keys %v", diff.Need, want)
	}
	for _, k := range diff.Need {
		if !want[k] {
			t.Errorf("unexpected needed key %q", k)
		}
	}
	if diff.Equivalent != 5 {
		t.Errorf("Equivalent = %d, want 5", diff.Equivalent)
	}
	if diff.LocalOnly != 1 {
		t.Errorf("LocalOnly = %d, want 1", diff.LocalOnly)
	}
}

func TestDeltaRoundConvergesDivergedPair(t *testing.T) {
	a, b := pairFromClone(16)
	b.Put("key-000", []byte("newer-on-b"))
	a.Put("key-001", []byte("newer-on-a"))
	a.Put("key-002", []byte("conc-a"))
	b.Put("key-002", []byte("conc-b"))
	b.Put("only-b", []byte("x"))
	a.Put("only-a", []byte("y"))
	a.Delete("key-004")

	res := deltaRound(t, a, b, KeepBoth([]byte("|")))
	if res.Transferred != 2 {
		t.Errorf("Transferred = %d, want 2", res.Transferred)
	}
	if res.Reconciled != 3 { // key-000, key-001, key-004 tombstone
		t.Errorf("Reconciled = %d, want 3", res.Reconciled)
	}
	if res.Merged != 1 {
		t.Errorf("Merged = %d, want 1", res.Merged)
	}
	if res.Pruned != 12 {
		t.Errorf("Pruned = %d, want 12", res.Pruned)
	}
	requireSameContents(t, a, b)
	if _, ok := b.Get("key-004"); ok {
		t.Error("tombstone did not propagate through the delta round")
	}

	// A second round over converged state prunes everything.
	res = deltaRound(t, a, b, KeepBoth([]byte("|")))
	if res.Transferred+res.Reconciled+res.Merged != 0 {
		t.Errorf("converged round moved data: %+v", res)
	}
	if res.Pruned != 18 {
		t.Errorf("converged round pruned %d, want 18", res.Pruned)
	}
}

func TestDeltaConflictSkippedWithoutResolver(t *testing.T) {
	a, b := pairFromClone(4)
	a.Put("key-000", []byte("conc-a"))
	b.Put("key-000", []byte("conc-b"))
	res := deltaRound(t, a, b, nil)
	if len(res.Conflicts) != 1 || res.Conflicts[0] != "key-000" {
		t.Fatalf("Conflicts = %v", res.Conflicts)
	}
	if va, _ := a.Get("key-000"); string(va) != "conc-a" {
		t.Errorf("a's conflicting copy changed: %q", va)
	}
	if vb, _ := b.Get("key-000"); string(vb) != "conc-b" {
		t.Errorf("b's conflicting copy changed: %q", vb)
	}
}

func TestDeltaEquivalentToFullSync(t *testing.T) {
	// The property at the heart of the protocol: a delta round and a full
	// Sync produce identical replica contents from identical starting
	// states, across randomized divergence. Divergence is generated
	// deterministically so the two universes start byte-identical.
	for seed := 0; seed < 8; seed++ {
		buildPair := func() (*Replica, *Replica) {
			a, b := pairFromClone(40)
			rng := seed
			next := func(n int) int { rng = (rng*1103515245 + 12345) & 0x7fffffff; return rng % n }
			for i := 0; i < 40; i++ {
				k := fmt.Sprintf("key-%03d", i)
				switch next(6) {
				case 0:
					a.Put(k, []byte(fmt.Sprintf("a%d", next(100))))
				case 1:
					b.Put(k, []byte(fmt.Sprintf("b%d", next(100))))
				case 2:
					a.Put(k, []byte(fmt.Sprintf("a%d", next(100))))
					b.Put(k, []byte(fmt.Sprintf("b%d", next(100))))
				case 3:
					a.Delete(k)
				}
			}
			return a, b
		}
		a1, b1 := buildPair()
		a2, b2 := buildPair()
		if _, err := Sync(a1, b1, KeepBoth([]byte("|"))); err != nil {
			t.Fatalf("seed %d: full sync: %v", seed, err)
		}
		deltaRound(t, a2, b2, KeepBoth([]byte("|")))
		requireSameContents(t, a2, b2)
		requireSameContents(t, a1, a2)
		requireSameContents(t, b1, b2)
	}
}

func TestDeltaShardScoped(t *testing.T) {
	a, b := pairFromClone(32)
	b.Put("key-000", []byte("newer"))
	of := a.Shards()
	var total SyncResult
	for idx := 0; idx < of; idx++ {
		digest := stripeTreeRun(t, b, idx)
		diff, err := a.DiffRanges(digest, idx, wholeStripe)
		if err != nil {
			t.Fatal(err)
		}
		entries := entriesFor(b, diff.Need)
		reply, res, err := a.ApplyDeltaRanges(DeltaReply{}, digest, entries, nil, idx, wholeStripe)
		if err != nil {
			t.Fatal(err)
		}
		b.ApplyDeltaReply(reply, entries, shippedIn(digest))
		total.Add(res)
	}
	if total.Reconciled != 1 || total.Pruned != 31 {
		t.Errorf("scoped rounds: %+v", total)
	}
	requireSameContents(t, a, b)

	// Foreign keys are rejected in every scoped input, and so is a stripe
	// this replica does not have.
	badDigest := []encoding.Digest{{Key: "key-000", Stamp: core.Seed()}}
	wrong := (ShardIndex("key-000", of) + 1) % of
	if _, err := a.DiffRanges(badDigest, wrong, wholeStripe); err == nil {
		t.Error("DiffRanges accepted a foreign key")
	}
	if _, _, err := a.ApplyDeltaRanges(DeltaReply{}, badDigest, nil, nil, wrong, wholeStripe); err == nil {
		t.Error("ApplyDeltaRanges accepted a foreign digest key")
	}
	if _, err := a.DiffRanges(nil, of, wholeStripe); err == nil {
		t.Error("DiffRanges accepted an out-of-range stripe")
	}
}

// shippedRound is what an initiator shipped in one round: its digests and
// its full entries, sorted by key.
type shippedRound struct {
	digest []encoding.Digest
	full   []encoding.Entry
}

// apply installs reply on b under the round's guard.
func (sr shippedRound) apply(b *Replica, reply DeltaReply) int {
	return b.ApplyDeltaReply(reply, sr.full, shippedIn(sr.digest))
}

// replyFor runs the responder half of a round with b as initiator and a as
// responder over every stripe, returning the reply and what b shipped,
// without applying anything on b.
func replyFor(t *testing.T, a, b *Replica, resolve Resolver) (DeltaReply, shippedRound) {
	t.Helper()
	var sr shippedRound
	var reply DeltaReply
	for idx, ds := range stripeRuns(t, b) {
		diff, err := a.DiffRanges(ds, idx, wholeStripe)
		if err != nil {
			t.Fatal(err)
		}
		entries := entriesFor(b, diff.Need)
		if reply, _, err = a.ApplyDeltaRanges(reply, ds, entries, resolve, idx, wholeStripe); err != nil {
			t.Fatal(err)
		}
		sr.digest = append(sr.digest, ds...)
		sr.full = append(sr.full, entries...)
	}
	sort.Slice(sr.full, func(i, j int) bool { return sr.full[i].Key < sr.full[j].Key })
	return reply, sr
}

func TestApplyDeltaReplySkipsMovedCopies(t *testing.T) {
	a, b := pairFromClone(5)
	a.Put("key-000", []byte("newer-on-a")) // comes back as a full entry
	b.Put("key-001", []byte("newer-on-b")) // shipped in full: comes back as a restamp
	b.Put("key-003", []byte("conc-b"))     // shipped in full and merged: a full entry
	a.Put("key-003", []byte("conc-a"))
	b.Put("key-004", []byte("doomed-on-b")) // shipped in full: a restamp
	// key-c reaches b from a third replica, so b's copy has an update
	// component short of its id, and a has never seen it: shipped in full,
	// it comes back as a restamp.
	c := NewReplica("c")
	c.Put("key-c", []byte("from-c"))
	if _, err := SyncKey(c, b, "key-c", nil); err != nil {
		t.Fatal(err)
	}

	keepBoth := KeepBoth([]byte("|"))
	reply, shipped := replyFor(t, a, b, keepBoth)
	if len(reply.Entries) != 2 || len(reply.Restamps) != 3 {
		t.Fatalf("reply = %d entries, %d restamps; want 2 and 3", len(reply.Entries), len(reply.Restamps))
	}
	// b's copies move while the round is in flight. key-000's and key-c's
	// stamps move with them. The writes to key-001, key-003 and key-004
	// leave their stamps as they were — b's element already owns its whole
	// id until the round's fork lands — so only the values show them.
	stamps := map[string]core.Stamp{}
	for _, k := range []string{"key-001", "key-c", "key-003", "key-004"} {
		v, _ := b.Version(k)
		stamps[k] = v.Stamp
	}
	b.Put("key-000", []byte("raced"))
	b.Put("key-001", []byte("raced-1"))
	b.Put("key-c", []byte("raced-c"))
	b.Put("key-003", []byte("raced-3"))
	b.Delete("key-004")
	for k, st := range stamps {
		v, _ := b.Version(k)
		if moved := !v.Stamp.Equal(st); moved != (k == "key-c") {
			t.Fatalf("%s: stamp %v -> %v after the raced write", k, st, v.Stamp)
		}
	}

	// Only the restamps of key-001 and key-004 apply, and they keep the
	// newer writes: each copy takes the returned fork, updated, so it
	// dominates the shipped value a now holds instead of comparing Equal
	// to it. The moved key-c and the two entries are refused.
	if applied := shipped.apply(b, reply); applied != 2 {
		t.Errorf("applied %d of %d reply copies; want the restamps of key-001 and key-004", applied, reply.Len())
	}
	if v, _ := b.Get("key-000"); string(v) != "raced" {
		t.Errorf("concurrent write clobbered: %q", v)
	}
	if v, _ := b.Get("key-003"); string(v) != "raced-3" {
		t.Errorf("merged entry clobbered a write its stamp could not show: %q", v)
	}
	if v, _ := b.Version("key-c"); string(v.Value) != "raced-c" || v.Stamp.Equal(stamps["key-c"]) {
		t.Errorf("restamp landed on a moved copy: %q under %v", v.Value, v.Stamp)
	}
	for _, d := range reply.Restamps {
		if d.Key == "key-c" {
			continue
		}
		v, _ := b.Version(d.Key)
		va, _ := a.Version(d.Key)
		if !v.Stamp.Equal(d.Stamp.Update()) || core.Compare(v.Stamp, va.Stamp) != core.After {
			t.Errorf("%s under %v; want %v, after a's %v", d.Key, v.Stamp, d.Stamp.Update(), va.Stamp)
		}
	}

	// The next round converges without losing any raced write.
	deltaRound(t, a, b, keepBoth)
	requireSameContents(t, a, b)
	if v, _ := a.Get("key-001"); string(v) != "raced-1" {
		t.Errorf("key-001 after the next round = %q, want %q", v, "raced-1")
	}
	if _, ok := a.Get("key-004"); ok {
		t.Error("key-004's raced delete was lost")
	}
	for k, w := range map[string]string{"key-c": "raced-c", "key-003": "raced-3"} {
		if v, _ := a.Get(k); !bytes.Contains(v, []byte(w)) {
			t.Errorf("%s after the next round = %q; the raced write was lost", k, v)
		}
	}
}

// TestApplyDeltaRangesRestampsOnlyShippedValues: the responder answers a
// copy with a restamp exactly when the outcome keeps the value the peer
// shipped in full — a peer-won transfer or reconcile, a peer tombstone, or a
// byte-identical concurrent pair. Merged, responder-won and digest-only keys
// come back in full. Applying the reply converges the pair.
func TestApplyDeltaRangesRestampsOnlyShippedValues(t *testing.T) {
	a, b := pairFromClone(8)
	b.Put("key-000", []byte("newer-on-b")) // peer won: restamp
	b.Put("only-b", []byte("x"))           // peer-only, transferred: restamp
	a.Put("key-001", []byte("newer-on-a")) // responder won, digest only: entry
	a.Put("key-002", []byte("conc-a"))     // concurrent, merged: entry
	b.Put("key-002", []byte("conc-b"))
	a.Put("key-003", []byte("same")) // concurrent, byte-identical: restamp
	b.Put("key-003", []byte("same"))
	b.Delete("key-004")          // peer tombstone won: restamp
	a.Put("only-a", []byte("y")) // responder-only: entry

	reply, shipped := replyFor(t, a, b, KeepBoth([]byte("|")))
	var restamped, full []string
	for _, d := range reply.Restamps {
		restamped = append(restamped, d.Key)
	}
	for _, e := range reply.Entries {
		full = append(full, e.Key)
	}
	sort.Strings(restamped)
	sort.Strings(full)
	if got, want := fmt.Sprint(restamped), "[key-000 key-003 key-004 only-b]"; got != want {
		t.Errorf("restamps = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(full), "[key-001 key-002 only-a]"; got != want {
		t.Errorf("entries = %s, want %s", got, want)
	}
	for _, d := range reply.Restamps {
		va, _ := a.Version(d.Key)
		if va.Stamp.Equal(d.Stamp) || core.Compare(va.Stamp, d.Stamp) != core.Equal {
			t.Errorf("restamp %q: %v is not the other half of the responder's fork %v", d.Key, d.Stamp, va.Stamp)
		}
	}
	if n := shipped.apply(b, reply); n != reply.Len() {
		t.Errorf("applied %d of %d reply copies", n, reply.Len())
	}
	requireSameContents(t, a, b)
	for _, d := range reply.Restamps {
		if vb, _ := b.Version(d.Key); !vb.Stamp.Equal(d.Stamp) {
			t.Errorf("%q: stamp %v after the restamp, want %v", d.Key, vb.Stamp, d.Stamp)
		}
	}
	if res := deltaRound(t, a, b, nil); res.Transferred+res.Reconciled+res.Merged != 0 {
		t.Errorf("round after the restamps moved data: %+v", res)
	}
}

// TestApplyDeltaReplyRestampsColdCopy: a durable, paged initiator whose
// shipped copy was checkpointed cold before the reply landed faults the
// value in for the restamp's log record, so a crash-reopen brings the key
// back with the shipped value under the new stamp.
func TestApplyDeltaReplyRestampsColdCopy(t *testing.T) {
	dir := t.TempDir()
	b, err := openPaged(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := NewReplicaShards("a", 4)
	b.Put("key-000", []byte("shipped-value"))

	reply, shipped := replyFor(t, a, b, nil)
	if len(reply.Restamps) != 1 || len(reply.Entries) != 0 {
		t.Fatalf("reply = %d entries, %d restamps; want one restamp", len(reply.Entries), len(reply.Restamps))
	}
	if err := b.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, hot := b.shardFor("key-000").data["key-000"]; hot {
		t.Fatal("the shipped copy is still hot after a paged checkpoint")
	}
	if n := shipped.apply(b, reply); n != 1 {
		t.Fatalf("applied %d reply copies, want 1", n)
	}
	if err := b.PersistErr(); err != nil {
		t.Fatal(err)
	}
	newStamp := reply.Restamps[0].Stamp
	if err := b.Abandon(); err != nil {
		t.Fatal(err)
	}
	b2, err := openPaged(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	v, ok := b2.Version("key-000")
	if !ok || v.Deleted || string(v.Value) != "shipped-value" || !v.Stamp.Equal(newStamp) {
		t.Fatalf("after reopen: %+v, %v; want %q under %v", v, ok, "shipped-value", newStamp)
	}
	if va, _ := a.Version("key-000"); core.Compare(v.Stamp, va.Stamp) != core.Equal {
		t.Errorf("reopened stamp %v does not match the responder's %v", v.Stamp, va.Stamp)
	}
}

func TestBinarySnapshotRoundTrip(t *testing.T) {
	a, _ := pairFromClone(24)
	a.Delete("key-007")
	bin, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bin[0] != binarySnapshotVersion {
		t.Fatalf("leading byte 0x%02x", bin[0])
	}
	restored, err := Restore(bin)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	requireSameContents(t, a, restored)
	if restored.Label() != a.Label() || restored.Shards() != a.Shards() {
		t.Errorf("label/shards lost: %q/%d", restored.Label(), restored.Shards())
	}
	if _, ok := restored.Get("key-007"); ok {
		t.Error("tombstone lost in round trip")
	}
	// Stamps survive verbatim.
	for _, k := range a.Keys() {
		va, _ := a.Version(k)
		vr, _ := restored.Version(k)
		if !va.Stamp.Equal(vr.Stamp) {
			t.Errorf("stamp of %q changed", k)
		}
	}

	if _, err := Restore(bin[:len(bin)/2]); err == nil {
		t.Error("truncated snapshot accepted")
	}
}
