package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"versionstamp/internal/storage/wal"
)

// openPaged opens a paged, group-committed durable replica over dir — the
// memory-bounded configuration the paging machinery exists for.
func openPaged(dir string, shards int) (*Replica, error) {
	be, err := wal.Open(dir, wal.Options{GroupCommit: true})
	if err != nil {
		return nil, err
	}
	r, err := OpenBackendPaged(be, "paged", shards, 0)
	if err != nil {
		_ = be.Close()
		return nil, err
	}
	return r, nil
}

func TestPagedCheckpointDropsValues(t *testing.T) {
	dir := t.TempDir()
	r, err := openPaged(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%03d", i)
		v := []byte(fmt.Sprintf("value-%03d", i))
		want[k] = v
		r.Put(k, v)
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%03d", i)
		r.Delete(k)
		delete(want, k)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// After a checkpoint every stripe's state lives in the cold index; the
	// overlays hold no value bytes at all.
	for i := range r.shards {
		sh := &r.shards[i]
		if len(sh.over) != 0 {
			t.Fatalf("stripe %d overlay holds %d entries after checkpoint", i, len(sh.over))
		}
		if sh.cold == nil {
			t.Fatalf("stripe %d has no cold index after checkpoint", i)
		}
	}
	if got := r.TombstonesLive(); got != 20 {
		t.Fatalf("TombstonesLive = %d, want 20", got)
	}
	// Reads fault value bytes back in through the page cache.
	for k, v := range want {
		got, ok := r.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%q) = %q, %v after checkpoint", k, got, ok)
		}
	}
	if st := r.CacheStats(); st.Misses == 0 {
		t.Fatalf("cold reads did not touch the page cache: %+v", st)
	}
	if err := r.PersistErr(); err != nil {
		t.Fatalf("PersistErr = %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPagedReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := openPaged(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		r.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%03d", i)))
	}
	r.Delete("key-007")
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the hot overlay and the log tail.
	r.Put("key-001", []byte("overwritten"))
	r.Put("late", []byte("tail"))
	stamp7, ok := r.Version("key-007")
	if !ok || !stamp7.Deleted {
		t.Fatalf("Version(key-007) = %+v, %v", stamp7, ok)
	}
	// Crash-stop: no closing checkpoint, reopen replays the tail over the
	// cold index.
	if err := r.Abandon(); err != nil {
		t.Fatal(err)
	}
	r2, err := openPaged(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if n := r2.Len(); n != 100 { // 100 puts - 1 delete + 1 late
		t.Fatalf("Len after reopen = %d, want 100", n)
	}
	if got, ok := r2.Get("key-001"); !ok || string(got) != "overwritten" {
		t.Fatalf("Get(key-001) = %q, %v", got, ok)
	}
	if got, ok := r2.Get("key-042"); !ok || string(got) != "v042" {
		t.Fatalf("Get(key-042) = %q, %v", got, ok)
	}
	if got, ok := r2.Get("late"); !ok || string(got) != "tail" {
		t.Fatalf("Get(late) = %q, %v", got, ok)
	}
	v7, ok := r2.Version("key-007")
	if !ok || !v7.Deleted || !v7.Stamp.Equal(stamp7.Stamp) {
		t.Fatalf("tombstone lost on reopen: %+v, %v (want stamp %v)", v7, ok, stamp7.Stamp)
	}
	if got := r2.TombstonesLive(); got != 1 {
		t.Fatalf("TombstonesLive after reopen = %d, want 1", got)
	}
}

func TestPagedSyncConverges(t *testing.T) {
	dir := t.TempDir()
	a, err := openPaged(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < 64; i++ {
		a.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%03d", i)))
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b := NewReplicaShards("b", 8)
	res, err := Sync(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred != 64 {
		t.Fatalf("first sync = %+v", res)
	}
	// A second sync over the converged pair must take the metadata-only fast
	// path: stamps are causally equal forked pairs, so no cold value needs
	// faulting and nothing moves.
	misses := a.CacheStats().Misses
	res, err = Sync(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred+res.Reconciled+res.Merged+res.Pruned != 0 || len(res.Conflicts) != 0 {
		t.Fatalf("idle sync moved data: %+v", res)
	}
	if after := a.CacheStats().Misses; after != misses {
		t.Fatalf("idle sync faulted %d cold values", after-misses)
	}
	// Divergence after the checkpoint converges through promotion.
	b.Put("key-000", []byte("newer"))
	if _, err := Sync(a, b, nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Get("key-000"); !ok || string(got) != "newer" {
		t.Fatalf("a[key-000] = %q, %v", got, ok)
	}
}

func TestPagedDiscardTombstones(t *testing.T) {
	dir := t.TempDir()
	r, err := openPaged(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.Put("gone", []byte("v"))
	r.Put("kept", []byte("v"))
	r.Delete("gone")
	tombs := r.Tombstones(0, nil)
	if len(tombs) != 1 {
		t.Fatalf("Tombstones = %v", tombs)
	}
	// A reused destination is cleared first: only the ledger comes back.
	if got := r.Tombstones(0, map[string]uint64{"other": 1}); len(got) != 1 || got["gone"] != tombs["gone"] {
		t.Fatalf("Tombstones into a used map = %v, want %v", got, tombs)
	}
	// Stale evidence: the tombstone was re-established after the epoch the
	// caller proved propagation for — never discard.
	if n := r.DiscardTombstones(0, map[string]uint64{"gone": tombs["gone"] - 1}); n != 0 {
		t.Fatalf("discard with stale epoch dropped %d tombstones", n)
	}
	// A revived key must never be discarded even with a matching epoch.
	if n := r.DiscardTombstones(0, map[string]uint64{"kept": tombs["gone"]}); n != 0 {
		t.Fatalf("discard of a live key dropped %d entries", n)
	}
	if n := r.DiscardTombstones(0, tombs); n != 1 {
		t.Fatalf("discard = %d, want 1", n)
	}
	if got := r.TombstonesLive(); got != 0 {
		t.Fatalf("TombstonesLive = %d after discard", got)
	}
	if _, ok := r.Version("gone"); ok {
		t.Fatal("discarded tombstone still has stored state")
	}
	if keys := r.Keys(); len(keys) != 1 || keys[0] != "kept" {
		t.Fatalf("Keys = %v", keys)
	}
	// The discard survives checkpoint + reopen.
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := openPaged(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Version("gone"); ok {
		t.Fatal("discarded tombstone resurrected on reopen")
	}
	if got := r2.TombstonesLive(); got != 0 {
		t.Fatalf("TombstonesLive after reopen = %d", got)
	}
}

func TestPagedDiscardColdTombstone(t *testing.T) {
	dir := t.TempDir()
	r, err := openPaged(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Put("k", []byte("v"))
	r.Delete("k")
	if err := r.Checkpoint(); err != nil { // tombstone now cold
		t.Fatal(err)
	}
	tombs := r.Tombstones(0, nil)
	if n := r.DiscardTombstones(0, tombs); n != 1 {
		t.Fatalf("discard = %d, want 1", n)
	}
	if _, ok := r.Version("k"); ok {
		t.Fatal("cold tombstone still visible after discard")
	}
	if n := r.Len(); n != 0 {
		t.Fatalf("Len = %d", n)
	}
	// Checkpoint rewrites the stripe without the dropped entry.
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cs := r.shards[0].cold; cs != nil && cs.find("k") >= 0 {
		t.Fatal("dropped entry survived the checkpoint rewrite")
	}
}

func TestPagedSnapshotAndClone(t *testing.T) {
	dir := t.TempDir()
	r, err := openPaged(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 50; i++ {
		r.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%03d", i)))
	}
	r.Delete("key-013")
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got := storedCopies(r)
	if len(got) != 50 || !got["key-013"].Deleted {
		t.Fatalf("%d stored copies, key-013 %+v; want 50 and a tombstone", len(got), got["key-013"])
	}
	if v := got["key-025"]; v.Deleted || string(v.Value) != "v025" {
		t.Fatalf("cold copy of key-025 = %+v", v)
	}
	c := r.Clone("c")
	if c.Len() != 49 {
		t.Fatalf("clone Len = %d", c.Len())
	}
	if v, ok := c.Version("key-013"); !ok || !v.Deleted {
		t.Fatalf("clone lost the tombstone: %+v, %v", v, ok)
	}
}

// TestMetaAgreesWithVersion: Meta reports the stamp, tombstone flag and
// presence Version does — for hot, cold, hot-over-cold, tombstoned,
// discarded and missing keys — and reads no value: a paged replica's cache
// sees no miss from it.
func TestMetaAgreesWithVersion(t *testing.T) {
	r, err := openPaged(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var keys []string
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("key-%03d", i)
		keys = append(keys, k)
		r.Put(k, []byte(fmt.Sprintf("value-%03d", i)))
	}
	for i := 0; i < 120; i += 10 {
		r.Delete(keys[i]) // cold tombstones after the checkpoint
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 120; i += 10 {
		r.Put(keys[i], []byte("hot again")) // hot copies shadowing cold ones
	}
	for i := 2; i < 120; i += 10 {
		r.Delete(keys[i]) // hot tombstones over cold values
	}
	r.Put("hot-only", []byte("never checkpointed"))
	keys = append(keys, "hot-only", "missing")
	discarded := 0
	for s := 0; s < r.Shards(); s++ {
		discarded += r.DiscardTombstones(s, r.Tombstones(s, nil))
	}
	if discarded == 0 {
		t.Fatal("no tombstone was discarded; the test covers nothing")
	}

	misses := r.CacheStats().Misses
	metas := make([]Versioned, len(keys))
	present := make([]bool, len(keys))
	for i, k := range keys {
		metas[i], present[i] = r.Meta(k)
	}
	if got := r.CacheStats().Misses; got != misses {
		t.Fatalf("Meta caused %d page-cache misses", got-misses)
	}
	for i, k := range keys {
		v, ok := r.Version(k)
		m := metas[i]
		if present[i] != ok || m.Deleted != v.Deleted || !m.Stamp.Equal(v.Stamp) || m.Value != nil {
			t.Errorf("%s: Meta = (%v, deleted %v, %v, %d value bytes), Version = (%v, deleted %v, %v)",
				k, present[i], m.Deleted, m.Stamp, len(m.Value), ok, v.Deleted, v.Stamp)
		}
	}
}

// TestPagedColdGetAllocs is the counted gate of the paged read path: once
// the page cache is full, a Get of a cold key that misses allocates exactly
// one buffer, the value the WAL reads, and a Get that hits allocates
// nothing.
func TestPagedColdGetAllocs(t *testing.T) {
	be, err := wal.Open(t.TempDir(), wal.Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenBackendPaged(be, "paged", 4, 16<<10) // 16 values per cache shard
	if err != nil {
		_ = be.Close()
		t.Fatal(err)
	}
	defer r.Close()
	keys := make([]string, 2000)
	value := make([]byte, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
		r.Put(keys[i], value)
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	i := 0
	get := func() {
		if v, ok := r.Get(keys[i%len(keys)]); !ok || len(v) != len(value) {
			t.Fatalf("Get(%q) = %d bytes, %v", keys[i%len(keys)], len(v), ok)
		}
		i++
	}
	for i < 2*len(keys) {
		get() // fills the cache and sizes its maps
	}
	before := r.CacheStats()
	miss := testing.AllocsPerRun(500, get)
	st := r.CacheStats()
	if st.Hits != before.Hits || st.Misses-before.Misses != 501 {
		t.Fatalf("the cold loop hit the cache: %+v, then %+v", before, st)
	}
	hot := keys[(i-1)%len(keys)]
	hit := testing.AllocsPerRun(500, func() {
		if _, ok := r.Get(hot); !ok {
			t.Fatalf("Get(%q) found nothing", hot)
		}
	})
	if got := r.CacheStats(); got.Misses != st.Misses {
		t.Fatalf("the hit loop missed: %+v", got)
	}
	if err := r.PersistErr(); err != nil {
		t.Fatal(err)
	}
	t.Logf("cold Get: miss %.2f allocs, hit %.2f", miss, hit)
	if miss != 1 {
		t.Errorf("a cold Get that misses allocates %.2f/op, want 1 (its value)", miss)
	}
	if hit != 0 {
		t.Errorf("a cold Get that hits allocates %.2f/op, want 0", hit)
	}
}
