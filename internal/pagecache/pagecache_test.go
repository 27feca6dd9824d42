package pagecache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func key(shard int, off int64) Key { return Key{Shard: shard, Name: strconv.FormatInt(off, 10)} }

func TestGetFillsOnceThenHits(t *testing.T) {
	c := New(1 << 20)
	fills := 0
	fill := func() ([]byte, error) { fills++; return []byte("value"), nil }
	for i := 0; i < 3; i++ {
		buf, err := c.Get(key(0, 42), fill)
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		if string(buf) != "value" {
			t.Fatalf("got %q", buf)
		}
	}
	if fills != 1 {
		t.Fatalf("fill ran %d times, want 1", fills)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss", st)
	}
	if st.Bytes != 5 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 5 bytes / 1 entry", st)
	}
}

func TestLookupProbesWithoutFill(t *testing.T) {
	c := New(1 << 20)
	if _, ok := c.Lookup(key(0, 1)); ok {
		t.Fatal("hit on an empty cache")
	}
	if st := c.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("lookup miss touched the counters: %+v", st)
	}
	c.Get(key(0, 1), func() ([]byte, error) { return []byte("v"), nil })
	buf, ok := c.Lookup(key(0, 1))
	if !ok || string(buf) != "v" {
		t.Fatalf("lookup = %q, %v", buf, ok)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestFillErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	if _, err := c.Get(key(0, 1), func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed fill must not poison the key: the next Get refills.
	buf, err := c.Get(key(0, 1), func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(buf) != "ok" {
		t.Fatalf("refill = %q, %v", buf, err)
	}
}

func TestEvictionUnderBudget(t *testing.T) {
	// Budget of numShards*8 gives each cache shard 8 bytes: two 4-byte
	// entries fit, the third evicts the coldest.
	c := New(numShards * 8)
	// All keys with the same hash shard: find three that collide.
	var ks []Key
	for off := int64(0); len(ks) < 3; off++ {
		k := key(0, off)
		if shardOf(k) == shardOf(key(0, 0)) {
			ks = append(ks, k)
		}
	}
	for _, k := range ks {
		c.Get(k, func() ([]byte, error) { return []byte("abcd"), nil })
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// Coldest (first) key is gone; the two recent ones remain.
	if _, ok := c.Peek(ks[0]); ok {
		t.Fatal("coldest entry survived eviction")
	}
	if _, ok := c.Peek(ks[2]); !ok {
		t.Fatal("hottest entry evicted")
	}
}

func TestLRURecencyOrder(t *testing.T) {
	c := New(numShards * 8)
	var ks []Key
	for off := int64(0); len(ks) < 3; off++ {
		k := key(0, off)
		if shardOf(k) == shardOf(key(0, 0)) {
			ks = append(ks, k)
		}
	}
	fill := func(s string) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(s), nil }
	}
	c.Get(ks[0], fill("aaaa"))
	c.Get(ks[1], fill("bbbb"))
	c.Get(ks[0], fill("aaaa")) // touch ks[0]: ks[1] is now coldest
	c.Get(ks[2], fill("cccc")) // evicts ks[1]
	if _, ok := c.Peek(ks[1]); ok {
		t.Fatal("expected ks[1] evicted (coldest after touch)")
	}
	if _, ok := c.Peek(ks[0]); !ok {
		t.Fatal("touched entry was evicted")
	}
}

func TestOversizeBufferNotAdmitted(t *testing.T) {
	c := New(numShards * 8)
	big := make([]byte, 64)
	buf, err := c.Get(key(0, 9), func() ([]byte, error) { return big, nil })
	if err != nil || len(buf) != 64 {
		t.Fatalf("get = %d bytes, %v", len(buf), err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize buffer admitted: %+v", st)
	}
}

func TestSingleflightConcurrentFills(t *testing.T) {
	c := New(1 << 20)
	var fills atomic.Int64
	release := make(chan struct{})
	const readers = 16
	var wg sync.WaitGroup
	bufs := make([][]byte, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, err := c.Get(key(3, 7), func() ([]byte, error) {
				fills.Add(1)
				<-release
				return []byte("shared"), nil
			})
			if err != nil {
				t.Errorf("get: %v", err)
			}
			bufs[i] = buf
		}(i)
	}
	close(release)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		// Readers that arrive after the fill completes may still miss the
		// inflight entry and hit the cache instead; more than one actual
		// fill means singleflight failed.
		t.Fatalf("fill ran %d times, want 1", n)
	}
	for i, buf := range bufs {
		if string(buf) != "shared" {
			t.Fatalf("reader %d got %q", i, buf)
		}
	}
}

func TestInvalidateShard(t *testing.T) {
	c := New(1 << 20)
	for off := int64(0); off < 10; off++ {
		for shard := 0; shard < 2; shard++ {
			k := key(shard, off)
			c.Get(k, func() ([]byte, error) { return []byte(fmt.Sprintf("%d/%d", shard, off)), nil })
		}
	}
	before := c.Stats()
	if before.Entries != 20 {
		t.Fatalf("entries = %d, want 20", before.Entries)
	}
	c.InvalidateShard(0)
	after := c.Stats()
	if after.Entries != 10 {
		t.Fatalf("entries after invalidate = %d, want 10", after.Entries)
	}
	for off := int64(0); off < 10; off++ {
		if _, ok := c.Peek(key(0, off)); ok {
			t.Fatalf("shard 0 off %d survived invalidation", off)
		}
		if _, ok := c.Peek(key(1, off)); !ok {
			t.Fatalf("shard 1 off %d dropped by invalidation", off)
		}
	}
	if after.Bytes <= 0 || after.Bytes >= before.Bytes {
		t.Fatalf("bytes accounting off: before %d after %d", before.Bytes, after.Bytes)
	}
}

func TestGenDistinguishesKeys(t *testing.T) {
	c := New(1 << 20)
	old := Key{Shard: 0, Gen: 1, Name: "5"}
	neu := Key{Shard: 0, Gen: 2, Name: "5"}
	c.Get(old, func() ([]byte, error) { return []byte("old"), nil })
	buf, err := c.Get(neu, func() ([]byte, error) { return []byte("new"), nil })
	if err != nil || string(buf) != "new" {
		t.Fatalf("new gen read = %q, %v", buf, err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	c := New(4 << 10)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := key(w%4, int64(i%50))
				buf, err := c.Get(k, func() ([]byte, error) {
					return []byte(fmt.Sprintf("%d:%s", k.Shard, k.Name)), nil
				})
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				want := fmt.Sprintf("%d:%s", k.Shard, k.Name)
				if string(buf) != want {
					t.Errorf("got %q want %q", buf, want)
					return
				}
				if i%100 == 0 {
					c.InvalidateShard(w % 4)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Fatalf("negative accounting: %+v", st)
	}
}

// TestSingleflightErrorsAndRecycling: every reader blocked on a fill gets
// that fill's result, its error included, and the fill runs once. A failed
// fill is not cached, so the next Get fills again. The loop alternates
// failing and succeeding shared fills on one key, so each round runs on the
// fill record the round before put back on the shard's free list.
func TestSingleflightErrorsAndRecycling(t *testing.T) {
	c := New(1 << 20)
	k := key(3, 7)
	sh := &c.shards[shardOf(k)]
	const readers = 8
	var first *fillRec
	for round := 0; round < 40; round++ {
		fail := round%2 == 0
		boom := fmt.Errorf("boom %d", round)
		value := []byte(fmt.Sprintf("value %d", round))
		var fills atomic.Int64
		release := make(chan struct{})
		fill := func() ([]byte, error) {
			fills.Add(1)
			<-release
			if fail {
				return nil, boom
			}
			return value, nil
		}
		var wg sync.WaitGroup
		results := make([][]byte, readers)
		errs := make([]error, readers)
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = c.Get(k, fill)
			}(i)
		}
		// Release the fill only once every other reader waits on it: a
		// reader arriving after a failed fill would run a fill of its own.
		var rec *fillRec
		for {
			sh.mu.Lock()
			f := sh.inflight[k]
			waiting := f != nil && f.waiters == readers-1
			sh.mu.Unlock()
			if waiting {
				rec = f
				break
			}
			runtime.Gosched()
		}
		close(release)
		wg.Wait()
		if n := fills.Load(); n != 1 {
			t.Fatalf("round %d: fill ran %d times, want 1", round, n)
		}
		if first == nil {
			first = rec
		} else if rec != first {
			t.Fatalf("round %d: fill record not recycled", round)
		}
		for i := 0; i < readers; i++ {
			if fail {
				if errs[i] != boom || results[i] != nil {
					t.Fatalf("round %d reader %d: got %q, %v; want the fill's error", round, i, results[i], errs[i])
				}
			} else if errs[i] != nil || &results[i][0] != &value[0] {
				t.Fatalf("round %d reader %d: got %q, %v; want the fill's buffer", round, i, results[i], errs[i])
			}
		}
		if _, ok := c.Peek(k); ok == fail {
			t.Fatalf("round %d: cached = %v after a fill that failed = %v", round, ok, fail)
		}
		if fail {
			// Nothing was cached: the next Get fills again.
			buf, err := c.Get(k, func() ([]byte, error) { fills.Add(1); return value, nil })
			if err != nil || fills.Load() != 2 || &buf[0] != &value[0] {
				t.Fatalf("round %d: Get after a failed fill = %q, %v after %d fills", round, buf, err, fills.Load())
			}
		}
		c.InvalidateShard(k.Shard)
	}
	if sh.free != first || first.next != nil {
		t.Fatalf("free list starts at %p, want only the recycled record %p", sh.free, first)
	}
	if !cleared(first) {
		t.Fatalf("the free record was not cleared: %+v", *first)
	}
}

// cleared reports whether a fill record on the free list holds nothing of
// the fill it served.
func cleared(f *fillRec) bool {
	return f.buf == nil && f.err == nil && !f.done && f.waiters == 0
}

// TestCacheMissAllocs is the counted gate of the fault path: once the cache
// is full, a miss whose fill returns a buffer it already has allocates
// nothing (its fill record comes off the shard's free list, its LRU node is
// the one it evicts), and a hit allocates nothing either.
func TestCacheMissAllocs(t *testing.T) {
	c := New(numShards * 256) // 8 entries of 32 bytes per cache shard
	keys := make([]Key, 4096)
	for i := range keys {
		keys[i] = key(i%4, int64(i))
	}
	value := make([]byte, 32)
	fill := func() ([]byte, error) { return value, nil }
	i := 0
	miss := func() {
		if _, err := c.Get(keys[i%len(keys)], fill); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 2*len(keys) {
		miss() // fills the cache and sizes its maps
	}
	before := c.Stats()
	missAllocs := testing.AllocsPerRun(2000, miss)
	st := c.Stats()
	if st.Hits != before.Hits || st.Misses-before.Misses != 2001 {
		t.Fatalf("the miss loop hit the cache: %+v, then %+v", before, st)
	}
	hit := keys[(i-1)%len(keys)]
	hitAllocs := testing.AllocsPerRun(2000, func() {
		if _, err := c.Get(hit, fill); err != nil {
			t.Fatal(err)
		}
	})
	if got := c.Stats(); got.Misses != st.Misses {
		t.Fatalf("the hit loop missed: %+v", got)
	}
	t.Logf("full cache: miss %.2f allocs, hit %.2f", missAllocs, hitAllocs)
	if missAllocs != 0 {
		t.Errorf("a miss allocates %.2f/op beyond its fill, want 0", missAllocs)
	}
	if hitAllocs != 0 {
		t.Errorf("a hit allocates %.2f/op, want 0", hitAllocs)
	}
}

// modelEntry is one entry of the reference LRU: the key and the very buffer
// the cache must return for it.
type modelEntry struct {
	key Key
	buf []byte
}

// lruModel is the naive reference the cache is checked against: per cache
// shard a slice in recency order (most recent first) and a byte count, with
// the same shardOf and the same budget slices as the cache.
type lruModel struct {
	budget                  int64
	shards                  [numShards][]modelEntry
	bytes                   [numShards]int64
	hits, misses, evictions int64
}

func (m *lruModel) find(k Key) (int, int) {
	s := shardOf(k)
	for i, e := range m.shards[s] {
		if e.key == k {
			return s, i
		}
	}
	return s, -1
}

// touch moves entry i of shard s to the front and returns its buffer.
func (m *lruModel) touch(s, i int) []byte {
	e := m.shards[s][i]
	copy(m.shards[s][1:i+1], m.shards[s][:i])
	m.shards[s][0] = e
	return e.buf
}

func (m *lruModel) get(k Key, buf []byte, err error) ([]byte, error) {
	s, i := m.find(k)
	if i >= 0 {
		m.hits++
		return m.touch(s, i), nil
	}
	m.misses++
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) <= m.budget {
		for m.bytes[s]+int64(len(buf)) > m.budget && len(m.shards[s]) > 0 {
			last := len(m.shards[s]) - 1
			m.bytes[s] -= int64(len(m.shards[s][last].buf))
			m.shards[s] = m.shards[s][:last]
			m.evictions++
		}
		m.shards[s] = append([]modelEntry{{k, buf}}, m.shards[s]...)
		m.bytes[s] += int64(len(buf))
	}
	return buf, nil
}

func (m *lruModel) lookup(k Key) ([]byte, bool) {
	s, i := m.find(k)
	if i < 0 {
		return nil, false
	}
	m.hits++
	return m.touch(s, i), true
}

func (m *lruModel) invalidate(shard int) {
	for s := range m.shards {
		kept := m.shards[s][:0]
		for _, e := range m.shards[s] {
			if e.key.Shard == shard {
				m.bytes[s] -= int64(len(e.buf))
			} else {
				kept = append(kept, e)
			}
		}
		m.shards[s] = kept
	}
}

// sameBuf reports whether a and b are the same buffer, not merely equal
// bytes: the cache hands out the slice it holds, never a copy.
func sameBuf(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// check compares the cache with the model: every shard's entries in
// recency order (walked both ways), its byte count and its fill
// bookkeeping, and the counters Stats reports.
func (m *lruModel) check(t *testing.T, c *Cache, op int) {
	t.Helper()
	var total, entries int64
	for s := range c.shards {
		sh := &c.shards[s]
		want := m.shards[s]
		i := 0
		var prev *node
		for n := sh.head; n != nil; n = n.next {
			if i >= len(want) || n.key != want[i].key || !sameBuf(n.buf, want[i].buf) {
				t.Fatalf("op %d: shard %d position %d holds %+v, model %+v", op, s, i, n.key, want)
			}
			if n.prev != prev || sh.entries[n.key] != n {
				t.Fatalf("op %d: shard %d position %d: list or map link broken", op, s, i)
			}
			prev, i = n, i+1
		}
		if i != len(want) || sh.tail != prev || len(sh.entries) != len(want) || sh.bytes != m.bytes[s] {
			t.Fatalf("op %d: shard %d holds %d listed / %d mapped entries of %d B, model %d of %d B",
				op, s, i, len(sh.entries), sh.bytes, len(want), m.bytes[s])
		}
		if len(sh.inflight) != 0 {
			t.Fatalf("op %d: shard %d has %d fills in flight", op, s, len(sh.inflight))
		}
		for f := sh.free; f != nil; f = f.next {
			if !cleared(f) {
				t.Fatalf("op %d: shard %d free list holds an uncleared record %+v", op, s, *f)
			}
		}
		total += m.bytes[s]
		entries += int64(len(want))
	}
	want := Stats{Hits: m.hits, Misses: m.misses, Evictions: m.evictions, Bytes: total, Entries: entries}
	if got := c.Stats(); got != want {
		t.Fatalf("op %d: Stats = %+v, model %+v", op, got, want)
	}
}

// TestCacheMatchesModel drives the cache and a naive per-shard LRU with the
// same seeded mix of Get (a tenth of fills fail), Lookup, Peek and
// InvalidateShard, with value sizes that straddle the shard budget, and
// compares them after every operation. Every buffer a fill produced is kept
// with a copy of its bytes; at the end each must still hold them, so reusing
// evicted nodes never wrote into a buffer the cache had handed out.
func TestCacheMatchesModel(t *testing.T) {
	const shardBudget = 64
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New(numShards * shardBudget)
		m := &lruModel{budget: shardBudget}
		keys := make([]Key, 120)
		for i := range keys {
			keys[i] = Key{Shard: i % 3, Gen: uint32(i % 2), Name: strconv.Itoa(i / 2)}
		}
		type handed struct{ buf, orig []byte }
		var bufs []handed
		for op := 0; op < 4000; op++ {
			k := keys[rng.Intn(len(keys))]
			switch r := rng.Intn(20); {
			case r < 14:
				var (
					buf []byte
					err error
				)
				if rng.Intn(10) == 0 {
					err = fmt.Errorf("fill %d failed", op)
				} else {
					size := 1 + rng.Intn(24)
					if rng.Intn(4) == 0 {
						size = shardBudget - 8 + rng.Intn(17) // 56..72
					}
					buf = make([]byte, size)
					rng.Read(buf)
					bufs = append(bufs, handed{buf, append([]byte(nil), buf...)})
				}
				filled := false
				got, gotErr := c.Get(k, func() ([]byte, error) { filled = true; return buf, err })
				misses := m.misses
				want, wantErr := m.get(k, buf, err)
				if filled != (m.misses > misses) {
					t.Fatalf("seed %d op %d: Get(%+v) ran its fill = %v, model missed = %v", seed, op, k, filled, !filled)
				}
				if gotErr != wantErr || !sameBuf(got, want) {
					t.Fatalf("seed %d op %d: Get(%+v) = %p, %v; model %p, %v", seed, op, k, got, gotErr, want, wantErr)
				}
			case r < 17:
				got, ok := c.Lookup(k)
				want, wantOK := m.lookup(k)
				if ok != wantOK || !sameBuf(got, want) {
					t.Fatalf("seed %d op %d: Lookup(%+v) = %p, %v; model %p, %v", seed, op, k, got, ok, want, wantOK)
				}
			case r < 19:
				got, ok := c.Peek(k)
				var want []byte
				s, i := m.find(k)
				if i >= 0 {
					want = m.shards[s][i].buf
				}
				if ok != (i >= 0) || !sameBuf(got, want) {
					t.Fatalf("seed %d op %d: Peek(%+v) = %p, %v; model %p, %v", seed, op, k, got, ok, want, i >= 0)
				}
			default:
				c.InvalidateShard(k.Shard)
				m.invalidate(k.Shard)
			}
			m.check(t, c, op)
		}
		if m.evictions == 0 {
			t.Fatalf("seed %d: nothing was evicted; the test covers no node reuse", seed)
		}
		for i, h := range bufs {
			if !bytes.Equal(h.buf, h.orig) {
				t.Fatalf("seed %d: buffer %d was written after the cache handed it out", seed, i)
			}
		}
	}
}
