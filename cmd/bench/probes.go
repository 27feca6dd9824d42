package main

import (
	"fmt"
	"math"
	"time"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
	"versionstamp/internal/trie"
)

// perLayer lists the metrics of single layers a traced run prints. They
// have no bound. A metric that does not exist on a workload (pagecache
// without paging, round classes outside sync-rounds) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := append([]metricDef(nil), wallClock...)
	defs = append(defs, []metricDef{
		{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
		{Name: "wire_bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "disk_bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "fsyncs_per_op", Unit: "count", Better: "lower"},
		{Name: "stamp_bytes_max", Unit: "B", Better: "lower"},

		{Name: "core.compare_ns", Unit: "ns", Better: "lower"},
		{Name: "core.update_ns", Unit: "ns", Better: "lower"},
		{Name: "core.fork_ns", Unit: "ns", Better: "lower"},
		{Name: "core.join_ns", Unit: "ns", Better: "lower"},
		{Name: "core.reduce_ns", Unit: "ns", Better: "lower"},
		{Name: "core.join_allocs", Unit: "count", Better: "lower"},
		{Name: "core.reduce_allocs", Unit: "count", Better: "lower"},
		{Name: "trie.interned_resident", Unit: "count", Better: "lower"},
		{Name: "trie.interned_issued", Unit: "count", Better: "lower"},

		{Name: "encoding.stamp_encode_ns", Unit: "ns", Better: "lower"},
		{Name: "encoding.stamp_decode_ns", Unit: "ns", Better: "lower"},
		{Name: "encoding.entry_bytes_mean", Unit: "B", Better: "lower"},

		{Name: "kvstore.get_hot_us", Unit: "us", Better: "lower"},
		{Name: "kvstore.get_cold_us", Unit: "us", Better: "lower"},
		{Name: "kvstore.put_us", Unit: "us", Better: "lower"},
		{Name: "kvstore.put_mem_us", Unit: "us", Better: "lower"},
		{Name: "kvstore.delete_us", Unit: "us", Better: "lower"},
		{Name: "kvstore.putbatch16_us", Unit: "us", Better: "lower"},
		{Name: "kvstore.synckey_us", Unit: "us", Better: "lower"},
		{Name: "kvstore.checkpoint_ms", Unit: "ms", Better: "lower"},
		{Name: "kvstore.tree_rebuild_ms", Unit: "ms", Better: "lower"},

		{Name: "pagecache.hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "pagecache.evictions_per_op", Unit: "count", Better: "lower"},
		{Name: "pagecache.fault_us", Unit: "us", Better: "lower"},

		{Name: "wal.append_us", Unit: "us", Better: "lower"},
		{Name: "wal.commit_write_us", Unit: "us", Better: "lower"},
		{Name: "wal.fsync_us", Unit: "us", Better: "lower"},
		{Name: "wal.fsyncs_per_op_single", Unit: "count", Better: "lower"},
		{Name: "wal.fsyncs_per_op_batch", Unit: "count", Better: "lower"},
		{Name: "wal.keys_per_commit_sync", Unit: "count", Better: "higher"},
		{Name: "wal.stripe_bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "wal.commitlog_bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "wal.checkpoint_bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
		{Name: "wal.recover_s", Unit: "s", Better: "lower"},

		{Name: "antientropy.round_conv_us", Unit: "us", Better: "lower"},
		{Name: "antientropy.keys_moved_per_round_25pct", Unit: "count", Better: "lower"},
		{Name: "antientropy.merged_per_round_25pct", Unit: "count", Better: "lower"},
		{Name: "antientropy.dials", Unit: "count", Better: "lower"},

		{Name: "cluster.write_us", Unit: "us", Better: "lower"},
		{Name: "cluster.read_us", Unit: "us", Better: "lower"},
		{Name: "cluster.delete_us", Unit: "us", Better: "lower"},
		{Name: "cluster.gossip_round_ms_first", Unit: "ms", Better: "lower"},
		{Name: "cluster.gossip_round_ms_last", Unit: "ms", Better: "lower"},
		{Name: "cluster.gossip_share", Unit: "ratio", Better: "lower"},
		{Name: "cluster.gossip_bytes_per_round", Unit: "B", Better: "lower"},
		{Name: "cluster.exchanges_per_round", Unit: "count", Better: "lower"},
		{Name: "cluster.stripes_skipped_ratio", Unit: "ratio", Better: "higher"},
		{Name: "cluster.moved_per_round", Unit: "count", Better: "lower"},
	}...)
	for _, cl := range syncClasses {
		if cl.name != "conv" {
			defs = append(defs, metricDef{Name: "antientropy.round_" + cl.name + "_ms", Unit: "ms", Better: "lower"})
		}
		defs = append(defs,
			metricDef{Name: "antientropy.wire_bytes_" + cl.name, Unit: "B", Better: "lower"},
			metricDef{Name: "antientropy.class_share_" + cl.name, Unit: "ratio", Better: "lower"})
	}
	for d := 1; d <= 10; d++ {
		defs = append(defs, metricDef{Name: fmt.Sprintf("cluster.stamp_bytes_hot20_max_d%d", d), Unit: "B", Better: "lower"})
	}
	return defs
}

const (
	probeKeys     = 1000 // sampled by the workload's own popularity
	probeMutating = 64   // of those, how many the mutating probes touch
)

var probeSink int

// probeStore runs the layer probes every workload shares on the workload's
// own final state: the stamp kernel and the codec on the stamps of
// probeKeys popular keys, then kvstore operations on r itself. wc is nil
// when r's WAL is not the harness's.
func probeStore(e *env, r *kvstore.Replica, ks *keyspace, wc *walCounter) {
	L := e.rep.Layer
	z := newZipf(e.rng(9), ks)
	seen := map[int]bool{}
	var sample []int
	var stamps []core.Stamp
	var entries []encoding.Entry
	for draws := 0; len(sample) < probeKeys && draws < 50*probeKeys; draws++ {
		k := z.next()
		if seen[k] {
			continue
		}
		seen[k] = true
		v, ok := r.Version(ks.names[k])
		if !ok {
			continue
		}
		val, _ := r.Get(ks.names[k])
		sample = append(sample, k)
		stamps = append(stamps, v.Stamp)
		entries = append(entries, encoding.Entry{Key: ks.names[k], Value: val, Deleted: v.Deleted, Stamp: v.Stamp})
	}
	n := len(stamps)
	if n < 2 {
		return
	}

	// core + trie.
	L["core.compare_ns"] = e.bestOf(n, func() {
		for i, s := range stamps {
			probeSink += int(core.Compare(s, stamps[(i+1)%n]))
		}
	})
	L["core.update_ns"] = e.bestOf(n, func() {
		for _, s := range stamps {
			probeSink += s.Update().EncodedSize()
		}
	})
	L["core.fork_ns"] = e.bestOf(n, func() {
		for _, s := range stamps {
			a, _ := s.Fork()
			probeSink += a.EncodedSize()
		}
	})
	left := make([]core.Stamp, n)
	right := make([]core.Stamp, n)
	unreduced := make([]core.Stamp, n)
	for i, s := range stamps {
		left[i], right[i] = s.Fork()
		unreduced[i], _ = core.JoinNoReduce(left[i], right[i])
	}
	join := func() {
		for i := range left {
			s, _ := core.Join(left[i], right[i])
			probeSink += s.EncodedSize()
		}
	}
	reduce := func() {
		for _, s := range unreduced {
			probeSink += s.Reduce().EncodedSize()
		}
	}
	L["core.join_ns"] = e.bestOf(n, join)
	L["core.reduce_ns"] = e.bestOf(n, reduce)
	L["core.join_allocs"] = mallocsOf(n, join)
	L["core.reduce_allocs"] = mallocsOf(n, reduce)

	// encoding.
	var buf []byte
	L["encoding.stamp_encode_ns"] = e.bestOf(n, func() {
		for _, s := range stamps {
			buf = encoding.AppendCompact(buf[:0], s)
		}
	})
	encoded := make([][]byte, n)
	entryBytes := 0
	for i, s := range stamps {
		encoded[i] = encoding.MarshalCompact(s)
		entryBytes += len(encoding.AppendEntry(buf[:0], entries[i]))
	}
	L["encoding.stamp_decode_ns"] = e.bestOf(n, func() {
		for _, enc := range encoded {
			_, used, _ := encoding.UnmarshalCompact(enc)
			probeSink += used
		}
	})
	L["encoding.entry_bytes_mean"] = float64(entryBytes) / float64(n)

	// kvstore on r. The sampled keys were just read, so they are hot.
	names := make([]string, n)
	for i, k := range sample {
		names[i] = ks.names[k]
	}
	hot := e.bestOf(n, func() {
		for _, name := range names {
			v, _ := r.Get(name)
			probeSink += len(v)
		}
	})
	L["kvstore.get_hot_us"] = hot / 1e3
	// Cold: one pass over the least popular keys, which the phase's Zipf
	// draws all but never reached.
	coldN := len(ks.perm) / 10
	c0 := r.CacheStats()
	start := time.Now()
	for i := 0; i < coldN; i++ {
		v, _ := r.Get(ks.names[ks.perm[len(ks.perm)-1-i]])
		probeSink += len(v)
	}
	cold := time.Since(start)
	L["kvstore.get_cold_us"] = us(cold) / float64(coldN)
	if misses := r.CacheStats().Misses - c0.Misses; misses > 0 {
		hits := int64(coldN) - misses
		L["pagecache.fault_us"] = (us(cold) - float64(hits)*hot/1e3) / float64(misses)
	}

	mut := names
	if len(mut) > probeMutating {
		mut = mut[:probeMutating]
	}
	val := ks.valueCopy(0, 1)
	put := func() {
		for _, name := range mut {
			r.Put(name, val)
		}
	}
	L["kvstore.put_us"] = e.bestOf(len(mut), put) / 1e3
	L["kvstore.delete_us"] = e.bestOfPrepared(len(mut), put, func() {
		for _, name := range mut {
			r.Delete(name)
		}
	}) / 1e3
	batch := make(map[string][]byte, 16)
	for _, name := range names[:min(16, n)] {
		batch[name] = val
	}
	var w0 walCounts
	if wc != nil {
		w0 = wc.snap()
	}
	batches := 0
	L["kvstore.putbatch16_us"] = e.bestOf(1, func() {
		r.PutBatch(batch)
		batches++
	}) / 1e3
	if wc != nil {
		if d := wc.snap().sub(w0); d.commitSyncs > 0 {
			written := float64(batches * len(batch))
			L["wal.fsyncs_per_op_batch"] = float64(d.fsyncs()) / written
			L["wal.keys_per_commit_sync"] = written / float64(d.commitSyncs)
		}
	}

	// SyncKey between an in-memory pair carrying the sampled stamps: one
	// side writes, the timed call converges the key.
	a := kvstore.NewReplicaShards("probe-a", storeShards)
	for i, en := range entries {
		a.PutVersion(names[i], kvstore.Versioned{Value: en.Value, Deleted: en.Deleted, Stamp: en.Stamp})
	}
	b := a.Clone("probe-b")
	L["kvstore.put_mem_us"] = e.bestOf(len(mut), func() {
		for _, name := range mut {
			a.Put(name, val)
		}
	}) / 1e3
	L["kvstore.synckey_us"] = e.bestOfPrepared(len(mut), func() {
		for _, name := range mut {
			a.Put(name, val)
		}
	}, func() {
		for _, name := range mut {
			if _, err := kvstore.SyncKey(a, b, name, nil); err != nil {
				probeSink++
			}
		}
	}) / 1e3

	if wc != nil {
		start := time.Now()
		if err := r.Checkpoint(); err == nil {
			L["kvstore.checkpoint_ms"] = ms(time.Since(start))
		}
	}
}

// bestOfPrepared is bestOf for an operation that needs untimed preparation
// before every timed call.
func (e *env) bestOfPrepared(n int, prep, fn func()) float64 {
	best := math.Inf(1)
	for try := 0; try < 5; try++ {
		var el time.Duration
		calls := 0
		for el < e.probeFloor {
			prep()
			start := time.Now()
			fn()
			el += time.Since(start)
			calls++
		}
		best = math.Min(best, float64(el.Nanoseconds())/float64(calls*n))
	}
	return best
}

// internLayer records the intern table's footprint at the end of the
// measured phase, before any probe adds to it.
func internLayer(e *env) {
	if e.tr == nil {
		return
	}
	e.rep.Layer["trie.interned_resident"] = float64(trie.InternedResident())
	e.rep.Layer["trie.interned_issued"] = float64(trie.InternedCount())
}
