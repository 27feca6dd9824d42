package main

import (
	"fmt"
	"path/filepath"
	"time"

	"versionstamp/internal/kvstore"
	"versionstamp/internal/storage/wal"
)

const storeShards = 32

// store-read-paged: one durable paged replica whose values are ~6x its
// read cache, 95% Get / 5% Put over a Zipf popularity. kvstore.Get and
// pagecache do nearly all the work; every Get is verified.
func runStoreReadPaged(e *env) error {
	keys := e.scaled(readKeys, 2000)
	cache := int64(e.scaled(readCacheBytes, 32<<10))
	segBatches := e.scaled(readOps, 48_000) / readBatch / measSegments
	ops := segBatches * readBatch * measSegments
	ks := newKeyspace(keys, zipfV, e.rng(1))
	wc := &walCounter{tr: e.tr}

	e.startSeg()
	be, err := wal.Open(filepath.Join(e.dir, "store"), wal.Options{Fault: wc})
	if err != nil {
		return err
	}
	r, err := kvstore.OpenBackendPaged(be, "paged", storeShards, cache)
	if err != nil {
		_ = be.Close()
		return err
	}
	defer r.Abandon()
	e.cutSetup()
	for s := 0; s < setupSegments; s++ {
		for k := s * keys / setupSegments; k < (s+1)*keys/setupSegments; k++ {
			r.Put(ks.names[k], ks.value(k, 0))
		}
		e.cutSetup()
	}
	if err := r.Checkpoint(); err != nil {
		return err
	}
	e.cutSetup()
	if err := r.PersistErr(); err != nil {
		return err
	}

	// The op stream is drawn before the clock starts: at well under a
	// microsecond per Get, drawing a Zipf variate inline would be a tenth
	// of what is timed. Bit 31 marks a Put.
	const putBit = 1 << 31
	stream := make([]uint32, ops)
	z := newZipf(e.rng(2), ks)
	mix := e.rng(3)
	puts := 0
	for i := range stream {
		stream[i] = uint32(z.next())
		if mix.Intn(100) < 5 {
			stream[i] |= putBit
			puts++
		}
	}
	ver := make([]uint64, keys)
	wal0, cache0 := wc.snap(), r.CacheStats()

	e.beginMeasured(ops, ops/readBatch)
	for b, i := 0, 0; b < segBatches*measSegments; b++ {
		start := time.Now()
		for end := i + readBatch; i < end; i++ {
			k := int(stream[i] &^ putBit)
			if stream[i]&putBit != 0 {
				ver[k] = uint64(i + 1)
				e.tr.beginOp("kvstore.put")
				r.Put(ks.names[k], ks.value(k, ver[k]))
				e.tr.end()
				continue
			}
			e.tr.beginOp("kvstore.get")
			v, ok := r.Get(ks.names[k])
			e.tr.end()
			if !ok || !validValue(v, k, ver[k]) {
				e.fail("get %s: not version %d", ks.names[k], ver[k])
			}
		}
		e.sample(time.Since(start) / readBatch)
		if (b+1)%segBatches == 0 {
			e.cutMeas()
		}
	}
	e.endMeasured()

	if e.tr != nil {
		e.rep.Budget = e.tr.budget(sumFloat(e.rep.MeasSegs))
	}
	if err := r.PersistErr(); err != nil {
		e.fail("persist: %v", err)
	}
	cs := r.CacheStats()
	hits, misses := cs.Hits-cache0.Hits, cs.Misses-cache0.Misses
	e.rep.Exact["pagecache.hit_ratio"] = float64(hits) / float64(hits+misses)
	e.rep.Exact["pagecache.evictions_per_op"] = float64(cs.Evictions-cache0.Evictions) / float64(ops)
	e.rep.Exact["wire_bytes_per_op"] = 0
	wc.snap().sub(wal0).recordDisk(e, int64(puts)*valueBytes)
	var st stampStats
	st.add(r, ks)
	st.record(e)

	if e.tr != nil {
		probeStore(e, r, ks, wc)
	}
	return nil
}

// store-write-fsync: one durable replica under group commit, single-key
// writes only (90% Put / 10% Delete, Zipf), a full checkpoint every
// writeCkptEvery ops, then a crash (Abandon) and reopen: nothing the WAL
// acknowledged may be missing.
func runStoreWriteFsync(e *env) error {
	keys := e.scaled(writeKeys, 2000)
	segOps := e.scaled(writeOps, 96) / measSegments
	ops := segOps * measSegments
	ckptEvery := e.scaled(writeCkptEvery, 32)
	ks := newKeyspace(keys, zipfV, e.rng(1))
	wc := &walCounter{tr: e.tr}
	dir := filepath.Join(e.dir, "store")
	open := func() (*kvstore.Replica, error) {
		be, err := wal.Open(dir, wal.Options{GroupCommit: true, Fault: wc})
		if err != nil {
			return nil, err
		}
		r, err := kvstore.OpenBackend(be, "fsync", storeShards)
		if err != nil {
			_ = be.Close()
		}
		return r, err
	}

	e.startSeg()
	r, err := open()
	if err != nil {
		return err
	}
	e.cutSetup()
	// Preload in batches so setup does not pay one fsync per key.
	const batch = 1000
	for s := 0; s < setupSegments; s++ {
		lo, hi := s*keys/setupSegments, (s+1)*keys/setupSegments
		for ; lo < hi; lo += batch {
			m := make(map[string][]byte, batch)
			for k := lo; k < lo+batch && k < hi; k++ {
				m[ks.names[k]] = ks.valueCopy(k, 0)
			}
			r.PutBatch(m)
		}
		e.cutSetup()
	}
	if err := r.Checkpoint(); err != nil {
		return err
	}
	e.cutSetup()
	if err := r.PersistErr(); err != nil {
		return err
	}

	ver := make([]uint64, keys)
	deleted := make([]bool, keys)
	z := newZipf(e.rng(2), ks)
	mix := e.rng(3)
	puts := 0
	wal0 := wc.snap()

	e.beginMeasured(ops, ops)
	for i := 0; i < ops; i++ {
		k := z.next()
		start := time.Now()
		if mix.Intn(100) < 90 {
			ver[k], deleted[k] = uint64(i+1), false
			puts++
			e.tr.beginOp("kvstore.put")
			r.Put(ks.names[k], ks.value(k, ver[k]))
		} else {
			deleted[k] = true
			e.tr.beginOp("kvstore.delete")
			r.Delete(ks.names[k])
		}
		e.tr.end()
		e.sample(time.Since(start))
		if (i+1)%ckptEvery == 0 {
			e.tr.beginOp("kvstore.checkpoint")
			err := r.Checkpoint()
			e.tr.end()
			if err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
		}
		if (i+1)%segOps == 0 {
			e.cutMeas()
			// A write is acked only if the store reports no persistence
			// error; one error fails the whole segment.
			if err := r.PersistErr(); err != nil {
				for n := 0; n < segOps; n++ {
					e.fail("persist: %v", err)
				}
			}
		}
	}
	e.endMeasured()

	if e.tr != nil {
		e.rep.Budget = e.tr.budget(sumFloat(e.rep.MeasSegs))
		L := e.rep.Layer
		L["wal.append_us"] = us(e.tr.mean("wal.append"))
		L["wal.commit_write_us"] = us(e.tr.mean("wal.commit_append"))
		L["wal.fsync_us"] = us(e.tr.mean("wal.commit_sync"))
	}
	d := wc.snap().sub(wal0)
	d.recordDisk(e, int64(puts)*valueBytes)
	e.rep.Exact["wire_bytes_per_op"] = 0
	e.rep.Exact["wal.fsyncs_per_op_single"] = float64(d.commitSyncs) / float64(ops)

	// Crash and recover: every acked key must be readable.
	if err := r.Abandon(); err != nil {
		return err
	}
	start := time.Now()
	r, err = open()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer r.Abandon()
	recover := time.Since(start)
	for k := range ver {
		v, ok := r.Get(ks.names[k])
		if deleted[k] {
			e.check(!ok, "recover %s: delete lost", ks.names[k])
		} else {
			e.check(ok && validValue(v, k, ver[k]), "recover %s: not version %d", ks.names[k], ver[k])
		}
	}
	var st stampStats
	st.add(r, ks)
	st.record(e)

	if e.tr != nil {
		e.rep.Layer["wal.recover_s"] = recover.Seconds()
		probeStore(e, r, ks, wc)
	}
	return nil
}
