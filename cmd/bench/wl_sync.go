package main

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"versionstamp/internal/antientropy"
	"versionstamp/internal/kvstore"
)

// syncClass is one divergence level of the sync-rounds cycle.
type syncClass struct {
	name     string
	perCycle int
	perSeg   int // rounds per timed segment
	// edits returns how many keys a burst touches on the client side and
	// on the server side, and how many of those on both (real conflicts).
	edits func(keys int) (client, server, both int)
}

var syncClasses = []syncClass{
	{"conv", syncConvPerCycle, 1000, func(int) (int, int, int) { return 0, 0, 0 }},
	{"hot1", syncHot1PerCycle, 5, func(int) (int, int, int) { return 1, 0, 0 }},
	{"1pct", sync1pctPerCycle, 1, func(n int) (int, int, int) { return n / 200, n / 200, 0 }},
	{"25pct", sync25pctPerCycle, 1, func(n int) (int, int, int) { return n / 8, n / 8, n / 80 }},
}

// sync-rounds: two in-memory replicas, a Server and a Pool over loopback
// TCP. An op is one pooled round after a seeded edit burst; the bursts
// cycle through converged, one hot key, 1% and 25% of the keys (half on
// each side, a tenth of them on both so genuine conflicts reach the
// resolver). antientropy, encoding and the digest tree do the work.
func runSyncRounds(e *env) error {
	keys := e.scaled(syncKeys, 2000)
	ks := newKeyspace(keys, zipfV, e.rng(1))
	sep := []byte("|")

	e.startSeg()
	a := kvstore.NewReplicaShards("client", storeShards)
	for s := 0; s < setupSegments; s++ {
		for k := s * keys / setupSegments; k < (s+1)*keys/setupSegments; k++ {
			a.Put(ks.names[k], ks.value(k, 0))
		}
		e.cutSetup()
	}
	b := a.Clone("server")
	e.cutSetup()
	srv := antientropy.NewServer(b, kvstore.KeepBoth(sep))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	pool := antientropy.NewPool()
	defer pool.Close()
	if _, err := pool.SyncWith(addr, a); err != nil {
		return fmt.Errorf("first round: %w", err)
	}
	e.cutSetup()
	// Model: the version each side last wrote; a key is in conflict while
	// both sides wrote it in the same burst.
	verA := make([]uint64, keys)
	verB := make([]uint64, keys)
	both := make([]bool, keys)
	pick := e.rng(2)
	order := e.rng(4).Perm(keys)
	z := newZipf(e.rng(3), ks)
	version := uint64(0)
	burst := func(cl syncClass) {
		nA, nB, nBoth := cl.edits(keys)
		if nA+nB == 0 {
			return
		}
		e.tr.begin("kvstore.edit_burst")
		defer e.tr.end()
		version++
		if nA == 1 && nB == 0 {
			k := z.next()
			verA[k], verB[k], both[k] = version, version, false
			a.Put(ks.names[k], ks.value(k, version))
			return
		}
		// A fresh random window of the key order: [0,nA) to the client,
		// [nA-nBoth, nA-nBoth+nB) to the server.
		off := pick.Intn(keys)
		at := func(i int) int { return order[(off+i)%keys] }
		for i := 0; i < nA; i++ {
			k := at(i)
			verA[k], verB[k], both[k] = version, version, false
			a.Put(ks.names[k], ks.value(k, version))
		}
		for i := nA - nBoth; i < nA-nBoth+nB; i++ {
			k := at(i)
			if i < nA {
				both[k] = true
			} else {
				verA[k], both[k] = version+1, false
			}
			verB[k] = version + 1
			b.Put(ks.names[k], ks.value(k, version+1))
		}
		version++
	}

	// Still setup: one burst and round of every class, so each code path,
	// buffer and digest tree has run once before the clock starts.
	for _, cl := range syncClasses {
		burst(cl)
		if _, err := pool.SyncWith(addr, a); err != nil {
			return fmt.Errorf("warm-up %s round: %w", cl.name, err)
		}
		e.cutSetup()
	}

	// Equal-op segments would put the whole 25% round and 999 converged
	// rounds in one bin, so segments are cut per class instead: every
	// perSeg rounds and at each class boundary.
	cycles := e.scaled(syncCycles, 1)
	ops := 0
	for _, cl := range syncClasses {
		ops += cycles * e.scaled(cl.perCycle, 1)
	}
	type classTally struct {
		rounds, moved, merged int
		wire                  int64
	}
	tally := make([]classTally, len(syncClasses))

	e.beginMeasured(ops, ops)
	for c := 0; c < cycles; c++ {
		for ci, cl := range syncClasses {
			perCycle, perSeg := e.scaled(cl.perCycle, 1), e.scaled(cl.perSeg, 1)
			for n := 0; n < perCycle; n++ {
				e.tr.beginOp("op.round_" + cl.name)
				burst(cl)
				start := time.Now()
				e.tr.begin("antientropy.round_" + cl.name)
				res, err := pool.SyncWith(addr, a)
				e.tr.end()
				e.sample(time.Since(start))
				e.tr.end()
				if err != nil {
					return fmt.Errorf("%s round: %w", cl.name, err)
				}
				moved := res.Transferred + res.Reconciled + res.Merged
				if len(res.Conflicts) > 0 {
					e.fail("%s round left %d conflicts", cl.name, len(res.Conflicts))
				}
				if cl.name == "conv" && moved != 0 {
					// Every conv round follows a round that should have
					// converged the pair, the first of a cycle included.
					e.fail("conv round moved %d keys", moved)
				}
				t := &tally[ci]
				t.rounds++
				t.moved += moved
				t.merged += res.Merged
				t.wire += res.BytesSent + res.BytesReceived
				if (n+1)%perSeg == 0 || n+1 == perCycle {
					e.cutMeas()
				}
			}
		}
		// End of cycle: one more round must move nothing and the two
		// replicas' stripe summaries (key + update component of every
		// stamp) must agree. Untimed.
		res, err := pool.SyncWith(addr, a)
		if err != nil {
			return fmt.Errorf("closing round: %w", err)
		}
		e.check(res.Transferred+res.Reconciled+res.Merged == 0, "cycle %d: closing round moved keys", c)
		e.check(slices.Equal(a.Summaries(), b.Summaries()), "cycle %d: stripe summaries differ after the closing round", c)
		e.startSeg()
	}
	e.endMeasured()

	measured := sumFloat(e.rep.MeasSegs)
	if e.tr != nil {
		e.rep.Budget = e.tr.budget(measured)
	}
	var wire int64
	for ci, cl := range syncClasses {
		t := tally[ci]
		wire += t.wire
		e.rep.Exact["antientropy.wire_bytes_"+cl.name] = float64(t.wire) / float64(t.rounds)
	}
	last := tally[len(tally)-1]
	e.rep.Exact["antientropy.keys_moved_per_round_25pct"] = float64(last.moved) / float64(last.rounds)
	e.rep.Exact["antientropy.merged_per_round_25pct"] = float64(last.merged) / float64(last.rounds)
	e.rep.Exact["wire_bytes_per_op"] = float64(wire) / float64(ops)
	e.rep.Exact["disk_bytes_per_op"] = 0
	e.rep.Exact["fsyncs_per_op"] = 0

	// Verify: both replicas hold, for every key, the same bytes — the last
	// write, or both conflicting writes joined by the resolver.
	for k, name := range ks.names {
		va, okA := a.Get(name)
		vb, okB := b.Get(name)
		ok := okA && okB && bytes.Equal(va, vb)
		if ok && !both[k] {
			ok = validValue(va, k, verA[k])
		} else if ok {
			// Values are binary, so split by position, not by separator.
			ok = len(va) == 2*valueBytes+len(sep)
			if ok {
				x, y := va[:valueBytes], va[valueBytes+len(sep):]
				ok = validValue(x, k, verA[k]) && validValue(y, k, verB[k]) ||
					validValue(x, k, verB[k]) && validValue(y, k, verA[k])
			}
		}
		e.check(ok, "verify %s: replicas disagree or hold the wrong value", name)
	}
	var st stampStats
	st.add(a, ks)
	st.add(b, ks)
	st.record(e)

	if e.tr != nil {
		L := e.rep.Layer
		L["antientropy.round_conv_us"] = us(e.tr.mean("antientropy.round_conv"))
		for _, cl := range syncClasses {
			if cl.name != "conv" {
				L["antientropy.round_"+cl.name+"_ms"] = ms(e.tr.mean("antientropy.round_" + cl.name))
			}
			L["antientropy.class_share_"+cl.name] = e.tr.total("op.round_"+cl.name).Seconds() / measured
		}
		L["kvstore.tree_rebuild_ms"] = ms(e.tr.mean("antientropy.round_hot1") - e.tr.mean("antientropy.round_conv"))
		L["antientropy.dials"] = float64(pool.Dials())
		probeStore(e, a, ks, nil)
	}
	return nil
}
