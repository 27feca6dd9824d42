package main

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"versionstamp/internal/antientropy"
)

// quorum-zipf: the whole stack. Five durable ring nodes on loopback TCP,
// R=3; one client issues quorum writes, deletes and reads over a Zipf key
// popularity with a gossip round interleaved every quorumGossipEvery ops.
// Hot keys drive stamps to hundreds of bytes, so the stamp kernel,
// kvstore.SyncKey, un-fsynced WAL appends, the ring coordinator and gossip
// all sit on the blocking path at once.
func runQuorumZipf(e *env) error {
	keys := e.scaled(quorumKeys, 400)
	segOps := e.scaled(quorumOps, 2000) / measSegments
	ops := segOps * measSegments
	gossipEvery := e.scaled(quorumGossipEvery, 100)
	ks := newKeyspace(keys, quorumZipfV, e.rng(1))

	// Setup: open the cluster, preload every key through quorum writes,
	// gossip to convergence.
	e.startSeg()
	c, err := antientropy.NewRingCluster(antientropy.RingConfig{
		Nodes: quorumNodes, Replication: 3, Stripes: 64, Seed: e.seed,
		DataDir: filepath.Join(e.dir, "ring"), GossipWorkers: 1,
	})
	if err != nil {
		return err
	}
	// Kill first: a killed node abandons its WAL, so Close does not spend a
	// second checkpointing state the parent is about to delete.
	defer func() {
		for n := 0; n < c.Size(); n++ {
			_ = c.Kill(n)
		}
		_ = c.Close()
	}()
	e.cutSetup()
	ver := make([]uint64, keys) // last acked version per key; 0 = preload
	deleted := make([]bool, keys)
	touched := make([]bool, keys)
	for s := 0; s < setupSegments; s++ {
		for k := s * keys / setupSegments; k < (s+1)*keys/setupSegments; k++ {
			if _, err := c.Write(ks.names[k], ks.value(k, 0)); err != nil {
				return fmt.Errorf("preload %s: %w", ks.names[k], err)
			}
		}
		e.cutSetup()
	}
	if _, err := c.GossipUntilConverged(40); err != nil {
		return fmt.Errorf("preload convergence: %w", err)
	}
	e.cutSetup()

	wire0 := sumInt64(c.WireBytes())
	disk0, err := dirBytes(e.dir)
	if err != nil {
		return err
	}
	z := newZipf(e.rng(2), ks)
	mix := e.rng(3)
	var rounds []gossipRound
	hot := newHotStamps(e, c, ks)

	e.beginMeasured(ops, ops)
	for i := 0; i < ops; i++ {
		k := z.next()
		name := ks.names[k]
		touched[k] = true
		start := time.Now()
		switch r := mix.Intn(100); {
		case r < 45:
			e.tr.beginOp("cluster.write")
			_, err := c.Write(name, ks.value(k, uint64(i+1)))
			e.tr.end()
			if err != nil {
				e.fail("write %s: %v", name, err)
			} else {
				ver[k], deleted[k] = uint64(i+1), false
			}
		case r < 50:
			e.tr.beginOp("cluster.delete")
			_, err := c.Delete(name)
			e.tr.end()
			if err != nil {
				e.fail("delete %s: %v", name, err)
			} else {
				deleted[k] = true
			}
		default:
			e.tr.beginOp("cluster.read")
			v, ok, err := c.Read(name)
			e.tr.end()
			switch {
			case err != nil:
				e.fail("read %s: %v", name, err)
			case deleted[k] && ok:
				e.fail("read %s: deleted key came back", name)
			case !deleted[k] && (!ok || !validValue(v, k, ver[k])):
				e.fail("read %s: not version %d", name, ver[k])
			}
		}
		e.sample(time.Since(start))
		if (i+1)%gossipEvery == 0 {
			start := time.Now()
			e.tr.beginOp("cluster.gossip_round")
			st, err := c.GossipRoundStats(2)
			e.tr.end()
			if err != nil {
				return fmt.Errorf("gossip round: %w", err)
			}
			if st.Conflicts > 0 || len(st.Errors) > 0 {
				e.fail("gossip round: %d conflicts, %d errors", st.Conflicts, len(st.Errors))
			}
			rounds = append(rounds, gossipRound{time.Since(start), st})
		}
		if (i+1)%segOps == 0 {
			e.cutMeas()
			hot.sampleAt(i+1, ops)
		}
	}
	e.endMeasured()

	measured := sumFloat(e.rep.MeasSegs)
	if e.tr != nil {
		e.rep.Budget = e.tr.budget(measured)
	}
	disk1, err := dirBytes(e.dir)
	if err != nil {
		return err
	}
	wire := sumInt64(c.WireBytes()) - wire0
	// Both endpoints of an exchange are charged its payload.
	e.rep.Exact["wire_bytes_per_op"] = float64(wire) / 2 / float64(ops)
	e.rep.Exact["disk_bytes_per_op"] = float64(disk1-disk0) / float64(ops)
	e.rep.Exact["fsyncs_per_op"] = 0

	// Verify: converge, then every touched key must read back as the model
	// says — the last acked write, or gone.
	if _, err := c.GossipUntilConverged(40); err != nil {
		e.fail("final convergence: %v", err)
	}
	for k, t := range touched {
		if !t {
			continue
		}
		v, ok, err := c.Read(ks.names[k])
		switch {
		case err != nil:
			e.check(false, "verify %s: %v", ks.names[k], err)
		case deleted[k]:
			e.check(!ok, "verify %s: delete resurrected", ks.names[k])
		default:
			e.check(ok && validValue(v, k, ver[k]), "verify %s: not version %d", ks.names[k], ver[k])
		}
	}

	var st stampStats
	for n := 0; n < c.Size(); n++ {
		r, err := c.Replica(n)
		if err != nil {
			return err
		}
		st.add(r, ks)
	}
	st.record(e)

	if e.tr != nil {
		clusterLayer(e, c, rounds, hot, measured)
		r0, err := c.Replica(0)
		if err != nil {
			return err
		}
		probeStore(e, r0, ks, nil)
		lat := time.Now()
		if err := r0.Checkpoint(); err != nil {
			return err
		}
		e.rep.Layer["kvstore.checkpoint_ms"] = ms(time.Since(lat))
	}
	return nil
}

type gossipRound struct {
	took time.Duration
	st   antientropy.RoundStats
}

// hotStamps samples, in a traced repetition only, the largest stamp among
// the twenty most popular keys at each tenth of the phase: the series that
// shows whether hot-key stamps stay bounded while the phase runs.
type hotStamps struct {
	c       *antientropy.Cluster
	names   []string
	deciles []int
}

func newHotStamps(e *env, c *antientropy.Cluster, ks *keyspace) *hotStamps {
	if e.tr == nil {
		return nil
	}
	h := &hotStamps{c: c}
	for rank := 0; rank < 20 && rank < len(ks.perm); rank++ {
		h.names = append(h.names, ks.names[ks.perm[rank]])
	}
	return h
}

func (h *hotStamps) sampleAt(done, ops int) {
	if h == nil || done*10/ops <= len(h.deciles) {
		return
	}
	max := 0
	for n := 0; n < h.c.Size(); n++ {
		r, err := h.c.Replica(n)
		if err != nil {
			continue
		}
		for _, name := range h.names {
			if v, ok := r.Version(name); ok && v.Stamp.EncodedSize() > max {
				max = v.Stamp.EncodedSize()
			}
		}
	}
	h.deciles = append(h.deciles, max)
}

// clusterLayer derives the cluster.* metrics from the traced phase.
func clusterLayer(e *env, c *antientropy.Cluster, rounds []gossipRound, hot *hotStamps, measured float64) {
	L := e.rep.Layer
	L["cluster.write_us"] = us(e.tr.mean("cluster.write"))
	L["cluster.read_us"] = us(e.tr.mean("cluster.read"))
	L["cluster.delete_us"] = us(e.tr.mean("cluster.delete"))
	L["cluster.gossip_share"] = e.tr.total("cluster.gossip_round").Seconds() / measured
	q := (len(rounds) + 3) / 4
	L["cluster.gossip_round_ms_first"] = meanRoundMs(rounds[:q])
	L["cluster.gossip_round_ms_last"] = meanRoundMs(rounds[len(rounds)-q:])
	var bytes int64
	var exchanges, skipped, moved int
	for _, r := range rounds {
		bytes += sumInt64(r.st.BytesPerNode) / 2
		exchanges += r.st.Exchanges
		skipped += r.st.StripesSkipped
		moved += r.st.Moved
	}
	n := float64(len(rounds))
	L["cluster.gossip_bytes_per_round"] = float64(bytes) / n
	L["cluster.exchanges_per_round"] = float64(exchanges) / n
	L["cluster.moved_per_round"] = float64(moved) / n
	if exchanges > 0 {
		L["cluster.stripes_skipped_ratio"] = float64(skipped) / float64(exchanges)
	}
	for d, max := range hot.deciles {
		L[fmt.Sprintf("cluster.stamp_bytes_hot20_max_d%d", d+1)] = float64(max)
	}
	L["antientropy.dials"] = float64(c.Dials())
}

func meanRoundMs(rs []gossipRound) float64 {
	var sum time.Duration
	for _, r := range rs {
		sum += r.took
	}
	return ms(sum) / float64(len(rs))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

func sumInt64(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumFloat(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
