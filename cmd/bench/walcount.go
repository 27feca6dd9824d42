package main

import "sync/atomic"

// walCounter is a wal.CommitFaultInjector that never injects a fault: it
// counts the bytes and syncs the WAL is about to issue and, in a traced
// repetition, timestamps them. It is how the benchmark sees inside a store
// operation without touching the program.
type walCounter struct {
	tr *tracer

	stripeBytes, stripeSyncs atomic.Int64
	commitBytes, commitSyncs atomic.Int64
	ckptBytes                atomic.Int64
}

func (c *walCounter) Append(shard int, frame []byte) (int, error) {
	c.stripeBytes.Add(int64(len(frame)))
	c.tr.event("wal.append")
	return len(frame), nil
}

func (c *walCounter) Truncate(shard int) error { return nil }

func (c *walCounter) Sync(shard int) error {
	c.stripeSyncs.Add(1)
	c.tr.event("wal.sync")
	return nil
}

func (c *walCounter) Checkpoint(shard int, snapshot []byte) error {
	c.ckptBytes.Add(int64(len(snapshot)))
	c.tr.event("wal.checkpoint")
	return nil
}

func (c *walCounter) CommitAppend(buf []byte) (int, error) {
	c.commitBytes.Add(int64(len(buf)))
	c.tr.event("wal.commit_append")
	return len(buf), nil
}

func (c *walCounter) CommitSync() error {
	c.commitSyncs.Add(1)
	c.tr.event("wal.commit_sync")
	return nil
}

// walCounts is a point-in-time copy of the counters.
type walCounts struct {
	stripeBytes, stripeSyncs int64
	commitBytes, commitSyncs int64
	ckptBytes                int64
}

func (c *walCounter) snap() walCounts {
	return walCounts{
		stripeBytes: c.stripeBytes.Load(), stripeSyncs: c.stripeSyncs.Load(),
		commitBytes: c.commitBytes.Load(), commitSyncs: c.commitSyncs.Load(),
		ckptBytes: c.ckptBytes.Load(),
	}
}

func (a walCounts) sub(b walCounts) walCounts {
	return walCounts{
		stripeBytes: a.stripeBytes - b.stripeBytes, stripeSyncs: a.stripeSyncs - b.stripeSyncs,
		commitBytes: a.commitBytes - b.commitBytes, commitSyncs: a.commitSyncs - b.commitSyncs,
		ckptBytes: a.ckptBytes - b.ckptBytes,
	}
}

func (a walCounts) bytes() int64  { return a.stripeBytes + a.commitBytes + a.ckptBytes }
func (a walCounts) fsyncs() int64 { return a.stripeSyncs + a.commitSyncs }

// recordDisk stores the phase's WAL deltas as exact per-op counts.
func (a walCounts) recordDisk(e *env, userBytes int64) {
	ops := float64(e.rep.Ops)
	e.rep.Exact["disk_bytes_per_op"] = float64(a.bytes()) / ops
	e.rep.Exact["fsyncs_per_op"] = float64(a.fsyncs()) / ops
	e.rep.Exact["wal.stripe_bytes_per_op"] = float64(a.stripeBytes) / ops
	e.rep.Exact["wal.commitlog_bytes_per_op"] = float64(a.commitBytes) / ops
	e.rep.Exact["wal.checkpoint_bytes_per_op"] = float64(a.ckptBytes) / ops
	if userBytes > 0 {
		e.rep.Exact["wal.bytes_per_user_byte"] = float64(a.bytes()) / float64(userBytes)
	}
}
