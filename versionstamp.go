// Package versionstamp implements version stamps, the decentralized
// substitute for version vectors from:
//
//	Paulo Sérgio Almeida, Carlos Baquero, Victor Fonte.
//	"Version Stamps — Decentralized Version Vectors." ICDCS 2002.
//
// # Why version stamps
//
// Version vectors track updates in optimistic replication systems by
// mapping globally unique replica identifiers to counters. Creating a
// replica therefore needs a fresh unique identifier — from a server or a
// naming protocol — which is exactly what a disconnected device cannot
// obtain. Version stamps remove the requirement: a replica is created by
// Fork, locally, with no communication at all, and the stamps still decide,
// for any two coexisting replicas, whether they are Equal, one is obsolete
// (Before/After), or they conflict (Concurrent). The decision provably
// matches causal-history inclusion (paper Prop. 5.1; re-verified
// mechanically by this repository's simulator).
//
// # Model
//
// Replicas form a frontier of coexisting elements, transformed by three
// operations:
//
//	Update — the replica's data changed
//	Fork   — the replica is copied; both copies continue independently
//	Join   — two replicas merge into one (Sync = Join then Fork)
//
// A stamp is a pair [update|id] of names — antichains of binary strings —
// rendered in the paper's notation by String, e.g. "[1|0+1]". Joins
// automatically simplify ids (the paper's Section 6 reduction), so stamp
// size tracks the current number of replicas, not the number ever created.
//
// # Quick start
//
//	a := versionstamp.Seed()       // first replica: [ε|ε]
//	a, b := a.Fork()               // replicate (works offline)
//	a = a.Update()                 // write at a
//	switch versionstamp.Compare(a, b) {
//	case versionstamp.After:       // a dominates: propagate a's data to b
//	case versionstamp.Concurrent:  // conflict: reconcile, then Join
//	}
//	merged, _ := versionstamp.Join(a, b) // back to one replica: [ε|ε]
//
// Stamps serialize with MarshalBinary (read back with Decode) and
// MarshalText (read back with Parse). The binary form is the one this
// repository's own store keeps in its WAL and checkpoints and ships on its
// sync wire: a format byte 0x02, then each component as a
// structural trie whose shared prefixes are written once, so [ε|ε] and
// [1|0+1] each take 5 bytes.
//
// # Performance model
//
// Stamps are immutable values over hash-consed name components: a
// component is a binary trie whose nodes are interned — each distinct node
// exists once per process, keyed by its children — and a stamp holds two
// pointers to trie roots. The paper's central property — stamps grow with
// the width of the current frontier, not with history — means a store of
// millions of keys draws its components from a small set of distinct
// nodes, so the intern table stays small while hit rates stay near perfect.
// Consequences:
//
//   - Compare of stamps with the same update component (converged replicas,
//     the steady state of anti-entropy) is a pointer comparison: O(1), zero
//     allocations. Divergent pairs are answered from a bounded process-wide
//     cache of outcomes keyed by handle pair, still O(1) and
//     allocation-free; a cache miss recurses over both tries, stopping at
//     shared subtries, allocating nothing.
//   - Update is two pointer copies. Fork, Join and the Section 6 reduction
//     are recursions over the tries, memoized by handle in a bounded
//     process-wide table, so repeating one allocates nothing. Join returns
//     the dominating side's handle unchanged when one side contains the
//     other (every idle reconciliation), and reduction of an id already in
//     normal form (a flag cached on each node) returns the stamp as is. A
//     result that is new to the process allocates one node per trie node
//     it does not share.
//   - Serialization appends the root's cached canonical bytes (no walk after
//     the first), and decoding deduplicates by raw encoded bytes before
//     building anything, so wire ingestion of known names is one hash probe
//     and yields pointer-comparable stamps.
//
// Equality of interned stamps is therefore cheap enough to use as a guard
// in hot loops, and bulk comparison over converged data (anti-entropy
// digest phases) runs allocation-free end to end. The same holds one layer
// up: a converged pooled anti-entropy round allocates nothing at either end
// (each session reuses its frame buffers and stripe-tree slots; the roots
// are folded as they are read), and a divergent round allocates in
// proportion to what it moves — frames are sized from the counts in hand
// and encoded once, and the store's leaf phase merges the divergent ranges
// of its digest trees with the peer's sorted digests instead of building key
// sets.
//
// # Sync model
//
// Anti-entropy (internal/antientropy) converges replicas by shipping only
// what the stamps cannot prove equivalent. There is one wire protocol: a
// session opens with a version byte the server acks, and every round on it
// descends an adaptive k-ary digest tree per stripe — root hash, stripe
// roots, differing children level by level, per-key digests for the leaves
// that still differ, full copies only where the digests leave a copy
// unreconciled. The cost model:
//
//   - Tree depth follows the data. Each stripe hashes its keys to 64-bit
//     positions and summarizes them under a fan-out-16 tree (on every
//     replica, so the fan-out never travels) whose depth is the shallowest
//     that bounds expected leaf runs to ~32 keys, so the tree deepens as the
//     stripe grows. Depth is part of the hash domain; a round declares the
//     client's depth per stripe once, and a peer whose live depth differs
//     evaluates the client's on the fly. Both ends must stripe the keyspace
//     alike: a peer with another stripe count is refused.
//   - The tree is maintained, not rebuilt. The first round to ask collects,
//     sorts and hashes the stripe once, O(n log n). After that every write
//     notes its key under the stripe lock it already holds, and the next
//     request patches just those keys' leaves and the path above each:
//     O(dirty keys × depth), nothing for a quiet stripe, and no hashing at
//     all for a write that only forked an id. Trees are immutable — a patch
//     copies the paths it touches and shares the rest — so a round descends
//     a consistent snapshot for free while writers carry on. A full build
//     recurs only after adoption, restore or a burst dirtying over a
//     quarter of the stripe; crossing a depth threshold (growth, or a
//     tombstone discard shrinking the stripe) re-levels the digests the
//     tree already holds in order, without reading or sorting the stripe. A
//     stripe no peer has asked a tree for pays one comparison per write.
//   - A converged round costs O(1) bytes, not O(stripes). Pooled sessions
//     pipeline the next round's root probe behind the current round's
//     result, so the steady-state round reads the answer that is already
//     in flight, matches the root, and sends the next probe: ~14 bytes,
//     zero blocking round trips, one TCP dial amortized over the session.
//   - A localized edit costs O(log n) frames. One hot key in a converged
//     million-key store descends root → stripe roots → one divergent
//     child per level → one ~32-digest leaf run, a few hundred bytes
//     where the stripe's flat digest list is ~31k digests (the antientropy
//     tests gate it: fewer bytes than that list, and at most 2x for 5x the
//     keys). Wide divergence degrades gracefully to a plain digest
//     exchange, because diverging subtrees are enumerated breadth-first
//     and the leaf runs together carry each divergent stripe's digests.
//   - The responder's work follows the divergence too. It takes the local
//     keys of each divergent range straight off its stripe's digest tree
//     (already in position order) and merges them with the peer's digests
//     and entries; a stripe's other keys are never visited.
//   - A value crosses the wire once per round. A copy the client shipped in
//     full and the server kept comes back as the client's half of the fork
//     alone (a restamp: key and stamp), since the client already holds the
//     value; only merged and server-won copies come back in full.
//   - Whole-replica, stripe-scoped (ring), scrub-repair and tombstone-GC
//     exchanges are all this one round, scoped to different stripe sets.
//     There are no deployed peers of an older protocol to stay compatible
//     with: a peer that does not ack the session opening is a protocol
//     error, not a downgrade.
//
// # Durability model
//
// The sharded store (internal/kvstore) optionally persists through the
// log-structured file-per-stripe WAL of internal/storage/wal, its one
// durable backend: each stripe owns an append-only log of CRC-protected
// records plus an occasional binary checkpoint. The contract:
//
//   - A write is acknowledged only after its record — the key's full new
//     state, version stamp included — is appended to the owning stripe's
//     log, under the same stripe lock that ordered the write. Log order is
//     therefore exactly apply order, and restart is replay: load the
//     stripe's latest checkpoint, apply its log tail. This covers every
//     mutation path, including the stamp forks and joins that Sync and the
//     anti-entropy protocols perform — a restarted replica resumes with
//     the precise stamps it had, so the next sync round moves only what
//     the stamps cannot prove equivalent, never the whole keyspace.
//   - A crash mid-append leaves a torn record at some log tail. Torn tails
//     are detected by length and checksum and truncated on open; the torn
//     record was never acknowledged, so nothing promised is lost. Damage
//     that is provably not a torn tail (a bad frame with intact frames
//     after it) is reported as corruption, never repaired silently.
//   - Checkpoint truncates each stripe's log under the stripe's lock,
//     bounding restart replay; Close checkpoints everything, so a graceful
//     restart replays each stripe's snapshot and its folds, and no log.
//     Because a key's last logged record is its whole durable state, a
//     checkpoint need not rewrite the stripe: it folds, appending the last
//     log record of each changed key after the stripe's snapshot, and
//     rewrites the snapshot only when the folds would outgrow it or the
//     log cannot describe the change (a key removed by tombstone GC, or a
//     write whose append failed). By default appends reach the OS buffer
//     cache (durable across process crashes); the group-commit mode
//     (below) adds power-loss durability, one fsync per stripe log a
//     commit window touched. Checkpoints always fsync-and-rename, and a fold fsyncs its
//     records and then the checksummed header that commits them before
//     the log truncates, regardless. Append, checkpoint or fold, and replay
//     are the whole storage contract: the stamps carry each key's causal
//     state, so nothing else needs to persist.
//
// # Memory model
//
// A durable replica's RAM footprint is bounded by its metadata, not its
// data. Opening the store paged (internal/kvstore's Paged option) splits
// each stripe's state in two:
//
//   - Resident, always: per-key version stamp (two interned pointers),
//     tombstone flag, and checkpoint location. This is what anti-entropy
//     digests, Compare, and conflict detection read, so sync rounds over
//     converged data never touch a value byte.
//   - Pageable: the value bytes themselves. A checkpoint migrates hot
//     entries into an immutable cold index (keys packed into one shared
//     blob, ~4 bytes of boundary per key) and drops their heap values;
//     reads fault values back in through a sized sharded-LRU cache
//     (internal/pagecache) keyed by name, so a cache hit skips even the
//     cold-index search. Cache fills are singleflighted, and hits return
//     the cached buffer zero-copy and allocate nothing. A fault costs one
//     read and one allocation, the value buffer itself: readers of a key
//     being filled wait on their cache shard's condition variable, the
//     fill record is recycled, and admission into a full cache reuses the
//     LRU node it evicts.
//
// On the write path, group commit (the wal package's GroupCommit option)
// decouples acknowledgment from fsync frequency: appends from concurrent
// writers coalesce into a commit window, the window fsyncs each stripe log
// it touched, once, and every writer in the window is released only after
// those fsyncs. Nothing is acknowledged before its window's barrier, and a
// crash replays exactly the acknowledged prefix. The stripe logs need no
// second, shared log of the same records because each record is the key's
// whole causal state: its version stamp orders it against every other
// copy, so a stripe log fsynced past a record is a complete durable copy.
//
// Deletion completes the lifecycle. A delete writes a tombstone — a
// stamped entry with no value — that propagates like any write. A
// background GC discards a tombstone only once anti-entropy has gathered
// per-owner evidence that every replica of the stripe has seen it (all
// owners up, un-quarantined, hints drained, conflict-free exchanges at or
// past the tombstone's epoch), so a discarded delete can never resurrect;
// with replication factor 1 the local copy is the whole owner set and
// tombstones discard trivially. The repository benchmark gates the result:
// cmd/bench's store-read-paged workload holds a working set six times the
// cache, and its live_heap_mb may not rise against the committed baseline.
//
// # Cluster model
//
// The cluster (internal/antientropy's Cluster, built on internal/ring and
// internal/membership) places keys by Dynamo-style ownership: keys hash to
// virtual stripes, stripes hash onto a consistent-hash ring of node
// identities, and the R distinct ring successors of a stripe's position own
// it. There is one topology: "every node holds every key" is the same ring
// with Replication == Nodes. The decisions that shape the design:
//
//   - Anti-entropy is owner-scoped. A gossip round exchanges each stripe
//     only among its R owners, as stripe-scoped digest-tree rounds,
//     so a converged round costs a node wire bytes proportional to the
//     stripes it owns — not to the keyspace and not to the cluster size.
//     Each owner picks its partners for a stripe uniformly from the
//     reachable co-owners: the stamps alone order any two copies, so any
//     pair that meets can sync, and there is no schedule to keep.
//   - Membership is gossiped heartbeats with alive/suspect/dead states.
//     Ring ownership changes only when the member set grows; a dead node
//     KEEPS its stripes, because handing them elsewhere would make every
//     transient outage a data migration. Writes that miss a dead or
//     unreachable owner queue a hint (the write's value and stamp, in a
//     WAL of its own on a durable node) at the coordinator, and hints
//     drain when the target is seen alive again.
//   - Reads and writes are quorum operations: a write coordinator applies
//     locally and pushes the key to the other live owners, acknowledging
//     at W of R; a read gathers the live owners' copies and lets the
//     stamps arbitrate — divergent copies trigger read-repair, where the
//     stamps prove exactly which copies are obsolete. Hints are promises,
//     not acks, so a sloppy write reports its true durability.
//   - Exchanges touching the same stripe are serialized. Two concurrent
//     reconciliations consuming the same copy of a key would fork the same
//     id space twice, and the paper's model has no sound way to keep both
//     results — overlapping ids would force a reseed that discards
//     causality. Per-stripe serialization is a stamp-soundness
//     requirement, not a tuning choice.
//
// Every path above converges a key through one decision, kvstore's
// reconcile: a quorum write's and read-repair's pairwise pushes, the
// anti-entropy apply and the hint drain hand it the key's copies — held
// slots that receive the result, and detached copies such as a hint being
// absorbed — and it applies the paper's sync (Join, then Fork) under the
// rules its doc comment states.
//
// # Failure model
//
// What the cluster promises under faults, and what it deliberately does
// not — each promise backed by a deterministic chaos scenario (the
// internal/sim scenario runner over the internal/chaosnet fabric; the sim
// package's tests hold every scenario to one set of invariants):
//
//   - Lossy, duplicating, reordering, delaying links. The anti-entropy
//     protocol runs over a stream transport; chaosnet injects faults at
//     its segment layer, so frames arrive intact or the connection dies —
//     there are no torn frames to mis-parse. A connection reset mid-round
//     loses that round only: the pool redials and retries when the failure
//     provably preceded any state transfer (first-frame rule), and
//     otherwise surfaces the error and lets the next gossip round repair,
//     because an exchange applies deltas per stripe and every applied
//     delta is a sound join even if its round dies halfway.
//   - Crash and restart. A durable node that crashes loses memory, not
//     promises: its replica WAL replays checkpoint plus log tail, its hint
//     queue reopens, and its membership view resumes with a grace refresh
//     while the resumed heartbeat counter re-alives it at the peers. A
//     torn WAL tail (crash mid-append) truncates at the last valid record.
//   - Partitions, including asymmetric ones. Quorum writes that cannot
//     reach a quorum of owners on the coordinator's side fail loudly
//     (ErrQuorum) while still hinting the unreachable owners; after heal,
//     hint drains and owner-scoped anti-entropy reconverge both sides, the
//     stamps proving per key which copies are obsolete and which conflict.
//   - Unreachable peers are not contacted. A round schedules exchanges only
//     with co-owners that are up, in the node's partition group and not
//     Dead in its membership view, so a dead or partitioned peer costs no
//     dial. Round outcomes are reported per exchange (RoundStats.Errors);
//     a failure against a peer known to be down is listed, but it does not
//     fail the round.
//   - Bounded hint queues. Hints are capped per target, dropping oldest
//     first; a dropped hint is a lost promise, not lost data, because the
//     write's value and stamp remain on the coordinator's replica and
//     anti-entropy converges them to the revived owner anyway — the cap
//     trades bounded handoff latency for a bounded queue.
//
// # Self-healing model
//
// Disk faults get the same treatment as network faults: injected
// deterministically, contained narrowly, and repaired from redundancy the
// stamps make safe. internal/storage/faultfs is the disk-side chaosnet —
// every append failure, short write (ENOSPC mid-frame), failed rollback
// truncation, fsync error, checkpoint failure, and at-rest bit flip is a
// pure hash of (seed, stripe, operation, sequence), so a fault schedule
// replays exactly. On top of that injection surface:
//
//   - Damage is scoped to the stripe, never the node. A WAL that finds
//     mid-log corruption or a bad checkpoint checksum at open loads every
//     healthy stripe and quarantines the damaged one, reporting the file
//     and byte offset. The damaged stripe comes up empty: the prefix of
//     its log that still reads is a rollback, and a rolled-back copy holds
//     a stamp id the stripe has since forked away, which would compare as
//     independently created against its co-owners' copies. A quarantined
//     stripe serves what it has in memory, refuses durable appends, is
//     excluded from read quorums and write acknowledgments (it gets hints
//     instead — a quarantined stripe cannot promise durability), and
//     surfaces through PersistErr and the cluster's node status.
//   - Rot is found while running, not at the next restart. Each ring
//     round, every durable node re-verifies one stripe's at-rest bytes —
//     frame CRCs and checkpoint checksums — and a failed verification
//     demotes the live stripe to quarantine on the spot. A full sweep
//     costs one stripe per round, so scrubbing is steady background load.
//   - Repair is anti-entropy, because the stamps make it sound. A
//     quarantined stripe's holder exchanges with every live co-owner
//     (the fan-out cap does not apply), and the stamp-arbitrated merges rebuild exactly the records
//     the damage lost — dominance proves which copies are news, so
//     rebuilding from R-1 peers cannot resurrect obsolete data or drop
//     concurrent edits. When every exchange for the stripe succeeds, the
//     holder re-checkpoints it (replacing the damaged log wholesale) and
//     lifts the quarantine; the last repair clears PersistErr.
//
// The cycle is tested at each layer: kvstore's TestQuarantineAndRepair and
// TestScrubDemotesLiveStripe, antientropy's TestQuarantineRepairFromPeers,
// and the disk-corrupt chaos scenario (kill, flip a byte in a stripe's log,
// revive, repair from peers), which must converge with no resolver to lean
// on and zero quarantined stripes at the end.
//
// Convergence under all of the above is measured, not hoped for. A scenario
// run yields one sim.ScenarioMetrics document: rounds to convergence
// against the round budget, quorum writes attempted and failed, exchange
// and conflict counts, wire bytes, hint-queue peak/drain/drop counts,
// binary stamp size max and mean, and the fabric's fault ledger
// (delivered, dropped, duplicated, reordered, cut, reset). The sim tests
// fail unless every scenario converges within budget, ends healed with its
// tombstones collected and no delete resurrected, keeps its stamps under a
// cap, and replays to byte-identical metrics — which only holds because
// faults are seeded hash decisions over logical ticks: same seed, same
// chaos, same outcome.
//
// The implementation lives in internal packages (core, name, trie, bitstr);
// this package is the stable public API. Interval tree clocks — the
// successor design by the same authors — are available in the same style via
// the repository's internal/itc package and examples.
package versionstamp

import (
	"versionstamp/internal/bitstr"
	"versionstamp/internal/core"
	"versionstamp/internal/name"
)

// Stamp is a version stamp: the pair (update, id) written [update|id].
// Stamps are immutable values; Update, Fork and Join return new stamps.
// The zero Stamp is invalid — start from Seed or decode one.
type Stamp = core.Stamp

// Name is a stamp component: a finite antichain of binary strings ordered
// by down-set inclusion (the join semilattice N of the paper's Section 4).
type Name = name.Name

// Bits is a finite binary string, the element type of names.
type Bits = bitstr.Bits

// Ordering is the outcome of comparing two coexisting replicas.
type Ordering = core.Ordering

// Comparison outcomes.
const (
	// Equal: both replicas have seen exactly the same updates.
	Equal = core.Equal
	// Before: the first replica is obsolete relative to the second.
	Before = core.Before
	// After: the first replica dominates the second.
	After = core.After
	// Concurrent: the replicas are mutually inconsistent (conflict).
	Concurrent = core.Concurrent
)

// ErrOverlappingIDs is returned by Join for stamps whose ids overlap —
// stamps that cannot belong to one frontier (e.g. a stamp joined with
// itself or with its own ancestor).
var ErrOverlappingIDs = core.ErrOverlappingIDs

// Seed returns the stamp of a brand-new replicated datum: [ε|ε]. Every
// other stamp of that datum descends from it via Fork, Update and Join.
func Seed() Stamp { return core.Seed() }

// Join merges two replicas into one, combining their update knowledge and
// reuniting their identities (with automatic simplification).
func Join(a, b Stamp) (Stamp, error) { return core.Join(a, b) }

// Sync synchronizes two replicas in place: equivalent to Join followed by
// Fork. Both results carry the union of updates seen by either input.
func Sync(a, b Stamp) (Stamp, Stamp, error) { return core.Sync(a, b) }

// Compare relates two coexisting replicas.
func Compare(a, b Stamp) Ordering { return core.Compare(a, b) }

// Parse reads a stamp in the paper's notation, e.g. "[1|0+1]" or "[ε|ε]".
func Parse(text string) (Stamp, error) { return core.Parse(text) }

// MustParse is Parse but panics on error; for tests and examples.
func MustParse(text string) Stamp { return core.MustParse(text) }

// Decode reads one binary-encoded stamp from the front of data, returning
// the bytes consumed. The format is the one the WAL, checkpoints and sync
// wire store (format byte 0x02); any other format byte is an error that names
// it. Stamps encode with Stamp.MarshalBinary or Stamp.AppendBinary.
func Decode(data []byte) (Stamp, int, error) { return core.DecodeBinary(data) }

// NewStamp assembles a stamp from explicit components, validating the
// stamp invariant (update ⊑ id). Normal use derives stamps only through
// Seed, Update, Fork and Join; NewStamp exists for decoders and tests.
func NewStamp(update, id Name) (Stamp, error) { return core.New(update, id) }

// ParseName reads a name in the paper's notation, e.g. "0+10" or "ε".
func ParseName(text string) (Name, error) { return name.Parse(text) }

// CheckFrontier validates the configuration invariants I1–I3 across a set
// of coexisting stamps; useful as a self-check in tests of systems built on
// version stamps.
func CheckFrontier(frontier []Stamp) error { return core.CheckFrontier(frontier) }
