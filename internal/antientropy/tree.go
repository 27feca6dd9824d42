package antientropy

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// The round: one machine per end, serverRound and clientRound, both walking
// the stripes' digest trees (kvstore.DigestTree) from the replica root
// toward the leaves that differ. See the package comment for the frame
// grammar and the drivers that step the machines.
//
// The tree shape (fanout, depth) is the *client's* choice, declared on the
// wire per stripe; the server evaluates its own data under that shape
// (kvstore.Replica.StripeTreeAt), the maintained tree whenever the shape
// matches its own policy — which it does between converged replicas, whose
// per-stripe key counts (and therefore TreeShape results) agree. A stripe
// whose count crosses a shape threshold simply descends at the new depth
// next round. The stripe layout is not a choice: both ends must stripe the
// keyspace the same way, and the server refuses any other peer (layout).

// serverPhase is the frame a server's session takes next.
type serverPhase uint8

const (
	serverIdle    serverPhase = iota // between rounds: a probe, a root or the stripe roots
	serverRoots                      // the roots differed: the stripe roots
	serverDescent                    // tree nodes, or the leaf digests that end the descent
	serverEntries                    // the entries its need asked for
	serverApply                      // none: the entries are in, to be applied and answered
)

// serverRound is the server's end of a session: its frame reader and writer
// and the round's state, kept from round to round.
type serverRound struct {
	replica   *kvstore.Replica
	resolve   kvstore.Resolver
	fr        frameReader
	fw        frameWriter
	phase     serverPhase
	of        int
	fanout    int
	stripes   map[int]*treeStripeState // every declared stripe; nil for a converged one
	order     []int                    // stripes with leaf runs, first-seen order
	bm        []byte                   // DigestTree.Children scratch: child bitmap
	hashes    []uint64                 // DigestTree.Children scratch: child hashes
	cliHashes []uint64                 // encoding.DecodeTreeNode scratch: the client's child hashes
}

// receive steps the session over one frame, its body waiting in fr, and
// sends the answer the step began once the body decoded to its last byte
// (the apply waits for that too); an error ends the session (fail). It
// reports whether the session goes on.
func (m *serverRound) receive(kind byte) bool {
	err := m.step(kind)
	if err == nil && m.fr.remaining() != 0 {
		err = fmt.Errorf("trailing bytes in frame 0x%02x", kind)
	}
	if err == nil && m.phase == serverApply {
		err = m.apply()
	}
	if err != nil {
		m.fail(err)
		return false
	}
	return m.fw.end() == nil
}

// fail ends the round on err, sending err as an error frame unless part of
// an answer is on the wire.
func (m *serverRound) fail(err error) {
	m.reset()
	if m.fw.midFrame() {
		return
	}
	msg := err.Error()
	m.fw.begin(kindError, stringLen(msg))
	m.fw.buf = appendString(m.fw.buf, msg)
	_ = m.fw.end()
}

// reset releases the round's stripe trees and idles the session.
func (m *serverRound) reset() {
	for idx, st := range m.stripes {
		if st != nil && st.tree != nil {
			m.replica.ReleaseStripeTree(idx)
		}
	}
	clear(m.stripes)
	m.phase = serverIdle
}

// serverWants is the frame kind each phase names when it refuses a frame.
var serverWants = [...]byte{kindStripeRoots, kindStripeRoots, kindTreeNodes, kindEntries}

// step decodes one frame's body and begins the answer to it.
func (m *serverRound) step(kind byte) error {
	switch p := m.phase; {
	case p == serverIdle && (kind == kindRoot || kind == kindRootProbe):
		return m.rootMatch(kind == kindRootProbe)
	case p <= serverRoots && kind == kindStripeRoots:
		return m.stripeRoots()
	case p == serverDescent && kind == kindTreeNodes:
		return m.treeNodes()
	case p == serverDescent && kind == kindLeafDigests:
		return m.leafDigests()
	case p == serverEntries && kind == kindEntries:
		return m.readEntries()
	}
	return m.fr.is(kind, serverWants[m.phase])
}

// layout reads the stripe count `of` a frame opens with, refusing one that
// is not this replica's: every tree a round compares is one stripe's, so
// both ends must agree on which keys each stripe holds.
func (m *serverRound) layout(frame string) error {
	of, err := m.fr.uvarint()
	if err != nil || of < 1 || of > maxWireStripes {
		return fmt.Errorf("bad %s layout", frame)
	}
	if n := m.replica.Shards(); int(of) != n {
		return fmt.Errorf("stripe layout mismatch: peer has %d stripes, this replica %d", of, n)
	}
	m.of = int(of)
	return nil
}

// rootMatch answers a root or probe frame: 1 when the peer's root equals the
// fold of this replica's stripe tree roots, folded as the maintained trees
// yield them, with nothing collected. Whole-replica rounds open with the
// root; matching roots end the round right there, and other roots send it
// to the stripe roots. Scoped rounds open with the stripe roots. A probe is
// answered without opening any round state: the session stays idle, and
// the next frame opens a real round (or another probe).
//
// A probe never folds writes into the trees. It arrives after a round, at a
// time the round does not decide, and may race writes still landing; a fold
// then would split one burst over two patches, so the work a later round
// does would depend on timing. A probe that finds a stripe with unfolded
// writes answers 0 instead. That sends the client to the stripe roots, whose
// round folds them.
func (m *serverRound) rootMatch(probe bool) error {
	if err := m.layout("root"); err != nil {
		return err
	}
	b, err := m.fr.bytes(8)
	if err != nil {
		return errors.New("truncated root")
	}
	root, match := encoding.RootSummarySeed, byte(1)
	for i := 0; i < m.of && match == 1; i++ {
		var r uint64
		if probe {
			var ok bool
			if r, ok = m.replica.FoldedStripeRoot(i); !ok {
				match = 0
			}
		} else if r, err = m.replica.StripeRoot(i); err != nil {
			return err
		}
		root = encoding.FoldSummary(root, r)
	}
	if root != binary.BigEndian.Uint64(b) {
		match = 0
	}
	if !probe && match == 0 {
		m.phase = serverRoots
	}
	m.fw.begin(kindRootMatch, 1)
	m.fw.buf = append(m.fw.buf, match)
	return nil
}

// treeStripeState is the server's per-round state for one divergent stripe:
// the tree snapshot evaluated at the client's declared shape (consistent
// across the whole round), and — once leaf runs arrive — the client's runs in
// position order, the diff they drew and the entries that came for its
// needs.
type treeStripeState struct {
	tree    *kvstore.DigestTree
	depth   int
	leaf    bool // leaf runs arrived
	runs    []kvstore.DigestRun
	diff    kvstore.Diff
	entries []encoding.Entry
}

// leafRun is one shipped digest run, with its stripe.
type leafRun struct {
	stripe int
	kvstore.DigestRun
}

// cmpLeafRuns orders runs by stripe, then position.
func cmpLeafRuns(a, b leafRun) int {
	return cmp.Or(cmp.Compare(a.stripe, b.stripe), cmp.Compare(a.Range.Lo, b.Range.Lo))
}

// stripeRoots takes the stripe-root phase: each declared stripe's tree root
// is compared at the client's declared shape, and the answer names the
// divergent stripes. Every divergent stripe's tree is held until the apply
// is done (reset releases them if the round ends first); a round with none
// ends here.
func (m *serverRound) stripeRoots() error {
	fr := &m.fr
	if err := m.layout("stripe roots"); err != nil {
		return err
	}
	fan64, err := fr.uvarint()
	if err != nil || !encoding.ValidTreeShape(int(fan64), 1) {
		return errors.New("bad tree fanout")
	}
	m.fanout = int(fan64)
	count, err := fr.uvarint()
	if err != nil || count > uint64(m.of) {
		return errors.New("bad stripe roots count")
	}
	if m.stripes == nil {
		m.stripes = make(map[int]*treeStripeState, 8)
	}
	var divergent []int
	for i := uint64(0); i < count; i++ {
		idx64, err := fr.uvarint()
		if err != nil || idx64 >= uint64(m.of) {
			return errors.New("bad stripe roots stripe")
		}
		depth64, err := fr.uvarint()
		if err != nil || !encoding.ValidTreeShape(m.fanout, int(depth64)) {
			return errors.New("bad stripe tree depth")
		}
		b, err := fr.bytes(8)
		if err != nil {
			return errors.New("truncated stripe root")
		}
		root := binary.BigEndian.Uint64(b)
		idx := int(idx64)
		if _, dup := m.stripes[idx]; dup {
			return errors.New("duplicate stripe")
		}
		tree, err := m.replica.StripeTreeAt(idx, m.fanout, int(depth64))
		if err != nil {
			return err
		}
		if tree.Root() != root {
			m.stripes[idx] = &treeStripeState{tree: tree, depth: int(depth64)}
			divergent = append(divergent, idx)
		} else {
			m.stripes[idx] = nil // declared and converged
			m.replica.ReleaseStripeTree(idx)
		}
	}
	size := encoding.UvarintLen(uint64(len(divergent)))
	for _, idx := range divergent {
		size += encoding.UvarintLen(uint64(idx))
	}
	m.fw.begin(kindStripeRootDiff, size)
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(len(divergent)))
	for _, idx := range divergent {
		m.fw.buf = binary.AppendUvarint(m.fw.room(binary.MaxVarintLen64), uint64(idx))
	}
	if len(divergent) == 0 {
		m.reset() // round over; the session stays open for the next one
	} else {
		m.phase = serverDescent
	}
	return nil
}

// treeNodes answers one level of the descent from the per-round tree
// snapshots, node by node: for each queried node, which children differ and
// which this side holds.
func (m *serverRound) treeNodes() error {
	fr, fw, nb := &m.fr, &m.fw, encoding.TreeBitmapLen(m.fanout)
	fan64, err := fr.uvarint()
	if err != nil || int(fan64) != m.fanout {
		return errors.New("bad tree nodes fanout")
	}
	// Every node takes at least its four coordinates and its bitmap.
	n, err := fr.uvarint()
	if err != nil || n > uint64(fr.remaining()/(4+nb)) {
		return errors.New("bad tree nodes count")
	}
	fw.begin(kindTreeDiff, encoding.UvarintLen(n)+int(n)*2*nb)
	fw.buf = binary.AppendUvarint(fw.buf, n)
	for i := uint64(0); i < n; i++ {
		var node encoding.TreeNode
		if err := fr.elem(func(b []byte) (used int, err error) {
			node, used, err = encoding.DecodeTreeNode(b, m.fanout, m.of, m.cliHashes[:0])
			return used, err
		}); err != nil {
			return err
		}
		m.cliHashes = node.Hashes
		st := m.stripes[node.Stripe]
		if st == nil {
			return fmt.Errorf("tree node for undeclared stripe %d", node.Stripe)
		}
		if node.Depth != st.depth {
			return fmt.Errorf("tree node depth %d, stripe declared %d", node.Depth, st.depth)
		}
		m.bm, m.hashes = st.tree.Children(m.bm[:0], m.hashes[:0], node.Level, node.Path)
		srvBm, srvHashes := m.bm, m.hashes
		// differ bit c: exactly one side has child c, or both do with
		// different hashes.
		fw.buf = append(fw.room(2*nb), make([]byte, nb)...)
		differ := fw.buf[len(fw.buf)-nb:]
		ci, si := 0, 0
		for c := 0; c < m.fanout; c++ {
			cliHas, srvHas := encoding.BitmapGet(node.Bitmap, c), encoding.BitmapGet(srvBm, c)
			var ch, sh uint64
			if cliHas {
				ch = node.Hashes[ci]
				ci++
			}
			if srvHas {
				sh = srvHashes[si]
				si++
			}
			if cliHas != srvHas || (cliHas && ch != sh) {
				encoding.BitmapSet(differ, c)
			}
		}
		fw.buf = append(fw.buf, srvBm...)
	}
	return nil
}

// leafDigests takes the client's digest runs for the still-divergent leaf
// ranges, decoded one at a time, and answers with the keys whose full copies
// this side needs. A key this side holds under the run's node is taken from
// the round's tree snapshot rather than copied; that every digest lies in
// its run's stripe and range is the store's to check (DiffRanges).
func (m *serverRound) leafDigests() error {
	fr, fanout := &m.fr, m.fanout
	n, err := fr.uvarint()
	if err != nil {
		return errors.New("bad leaf run count")
	}
	local := func(stripe, level int, path uint64) []encoding.Digest {
		if st := m.stripes[stripe]; st != nil {
			return st.tree.RunRange(kvstore.NodeRange(fanout, level, path))
		}
		return nil
	}
	runs := make([]leafRun, 0, fr.capCount(n))
	m.order = m.order[:0]
	for i := uint64(0); i < n; i++ {
		var run encoding.LeafRun
		if err := fr.elem(func(b []byte) (used int, err error) {
			run, used, err = encoding.DecodeLeafRun(b, fanout, m.of, local)
			return used, err
		}); err != nil {
			return err
		}
		st := m.stripes[run.Stripe]
		if st == nil {
			return fmt.Errorf("leaf run for undeclared stripe %d", run.Stripe)
		}
		if run.Depth != st.depth {
			return fmt.Errorf("leaf run depth %d, stripe declared %d", run.Depth, st.depth)
		}
		if !st.leaf {
			st.leaf = true
			m.order = append(m.order, run.Stripe)
		}
		runs = append(runs, leafRun{run.Stripe, kvstore.DigestRun{
			Range: kvstore.NodeRange(fanout, run.Level, run.Path), Digests: run.Digests}})
	}

	// The runs, put in stripe and position order, hand each stripe's store
	// its runs as they came. Runs of one descent never overlap; two that
	// start at one position are the same node sent twice.
	slices.SortFunc(runs, cmpLeafRuns)
	byStripe := make([]kvstore.DigestRun, len(runs))
	for i, run := range runs {
		if i > 0 && run.stripe == runs[i-1].stripe && run.Range.Lo == runs[i-1].Range.Lo {
			return errors.New("duplicate leaf run")
		}
		byStripe[i] = run.DigestRun
		st := m.stripes[run.stripe] // its runs are contiguous: extend them by one
		st.runs = byStripe[i-len(st.runs) : i+1]
	}
	needCount, needSize := 0, 0
	for _, idx := range m.order {
		st := m.stripes[idx]
		if st.diff, err = m.replica.DiffRanges(st.runs, idx); err != nil {
			return err
		}
		for _, k := range st.diff.Need {
			needSize += stringLen(k)
		}
		needCount += len(st.diff.Need)
	}
	m.fw.begin(kindNeed, encoding.UvarintLen(uint64(needCount))+needSize)
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(needCount))
	for _, idx := range m.order {
		for _, k := range m.stripes[idx].diff.Need {
			m.fw.buf = appendString(m.fw.room(stringLen(k)), k)
		}
	}
	m.phase = serverEntries
	return nil
}

// readEntries takes the full entries the need asked for. The client sends
// them stripe by stripe, in the need frame's order; each stripe's run of
// them is handed to the store as it stands. A key is taken from its stripe's
// need list, where this side asked for it.
func (m *serverRound) readEntries() error {
	fr, of := &m.fr, m.of
	count, err := fr.uvarint()
	if err != nil {
		return errors.New("bad entry count")
	}
	needed := func(key []byte) (string, bool) {
		st := m.stripes[kvstore.ShardIndex(key, of)]
		if st == nil {
			return "", false
		}
		need := st.diff.Need
		i := sort.Search(len(need), func(i int) bool { return need[i] >= string(key) })
		if i == len(need) || need[i] != string(key) {
			return "", false
		}
		return need[i], true
	}
	entries := make([]encoding.Entry, 0, fr.capCount(count))
	for i := uint64(0); i < count; i++ {
		var e encoding.Entry
		if err := fr.elem(func(b []byte) (n int, err error) {
			e, n, err = encoding.DecodeEntry(b, needed)
			return n, err
		}); err != nil {
			return err
		}
		idx := kvstore.ShardIndex(e.Key, of)
		st := m.stripes[idx]
		if st == nil || !kvstore.RangesContain(st.runs, encoding.TreePos(e.Key)) {
			return fmt.Errorf("entry %q outside the divergent leaf ranges", e.Key)
		}
		if len(st.entries) > 0 && kvstore.ShardIndex(entries[len(entries)-1].Key, of) != idx {
			return fmt.Errorf("entry %q out of stripe order", e.Key)
		}
		entries = append(entries, e)
		st.entries = entries[len(entries)-len(st.entries)-1:]
	}
	m.phase = serverApply
	return nil
}

// apply ends the round: range-scoped applies per stripe, then one result.
func (m *serverRound) apply() error {
	// One reply spans the stripes, sized once from what their diffs bound.
	restamps, full := 0, 0
	for _, idx := range m.order {
		st := m.stripes[idx]
		r, f := st.diff.ReplyRoom(len(st.entries))
		restamps, full = restamps+r, full+f
	}
	reply := kvstore.DeltaReply{
		Restamps: make([]encoding.Digest, 0, restamps),
		Entries:  make([]encoding.Entry, 0, full),
	}
	var res kvstore.SyncResult
	for _, idx := range m.order {
		st := m.stripes[idx]
		var part kvstore.SyncResult
		var err error
		reply, part, err = m.replica.ApplyDeltaRanges(reply, st.runs, st.entries, m.resolve, idx)
		if err != nil {
			return err
		}
		res.Add(part)
	}
	// Each stripe's part is sorted by key; the frame's lists are sorted whole.
	slices.SortFunc(reply.Restamps, func(a, b encoding.Digest) int { return strings.Compare(a.Key, b.Key) })
	slices.SortFunc(reply.Entries, func(a, b encoding.Entry) int { return strings.Compare(a.Key, b.Key) })
	// The round's snapshots are done with. Releasing them before the fold
	// lets it patch the trees in place, and before the result frame leaves
	// no hold out once the client can act on the round.
	m.reset()
	// Fold this round's writes into the maintained trees before answering:
	// the root probe that follows the result then finds them current, and
	// the patch never races the writes that come after the round.
	for _, idx := range m.order {
		if _, err := m.replica.StripeRoot(idx); err != nil {
			return err
		}
	}
	beginResult(&m.fw, res, reply)
	return nil
}

// nodeCoord names one tree node of the descent.
type nodeCoord struct {
	stripe, level int
	path          uint64
}

// clientRound is the client's end of a session: its frame reader and writer,
// the probe in flight between rounds, and the round's state.
type clientRound struct {
	fr   frameReader
	fw   frameWriter
	want byte // the kind of the frame the round waits for
	// probePending: a kindRootProbe is in flight, its answer the next frame
	// on the wire. askedRoot is the root the awaited root match answers.
	probePending bool
	askedRoot    uint64
	// The round: its replica and stripes (all of them in a whole-replica
	// round), the fold of their roots and the result so far. entriesSent: the
	// entries frame has begun, so the server may have applied the round.
	local       *kvstore.Replica
	of, fanout  int
	stripes     []int
	whole       bool
	root        uint64
	result      kvstore.SyncResult
	entriesSent bool
	// trees holds the round's stripe trees, indexed by stripe, each slot
	// holding its stripe (kvstore.Replica.StripeTree) from load until release
	// empties it, so the session pins no snapshot past the round.
	trees            []*kvstore.DigestTree
	frontier, deeper []nodeCoord // the descent's level and the next
	leafReqs         []nodeCoord // the divergent leaf ranges, in descent order
	shipped          shippedRuns // the digest runs shipped for them
	sends            []encoding.Entry
	bm               []byte   // DigestTree.Children scratch: child bitmap
	hashes           []uint64 // DigestTree.Children scratch: child hashes
}

// load readies a round of local's stripes (nil: all of them): it fills the
// tree slots, rejecting a stripe outside the layout or named twice.
func (m *clientRound) load(local *kvstore.Replica, stripes []int) error {
	m.local, m.of, m.whole = local, local.Shards(), stripes == nil
	if cap(m.trees) < m.of {
		m.trees = make([]*kvstore.DigestTree, m.of)
	}
	m.trees = m.trees[:m.of]
	m.stripes = append(m.stripes[:0], stripes...) // kept, so the caller's stays its own
	for i := 0; m.whole && i < m.of; i++ {
		m.stripes = append(m.stripes, i)
	}
	for _, idx := range m.stripes {
		if idx < 0 || idx >= m.of {
			return fmt.Errorf("antientropy: stripe %d out of range of %d", idx, m.of)
		}
		if m.trees[idx] != nil {
			return fmt.Errorf("antientropy: duplicate stripe %d", idx)
		}
		t, err := local.StripeTree(idx)
		if err != nil {
			return fmt.Errorf("antientropy: %w", err)
		}
		m.trees[idx] = t
	}
	return nil
}

// release releases and empties every tree slot load filled, and drops what
// the round shipped.
func (m *clientRound) release() {
	for idx, t := range m.trees {
		if t != nil {
			m.local.ReleaseStripeTree(idx)
			m.trees[idx] = nil
		}
	}
	m.shipped, m.sends = shippedRuns{}, nil
}

// start opens the round load readied. It begins and sends the round's
// opening frame, unless the previous round's probe is still to be answered:
// that answer opens the round instead.
func (m *clientRound) start() error {
	m.fanout = m.trees[m.stripes[0]].Fanout() // TreeShape picks one fan-out for every stripe
	m.result, m.entriesSent = kvstore.SyncResult{}, false
	m.root = encoding.RootSummarySeed
	for _, idx := range m.stripes {
		m.root = encoding.FoldSummary(m.root, m.trees[idx].Root())
	}
	if m.probePending {
		m.probePending, m.want = false, kindRootMatch
		return nil
	}
	m.open(false)
	return m.fw.end()
}

// receive steps the round over one frame, its body waiting in fr, and sends
// what the step began, once the body decoded to its last byte. It reports
// whether the round is over.
func (m *clientRound) receive(kind byte) (bool, error) {
	done, err := m.step(kind)
	if err == nil && m.fr.remaining() != 0 {
		err = fmt.Errorf("%w: trailing bytes in frame 0x%02x", ErrProtocol, kind)
	}
	switch {
	case err != nil:
		return false, err
	case !done:
		return false, m.fw.end()
	}
	// The round succeeded. Its trees are released, so none is held once the
	// server can act on the round, and a whole-replica round pipelines the
	// next round's root check behind it. A probe that fails to go out is
	// dropped: the round already succeeded on both sides, and the dead
	// connection is discovered (and redialed) by the next round's opening.
	m.release()
	if m.whole {
		beginRoot(&m.fw, kindRootProbe, m.of, m.root)
		m.probePending, m.askedRoot = m.fw.end() == nil, m.root
	}
	return true, nil
}

// step decodes one frame's body and begins what the client sends next.
func (m *clientRound) step(kind byte) (bool, error) {
	if err := m.fr.is(kind, m.want); err != nil {
		return false, err
	}
	switch m.want {
	case kindRootMatch:
		return m.rootMatch()
	case kindStripeRootDiff:
		return m.stripeDiff()
	case kindTreeDiff:
		return false, m.treeDiff()
	case kindNeed:
		return false, m.need()
	default:
		return true, m.applyResult()
	}
}

// rootMatch takes a root match. A probe's answer stands for this round only
// if nothing moved here since the probe was sent; otherwise the round opens
// as if no probe had been in flight. A known mismatch goes straight to the
// stripe roots.
func (m *clientRound) rootMatch() (bool, error) {
	b, err := m.fr.bytes(1)
	if err != nil || b[0] > 1 {
		return false, badFrame(err, "bad root match frame")
	}
	current := m.whole && m.root == m.askedRoot
	if current && b[0] == 1 {
		m.result.StripesSkipped = m.of
		return true, nil
	}
	m.open(current)
	return false, nil
}

// open begins the round's root frame, or, in a scoped round or once the
// roots are known to differ, its stripe roots: one (stripe, depth, root)
// triple per stripe.
func (m *clientRound) open(mismatch bool) {
	if m.whole && !mismatch {
		beginRoot(&m.fw, kindRoot, m.of, m.root)
		m.want, m.askedRoot = kindRootMatch, m.root
		return
	}
	size := encoding.UvarintLen(uint64(m.of)) + encoding.UvarintLen(uint64(m.fanout)) + encoding.UvarintLen(uint64(len(m.stripes)))
	for _, idx := range m.stripes {
		size += encoding.UvarintLen(uint64(idx)) + encoding.UvarintLen(uint64(m.trees[idx].Depth())) + 8
	}
	m.fw.begin(kindStripeRoots, size)
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(m.of))
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(m.fanout))
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(len(m.stripes)))
	for _, idx := range m.stripes {
		t := m.trees[idx]
		m.fw.buf = binary.AppendUvarint(m.fw.room(2*binary.MaxVarintLen64+8), uint64(idx))
		m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(t.Depth()))
		m.fw.buf = binary.BigEndian.AppendUint64(m.fw.buf, t.Root())
	}
	m.want = kindStripeRootDiff
}

// stripeDiff takes the divergent stripes, whose roots start the descent. A
// round with none is over.
func (m *clientRound) stripeDiff() (bool, error) {
	count, err := m.fr.uvarint()
	if err != nil || count > uint64(len(m.stripes)) {
		return false, badFrame(err, "bad stripe root diff count")
	}
	m.frontier, m.leafReqs = m.frontier[:0], m.leafReqs[:0]
	for i := uint64(0); i < count; i++ {
		idx64, err := m.fr.uvarint()
		if err != nil || idx64 >= uint64(m.of) || m.trees[idx64] == nil { // only stripes this round sent
			return false, badFrame(err, "bad stripe root diff stripe")
		}
		m.frontier = append(m.frontier, nodeCoord{stripe: int(idx64)})
	}
	m.result.StripesSkipped = len(m.stripes) - int(count)
	if count == 0 {
		return true, nil
	}
	m.sendNodes()
	return false, nil
}

// node reads the frontier node nc's children off its tree.
func (m *clientRound) node(nc nodeCoord) encoding.TreeNode {
	t := m.trees[nc.stripe]
	m.bm, m.hashes = t.Children(m.bm[:0], m.hashes[:0], nc.level, nc.path)
	return encoding.TreeNode{Stripe: nc.stripe, Depth: t.Depth(), Level: nc.level, Path: nc.path,
		Bitmap: m.bm, Hashes: m.hashes}
}

// sendNodes begins the tree-nodes query of the frontier.
func (m *clientRound) sendNodes() {
	size := encoding.UvarintLen(uint64(m.fanout)) + encoding.UvarintLen(uint64(len(m.frontier)))
	for _, nc := range m.frontier {
		size += encoding.TreeNodeLen(m.node(nc))
	}
	m.fw.begin(kindTreeNodes, size)
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(m.fanout))
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(len(m.frontier)))
	for _, nc := range m.frontier {
		n := m.node(nc)
		m.fw.buf = encoding.AppendTreeNode(m.fw.room(encoding.TreeNodeLen(n)), n)
	}
	m.want = kindTreeDiff
}

// treeDiff takes one level of the descent: of the frontier's children, only
// those the server flagged as differing are walked further. A child that
// differs becomes a leaf request when it sits at the bottom, or when either
// side's subtree is empty (nothing left to narrow).
func (m *clientRound) treeDiff() error {
	nb := encoding.TreeBitmapLen(m.fanout)
	n, err := m.fr.uvarint()
	if err != nil || n != uint64(len(m.frontier)) {
		return badFrame(err, fmt.Sprintf("tree diff count %d, want %d", n, len(m.frontier)))
	}
	fbits := encoding.TreeFanoutBits(m.fanout)
	m.deeper = m.deeper[:0]
	for _, nc := range m.frontier {
		b, err := m.fr.bytes(2 * nb)
		if err != nil {
			return badFrame(err, "truncated tree diff")
		}
		differ, srvBm := b[:nb], b[nb:]
		cliBm := m.node(nc).Bitmap
		for c := 0; c < m.fanout; c++ {
			if !encoding.BitmapGet(differ, c) {
				continue
			}
			child := nodeCoord{stripe: nc.stripe, level: nc.level + 1, path: nc.path<<uint(fbits) | uint64(c)}
			if child.level == m.trees[nc.stripe].Depth() || !encoding.BitmapGet(cliBm, c) ||
				!encoding.BitmapGet(srvBm, c) {
				m.leafReqs = append(m.leafReqs, child)
			} else {
				m.deeper = append(m.deeper, child)
			}
		}
	}
	m.frontier, m.deeper = m.deeper, m.frontier
	if len(m.frontier) > 0 {
		m.sendNodes()
	} else {
		m.sendLeafRuns()
	}
	return nil
}

// sendLeafRuns begins the digest runs under the divergent leaf ranges, sized
// before they are encoded. The runs are kept: the reply may only touch
// their ranges, and is applied against the stamps they carried.
func (m *clientRound) sendLeafRuns() {
	m.shipped = shippedRuns{of: m.of, runs: make([]leafRun, len(m.leafReqs))}
	wireRun := func(i int) encoding.LeafRun {
		nc := m.leafReqs[i]
		return encoding.LeafRun{Stripe: nc.stripe, Depth: m.trees[nc.stripe].Depth(), Level: nc.level, Path: nc.path,
			Digests: m.shipped.runs[i].Digests}
	}
	size := encoding.UvarintLen(uint64(len(m.leafReqs)))
	for i, nc := range m.leafReqs {
		m.shipped.runs[i].stripe = nc.stripe
		m.shipped.runs[i].Range = kvstore.NodeRange(m.fanout, nc.level, nc.path)
		m.shipped.runs[i].Digests = m.trees[nc.stripe].Run(nc.level, nc.path)
		size += encoding.LeafRunLen(wireRun(i))
	}
	m.fw.begin(kindLeafDigests, size)
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(len(m.leafReqs)))
	for i := range m.leafReqs {
		r := wireRun(i)
		m.fw.buf = encoding.AppendLeafRun(m.fw.room(encoding.LeafRunLen(r)), r)
	}
	slices.SortFunc(m.shipped.runs, cmpLeafRuns)
	m.want = kindNeed
}

// need takes the keys the server needs in full and begins the entries frame
// that carries them.
func (m *clientRound) need() error {
	count, err := m.fr.uvarint()
	if err != nil {
		return badFrame(err, "bad need count")
	}
	m.sends = make([]encoding.Entry, 0, m.fr.capCount(count))
	size := 0
	for i := uint64(0); i < count; i++ {
		k, err := m.fr.str(m.shipped.key)
		if err != nil {
			return badFrame(err, "bad need key")
		}
		v, ok := m.local.Stored(k)
		if !ok {
			// Vanished since the digest (a tombstone GC can drop keys); the
			// next round reconciles it.
			m.shipped.note(k, core.Stamp{}, false)
			continue
		}
		if st, sent := m.shipped.stamp(k); !sent || !st.Equal(v.Stamp) {
			m.shipped.note(k, v.Stamp, true) // moved since its digest
		}
		e := encoding.Entry{Key: k, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp}
		m.sends = append(m.sends, e)
		size += encoding.EntryLen(e)
	}
	// Point of no return: once any byte of the entries frame is on the wire,
	// the server may receive the complete frame and apply it even if this
	// side only sees a dead connection. Retrying such a round on a fresh
	// dial would ship the same entries against already-forked server stamps
	// — the copies would compare as causally unrelated and reconcile by
	// reseeding (double-apply). So from here on the round reports that its
	// entries may have gone out (entriesSent); the pool surfaces its failure
	// instead of redialing (ErrRetryUnsafe), and the next round's digest
	// exchange reconciles whatever state the server actually reached.
	m.fw.begin(kindEntries, encoding.UvarintLen(uint64(len(m.sends)))+size)
	m.entriesSent = true
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(len(m.sends)))
	for _, e := range m.sends {
		m.fw.buf = encoding.AppendEntry(m.fw.room(encoding.EntryLen(e)), e)
	}
	slices.SortFunc(m.sends, func(a, b encoding.Entry) int { return strings.Compare(a.Key, b.Key) })
	m.want = kindResult
	return nil
}

// sent resolves a reply key: from the entries this round sent, or else from
// the digest runs it shipped.
func (m *clientRound) sent(key []byte) (string, bool) {
	i := sort.Search(len(m.sends), func(i int) bool { return m.sends[i].Key >= string(key) })
	if i < len(m.sends) && m.sends[i].Key == string(key) {
		return m.sends[i].Key, true
	}
	return m.shipped.key(key)
}

// applyResult takes the result: it checks the reply against what the round
// shipped and applies it. The shipped copies pin every reply copy to the
// exact copy this round sent. They are read off the round's trees, which
// are released only once the reply is in, and before the fold, so it
// patches in place.
func (m *clientRound) applyResult() error {
	part, reply, err := decodeResultFrame(&m.fr, m.sent)
	if err != nil {
		return err
	}
	m.result.Add(part)
	if err := checkReply(reply, m.sends, &m.shipped); err != nil {
		return err
	}
	m.local.ApplyDeltaReply(reply, m.sends, m.shipped.stamp)
	m.release()
	m.root = encoding.RootSummarySeed
	for _, idx := range m.stripes {
		r, err := m.local.StripeRoot(idx)
		if err != nil {
			return fmt.Errorf("antientropy: %w", err)
		}
		m.root = encoding.FoldSummary(m.root, r)
	}
	return nil
}

// checkReply refuses, before anything is applied, a result that names a key
// the round did not hand the server. The server may only reply about the
// leaf ranges this round shipped — mirroring the server's own check, so a
// faulty peer cannot slip keys into subtrees this round declared converged —
// and may restamp only a key whose entry this round shipped in full (sent,
// sorted by key): a restamp carries no value, so the client must already
// hold the one it names. Each list must be strictly sorted by key, and no
// key may be in both.
func checkReply(reply kvstore.DeltaReply, sent []encoding.Entry, shipped *shippedRuns) error {
	for i, d := range reply.Restamps {
		if i > 0 && reply.Restamps[i-1].Key >= d.Key {
			return fmt.Errorf("%w: reply restamps not sorted by key at %q", ErrProtocol, d.Key)
		}
		for len(sent) > 0 && sent[0].Key < d.Key {
			sent = sent[1:]
		}
		if len(sent) == 0 || sent[0].Key != d.Key || shipped.find(d.Key) < 0 {
			return fmt.Errorf("%w: reply restamp %q for a copy this round did not ship in full",
				ErrProtocol, d.Key)
		}
	}
	restamps := reply.Restamps
	for i, e := range reply.Entries {
		if i > 0 && reply.Entries[i-1].Key >= e.Key {
			return fmt.Errorf("%w: reply entries not sorted by key at %q", ErrProtocol, e.Key)
		}
		if shipped.find(e.Key) < 0 {
			return fmt.Errorf("%w: reply entry %q outside the divergent leaf ranges", ErrProtocol, e.Key)
		}
		for len(restamps) > 0 && restamps[0].Key < e.Key {
			restamps = restamps[1:]
		}
		if len(restamps) > 0 && restamps[0].Key == e.Key {
			return fmt.Errorf("%w: reply names %q as both a restamp and an entry", ErrProtocol, e.Key)
		}
	}
	return nil
}

// shippedRuns is what a client round sent for the server to reconcile: its
// digest runs, sorted by stripe and position, plus the keys whose entry
// shipped with a stamp other than their digest's (or that had vanished).
type shippedRuns struct {
	of    int
	runs  []leafRun
	moved map[string]shippedStamp // nil until a copy moves mid-round
}

type shippedStamp struct {
	stamp core.Stamp
	ok    bool
}

// find returns the index of the run whose range holds key, or -1.
func (sr *shippedRuns) find(key string) int {
	return sr.runAt(kvstore.ShardIndex(key, sr.of), encoding.TreePos(key))
}

// runAt returns the index of the run of stripe whose range holds pos, or -1.
func (sr *shippedRuns) runAt(stripe int, pos uint64) int {
	i := sort.Search(len(sr.runs), func(i int) bool {
		r := sr.runs[i]
		return r.stripe > stripe || r.stripe == stripe && (r.Range.Hi == 0 || r.Range.Hi > pos)
	})
	if i == len(sr.runs) || sr.runs[i].stripe != stripe || !sr.runs[i].Range.Contains(pos) {
		return -1
	}
	return i
}

// stamp returns the stamp the round shipped for key, and whether it shipped
// one at all — the guard ApplyDeltaReply installs the reply under.
func (sr *shippedRuns) stamp(key string) (core.Stamp, bool) {
	if m, ok := sr.moved[key]; ok {
		return m.stamp, m.ok
	}
	d, ok := shippedDigest(sr, key)
	return d.Stamp, ok
}

// key returns the string the round's digest runs hold for the key spelled
// b, if they hold it: the client's own copy of the key, from its tree
// snapshot.
func (sr *shippedRuns) key(b []byte) (string, bool) {
	d, ok := shippedDigest(sr, b)
	return d.Key, ok
}

// shippedDigest returns the digest the round's runs shipped for key, if
// they shipped one.
func shippedDigest[K string | []byte](sr *shippedRuns, key K) (encoding.Digest, bool) {
	pos := encoding.TreePos(key)
	i := sr.runAt(kvstore.ShardIndex(key, sr.of), pos)
	if i < 0 {
		return encoding.Digest{}, false
	}
	ds := sr.runs[i].Digests
	j := sort.Search(len(ds), func(j int) bool {
		p := encoding.TreePos(ds[j].Key)
		return p > pos || p == pos && ds[j].Key >= string(key)
	})
	if j == len(ds) || ds[j].Key != string(key) {
		return encoding.Digest{}, false
	}
	return ds[j], true
}

// note records that key shipped as stamp (ok), or not at all (!ok), whatever
// its digest said.
func (sr *shippedRuns) note(key string, stamp core.Stamp, ok bool) {
	if sr.moved == nil {
		sr.moved = make(map[string]shippedStamp)
	}
	sr.moved[key] = shippedStamp{stamp, ok}
}
