package antientropy

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"

	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// The round: one machine per end, serverRound and clientRound, both walking
// the stripes' digest trees (kvstore.DigestTree) from the replica root
// toward the leaves that differ. See the package comment for the frame
// grammar and the drivers that step the machines.
//
// Every tree has fan-out encoding.TreeFanout, and every tree hash is the XOR
// of the terms of the keys under it, which each tree keeps with its keys, so
// both ends read terms off their runs and hash nothing during a round. A
// stripe tree's depth is the *client's* choice, declared once per round in
// the stripe roots; a node's hash does not depend on a tree's depth, so the
// server answers at the client's levels from its own maintained tree. The
// stripe layout is not a choice: both ends must stripe the keyspace the same
// way, and the server refuses any other peer (layout).

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
	stripes   map[int]*treeStripeState // every declared stripe; nil for a converged one
	order     []int                    // stripes with leaf runs, in ascending order
	runs      shippedRuns              // the client's leaf runs, which number its digests
	need      []int                    // the ordinals the need frame named
	termed    []leafCoord              // the leaves the round sent terms for, sorted
	hashes    []uint64                 // DigestTree.Children scratch: child hashes
	cliHashes []uint64                 // encoding.DecodeTreeNode scratch: the client's child hashes
	answers   []uint16                 // treeNodes scratch: each node's differ and server bitmaps
	nodeTerms []int                    // treeNodes scratch: how many of each node's children get terms
}

// leafCoord names a leaf of a stripe's tree by its path.
type leafCoord struct {
	stripe int
	path   uint64
}

func cmpLeafCoords(a, b leafCoord) int {
	return cmp.Or(cmp.Compare(a.stripe, b.stripe), cmp.Compare(a.path, b.path))
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
	m.runs, m.need, m.termed = shippedRuns{}, nil, m.termed[:0]
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
// XOR of this replica's stripe tree roots, as the maintained trees yield
// them, with nothing collected. Whole-replica rounds open with the
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
	root, match := uint64(0), byte(1)
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
		root ^= r
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
// the tree snapshot (consistent across the whole round) and the client's
// declared depth, at which the round reads it, and — once leaf runs arrive —
// the client's runs in position order, the diff they drew and the entries
// that came for its needs, in need order.
type treeStripeState struct {
	tree    *kvstore.DigestTree
	depth   int
	leaf    bool // leaf runs arrived
	runs    []kvstore.DigestRun
	diff    kvstore.Diff
	entries []encoding.Entry
}

// leafRun is one shipped digest run, with its stripe and the ordinal of its
// first digest: at the server, the digests it decoded (Digests); at the
// client, its own tree's keys as it shipped them (keys).
type leafRun struct {
	stripe, first int
	kvstore.DigestRun
	keys []encoding.Termed
}

func (r *leafRun) len() int { return len(r.Digests) + len(r.keys) }

func (r *leafRun) digest(i int) *encoding.Digest {
	if r.keys != nil {
		return &r.keys[i].Digest
	}
	return &r.Digests[i]
}

// cmpLeafRuns orders runs by stripe, then position.
func cmpLeafRuns(a, b leafRun) int {
	return cmp.Or(cmp.Compare(a.stripe, b.stripe), cmp.Compare(a.Range.Lo, b.Range.Lo))
}

// stripeRoots takes the stripe-root phase: each declared stripe's tree root
// is compared, and the answer names the divergent stripes. Every divergent
// stripe's tree is held until the apply is done (reset releases them if the
// round ends first); a round with none ends here.
func (m *serverRound) stripeRoots() error {
	fr := &m.fr
	if err := m.layout("stripe roots"); err != nil {
		return err
	}
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
		if err != nil || !encoding.ValidTreeDepth(int(depth64)) {
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
		tree, err := m.replica.StripeTree(idx)
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
// snapshots, node by node, at the client's levels: for each queried node,
// which children differ and which this side holds, then the terms of each
// leaf child that differs and that both sides hold (one per key under it
// here, in tree order, read off the run), which the client's leaf run
// answers. The nodes are read first and the answer, sized from them,
// written after.
func (m *serverRound) treeNodes() error {
	fr, fw := &m.fr, &m.fw
	// Every node takes at least its three coordinates and its bitmap.
	n, err := fr.uvarint()
	if err != nil || n > uint64(fr.remaining()/5) {
		return errors.New("bad tree nodes count")
	}
	size, first := encoding.UvarintLen(n)+int(n)*4, len(m.termed)
	m.answers, m.nodeTerms = m.answers[:0], m.nodeTerms[:0]
	for i := uint64(0); i < n; i++ {
		var node encoding.TreeNode
		if err := fr.elem(func(b []byte) (used int, err error) {
			node, used, err = encoding.DecodeTreeNode(b, m.of, m.cliHashes[:0])
			return used, err
		}); err != nil {
			return err
		}
		m.cliHashes = node.Hashes
		st := m.stripes[node.Stripe]
		if st == nil {
			return fmt.Errorf("tree node for undeclared stripe %d", node.Stripe)
		}
		if node.Level >= st.depth {
			return fmt.Errorf("tree node at level %d, stripe %d declared depth %d", node.Level, node.Stripe, st.depth)
		}
		srvBm, srvHashes := st.tree.Children(m.hashes[:0], node.Level, node.Path)
		m.hashes = srvHashes
		// differ bit c: exactly one side has child c, or both do with
		// different hashes.
		var differ uint16
		ci, si, terms := 0, 0, 0
		for c := 0; c < encoding.TreeFanout; c++ {
			bit := uint16(1) << c
			cliHas, srvHas := node.Bitmap&bit != 0, srvBm&bit != 0
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
				differ |= bit
				if cliHas && srvHas && node.Level+1 == st.depth {
					leaf := leafCoord{node.Stripe, node.Path<<encoding.TreeFanoutBits | uint64(c)}
					k := len(st.tree.Run(st.depth, leaf.path))
					size += encoding.UvarintLen(uint64(k)) + 8*k
					m.termed = append(m.termed, leaf)
					terms++
				}
			}
		}
		m.answers = append(m.answers, differ, srvBm)
		m.nodeTerms = append(m.nodeTerms, terms)
	}
	fw.begin(kindTreeDiff, size)
	fw.buf = binary.AppendUvarint(fw.buf, n)
	leaves := m.termed[first:]
	for i, terms := range m.nodeTerms {
		fw.buf = binary.LittleEndian.AppendUint16(fw.room(4), m.answers[2*i])
		fw.buf = binary.LittleEndian.AppendUint16(fw.buf, m.answers[2*i+1])
		for _, leaf := range leaves[:terms] {
			st := m.stripes[leaf.stripe]
			run := st.tree.Run(st.depth, leaf.path)
			fw.buf = binary.AppendUvarint(fw.room(binary.MaxVarintLen64), uint64(len(run)))
			for _, k := range run {
				fw.buf = binary.BigEndian.AppendUint64(fw.room(8), k.Term)
			}
		}
		leaves = leaves[terms:]
	}
	// Stripes of different depths have their leaves' terms sent in
	// different frames.
	if !slices.IsSortedFunc(m.termed, cmpLeafCoords) {
		slices.SortFunc(m.termed, cmpLeafCoords)
	}
	return nil
}

// localRun returns this side's digests under the node at (level, path) of
// stripe, and whether the round sent terms for it, for a leaf run the
// client shipped there (encoding.DecodeLeafRun's local). Only a leaf's run
// can hold keys at both ends: the descent stops above the leaves only where
// one end's subtree is empty.
func (m *serverRound) localRun(stripe, level int, path uint64) ([]encoding.Termed, bool) {
	st := m.stripes[stripe]
	if st == nil || level != st.depth {
		return nil, false
	}
	_, termed := slices.BinarySearchFunc(m.termed, leafCoord{stripe, path}, cmpLeafCoords)
	return st.tree.Run(level, path), termed
}

// leafDigests takes the client's digest runs for the still-divergent leaf
// ranges, decoded one at a time, and answers with the ordinals of the
// digests whose full copies this side needs. A run of a leaf this side sent
// terms for is decoded against them (encoding.DecodeLeafRun): each key whose
// term the client matched comes as its id alone, and is rebuilt from this
// side's key and update component under that id, so each run is the
// client's whole run, in tree order. A key this side holds under the leaf is
// taken from the round's tree snapshot rather than copied. The runs must
// come in walk order — stripe, then position, each run's digests in tree
// order — since that order numbers the digests; that every digest lies in
// its run's stripe and range is the store's to check (DiffRanges).
func (m *serverRound) leafDigests() error {
	fr := &m.fr
	n, err := fr.uvarint()
	if err != nil {
		return errors.New("bad leaf run count")
	}
	m.runs = shippedRuns{runs: make([]leafRun, 0, fr.capCount(n))}
	m.order = m.order[:0]
	for i := uint64(0); i < n; i++ {
		var run encoding.LeafRun
		if err := fr.elem(func(b []byte) (used int, err error) {
			run, used, err = encoding.DecodeLeafRun(b, m.of, m.localRun)
			return used, err
		}); err != nil {
			return err
		}
		st := m.stripes[run.Stripe]
		if st == nil {
			return fmt.Errorf("leaf run for undeclared stripe %d", run.Stripe)
		}
		if run.Level > st.depth {
			return fmt.Errorf("leaf run at level %d, stripe %d declared depth %d", run.Level, run.Stripe, st.depth)
		}
		r := leafRun{stripe: run.Stripe, first: m.runs.n, DigestRun: kvstore.DigestRun{
			Range: kvstore.NodeRange(run.Level, run.Path), Digests: run.Digests}}
		if k := len(m.runs.runs); k > 0 && cmpLeafRuns(m.runs.runs[k-1], r) >= 0 {
			return errors.New("leaf runs out of walk order")
		}
		if !st.leaf {
			st.leaf = true
			m.order = append(m.order, run.Stripe)
		}
		m.runs.runs = append(m.runs.runs, r)
		m.runs.n += len(r.Digests)
	}

	// Each stripe's runs are contiguous: hand its store them as they came.
	byStripe := make([]kvstore.DigestRun, len(m.runs.runs))
	for i, run := range m.runs.runs {
		byStripe[i] = run.DigestRun
		st := m.stripes[run.stripe]
		st.runs = byStripe[i-len(st.runs) : i+1]
	}
	needs := 0
	for _, idx := range m.order {
		st := m.stripes[idx]
		if st.diff, err = m.replica.DiffRanges(st.runs, idx); err != nil {
			return err
		}
		needs += len(st.diff.Need)
	}
	// Each stripe's Need is its digests' keys in walk order: one pass over
	// the runs finds each one's ordinal.
	m.need = make([]int, 0, needs)
	stripe := -1
	var need []string
	for _, run := range m.runs.runs {
		if run.stripe != stripe {
			stripe, need = run.stripe, m.stripes[run.stripe].diff.Need
		}
		for i, d := range run.Digests {
			if len(need) > 0 && d.Key == need[0] {
				m.need, need = append(m.need, run.first+i), need[1:]
			}
		}
	}
	if len(m.need) != needs {
		return fmt.Errorf("%d of %d needed keys found in the leaf runs", len(m.need), needs)
	}
	size, o := encoding.UvarintLen(uint64(needs)), ordinals{}
	for _, ord := range m.need {
		size += encoding.UvarintLen(o.put(ord))
	}
	m.fw.begin(kindNeed, size)
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(needs))
	o = ordinals{}
	for _, ord := range m.need {
		m.fw.buf = binary.AppendUvarint(m.fw.room(binary.MaxVarintLen64), o.put(ord))
	}
	m.phase = serverEntries
	return nil
}

// readEntries takes one entry body per need, in need order
// (decodeEntriesFrame). Each stripe's needs are contiguous, so its entries
// are too, and are handed to its store as they stand.
func (m *serverRound) readEntries() error {
	entries, err := decodeEntriesFrame(&m.fr, &m.runs, m.need)
	if err != nil {
		return err
	}
	for _, idx := range m.order {
		st, n := m.stripes[idx], 0
		for _, k := range st.diff.Need {
			if n < len(entries) && entries[n].Key == k {
				n++
			}
		}
		st.entries, entries = entries[:n], entries[n:]
	}
	m.phase = serverApply
	return nil
}

// apply ends the round: range-scoped applies per stripe, then one result.
// Each stripe's part of the reply is in walk order and the stripes go in
// ascending order, so the reply is in walk order, and each copy is named by
// its place in the round as it comes (replyRefs).
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
	refs := replyRefs{restamps: make([]int, 0, restamps), entries: make([]int, 0, full)}
	var res kvstore.SyncResult
	needAt := 0
	for _, idx := range m.order {
		st := m.stripes[idx]
		r0, e0 := len(reply.Restamps), len(reply.Entries)
		var part kvstore.SyncResult
		var err error
		reply, part, err = m.replica.ApplyDeltaRanges(reply, st.runs, st.entries, m.resolve, idx)
		if err != nil {
			return err
		}
		res.Add(part)
		// A restamp is of a key whose entry came, so of a need.
		for _, d := range reply.Restamps[r0:] {
			for needAt < len(m.need) && m.runs.digest(m.need[needAt]).Key != d.Key {
				needAt++
			}
			if needAt == len(m.need) {
				return fmt.Errorf("restamp of %q, which no need named", d.Key)
			}
			refs.restamps = append(refs.restamps, needAt)
		}
		for _, e := range reply.Entries[e0:] {
			refs.entries = append(refs.entries, m.runs.ordinal(idx, encoding.TreePos(e.Key), e.Key))
		}
	}
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
	beginResult(&m.fw, res, reply, refs)
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
	// round), the XOR of their roots and the result so far. entriesSent: the
	// entries frame has begun, so the server may have applied the round.
	local       *kvstore.Replica
	of          int
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
	leafReqs         []leafReq   // the divergent leaf ranges, in walk order once shipped
	match            []int32     // the leaves' digests that answer terms: the term each matched
	shipped          shippedRuns // the digest runs shipped for them
	sends            []sentCopy  // what went for each need, in need order
	hashes           []uint64    // DigestTree.Children scratch: child hashes
	terms            []uint64    // matchTerms scratch: one leaf's terms
}

// leafReq is a divergent leaf range the descent ended at, and the n terms
// the server sent for it (none when n is 0), which its run's digests
// matched as match[at:] says, one a digest.
type leafReq struct {
	nodeCoord
	at, n int
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
	m.result, m.entriesSent = kvstore.SyncResult{}, false
	m.root = 0
	for _, idx := range m.stripes {
		m.root ^= m.trees[idx].Root()
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
	size := encoding.UvarintLen(uint64(m.of)) + encoding.UvarintLen(uint64(len(m.stripes)))
	for _, idx := range m.stripes {
		size += encoding.UvarintLen(uint64(idx)) + encoding.UvarintLen(uint64(m.trees[idx].Depth())) + 8
	}
	m.fw.begin(kindStripeRoots, size)
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(m.of))
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
	m.frontier, m.leafReqs, m.match = m.frontier[:0], m.leafReqs[:0], m.match[:0]
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
	var bm uint16
	bm, m.hashes = m.trees[nc.stripe].Children(m.hashes[:0], nc.level, nc.path)
	return encoding.TreeNode{Stripe: nc.stripe, Level: nc.level, Path: nc.path, Bitmap: bm, Hashes: m.hashes}
}

// sendNodes begins the tree-nodes query of the frontier.
func (m *clientRound) sendNodes() {
	size := encoding.UvarintLen(uint64(len(m.frontier)))
	for _, nc := range m.frontier {
		size += encoding.TreeNodeLen(m.node(nc))
	}
	m.fw.begin(kindTreeNodes, size)
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
// side's subtree is empty (nothing left to narrow). A bottom child both sides
// hold comes with the server's terms for it, which its run is matched
// against at once, so no term outlives its leaf.
func (m *clientRound) treeDiff() error {
	n, err := m.fr.uvarint()
	if err != nil || n != uint64(len(m.frontier)) {
		return badFrame(err, fmt.Sprintf("tree diff count %d, want %d", n, len(m.frontier)))
	}
	m.deeper = m.deeper[:0]
	for _, nc := range m.frontier {
		b, err := m.fr.bytes(4)
		if err != nil {
			return badFrame(err, "truncated tree diff")
		}
		differ, srvBm := binary.LittleEndian.Uint16(b), binary.LittleEndian.Uint16(b[2:])
		cliBm, depth := m.node(nc).Bitmap, m.trees[nc.stripe].Depth()
		for c := 0; c < encoding.TreeFanout; c++ {
			bit := uint16(1) << c
			if differ&bit == 0 {
				continue
			}
			child := nodeCoord{stripe: nc.stripe, level: nc.level + 1, path: nc.path<<encoding.TreeFanoutBits | uint64(c)}
			both := cliBm&bit != 0 && srvBm&bit != 0
			switch {
			case child.level < depth && both:
				m.deeper = append(m.deeper, child)
			case both:
				req := leafReq{nodeCoord: child, at: len(m.match)}
				if req.n, err = m.matchTerms(child); err != nil {
					return err
				}
				m.leafReqs = append(m.leafReqs, req)
			default:
				m.leafReqs = append(m.leafReqs, leafReq{nodeCoord: child})
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

// matchTerms reads the terms of leaf, a count and 8 bytes each, matches its
// run against them onto match (encoding.MatchTerms), and returns the count.
func (m *clientRound) matchTerms(leaf nodeCoord) (int, error) {
	count, err := m.fr.uvarint()
	if err != nil || count > uint64(m.fr.remaining()/8) {
		return 0, badFrame(err, "bad term count")
	}
	m.terms = m.terms[:0]
	for i := uint64(0); i < count; i++ {
		b, err := m.fr.bytes(8)
		if err != nil {
			return 0, badFrame(err, "truncated terms")
		}
		m.terms = append(m.terms, binary.BigEndian.Uint64(b))
	}
	m.match = encoding.MatchTerms(m.match, m.trees[leaf.stripe].Run(leaf.level, leaf.path), m.terms)
	return int(count), nil
}

// sendLeafRuns begins the digest runs under the divergent leaf ranges, in
// walk order — stripe, then position — sized before they are encoded. A run
// of a leaf the server sent terms for ships each key whose term it matched
// as its id alone. The runs are kept whole: their order numbers every digest
// the rest of the round names by ordinal, matched or not, the reply may only
// touch their ranges, and it is applied against the stamps they carried.
func (m *clientRound) sendLeafRuns() {
	slices.SortFunc(m.leafReqs, func(a, b leafReq) int {
		return cmp.Or(cmp.Compare(a.stripe, b.stripe),
			cmp.Compare(kvstore.NodeRange(a.level, a.path).Lo, kvstore.NodeRange(b.level, b.path).Lo))
	})
	m.shipped = shippedRuns{runs: make([]leafRun, len(m.leafReqs))}
	wireRun := func(i int) encoding.SentRun {
		req, r := m.leafReqs[i], &m.shipped.runs[i]
		run := encoding.SentRun{Stripe: req.stripe, Level: req.level, Path: req.path, Keys: r.keys, Terms: req.n}
		if req.n > 0 {
			run.Match = m.match[req.at : req.at+len(r.keys)]
		}
		return run
	}
	size := encoding.UvarintLen(uint64(len(m.leafReqs)))
	for i, req := range m.leafReqs {
		r := &m.shipped.runs[i]
		r.stripe, r.first, r.Range = req.stripe, m.shipped.n, kvstore.NodeRange(req.level, req.path)
		r.keys = m.trees[req.stripe].Run(req.level, req.path)
		m.shipped.n += len(r.keys)
		size += encoding.LeafRunLen(wireRun(i))
	}
	m.fw.begin(kindLeafDigests, size)
	m.fw.buf = binary.AppendUvarint(m.fw.buf, uint64(len(m.leafReqs)))
	for i := range m.leafReqs {
		r := wireRun(i)
		m.fw.buf = encoding.AppendLeafRun(m.fw.room(encoding.LeafRunLen(r)), r)
	}
	m.want = kindNeed
}

// sentCopy is what the client shipped for one need: the need's digest
// ordinal and the key's copy, or only its key if it had vanished.
type sentCopy struct {
	ord   int
	entry encoding.Entry
	moved bool // the copy's stamp is not its digest's, so it went on the wire
	gone  bool // vanished since its digest: no copy went
}

// need takes the ordinals of the digests whose keys the server needs in full
// and begins the entries frame that answers them, one body each, in need
// order. A copy whose stamp is still its digest's goes without it.
func (m *clientRound) need() error {
	count, err := m.fr.uvarint()
	if err != nil || count > uint64(m.shipped.n) {
		return badFrame(err, "bad need count")
	}
	m.sends = make([]sentCopy, count)
	size := encoding.UvarintLen(count)
	var o ordinals
	for i := range m.sends {
		gap, err := m.fr.uvarint()
		if err != nil {
			return badFrame(err, "bad need ordinal")
		}
		ord, err := o.take(gap, m.shipped.n)
		if err != nil {
			return fmt.Errorf("%w: need: %v", ErrProtocol, err)
		}
		d := m.shipped.digest(ord)
		s := &m.sends[i]
		s.ord, s.entry.Key = ord, d.Key
		v, ok := m.local.Stored(d.Key)
		if !ok {
			// Vanished since the digest (a tombstone GC can drop keys); the
			// next round reconciles it.
			s.gone = true
			size++
			continue
		}
		s.entry = encoding.Entry{Key: d.Key, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp}
		s.moved = !v.Stamp.Equal(d.Stamp)
		size += encoding.EntryBodyLen(s.entry, s.moved)
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
	m.fw.begin(kindEntries, size)
	m.entriesSent = true
	m.fw.buf = binary.AppendUvarint(m.fw.buf, count)
	for i := range m.sends {
		s := &m.sends[i]
		if s.gone {
			m.fw.buf = encoding.AppendVanishedBody(m.fw.room(1))
		} else {
			m.fw.buf = encoding.AppendEntryBody(m.fw.room(encoding.EntryBodyLen(s.entry, s.moved)), s.entry, s.moved)
		}
	}
	m.want = kindResult
	return nil
}

// applyResult takes the result: it checks the reply against what the round
// shipped and applies it. The shipped copies pin every reply copy to the
// exact copy this round sent. They are read off the round's trees, which
// are released only once the reply is in, and before the fold, so it
// patches in place.
func (m *clientRound) applyResult() error {
	part, reply, refs, err := decodeResultFrame(&m.fr, len(m.sends), m.shipped.n)
	if err != nil {
		return err
	}
	m.result.Add(part)
	if err := m.checkReply(reply, refs); err != nil {
		return err
	}
	m.local.ApplyDeltaReply(reply,
		func(i int) *encoding.Entry { return &m.sends[refs.restamps[i]].entry },
		func(i int) kvstore.Shipped { return m.shippedOf(refs.entries[i]) })
	m.release()
	m.root = 0
	for _, idx := range m.stripes {
		r, err := m.local.StripeRoot(idx)
		if err != nil {
			return fmt.Errorf("antientropy: %w", err)
		}
		m.root ^= r
	}
	return nil
}

// checkReply gives each reply copy the result names by ordinal its key, and
// refuses, before anything is applied, a result that names a key the round
// did not hand the server. A restamp may only be of a need this round
// answered with an entry: a restamp carries no value, so the client must
// already hold the one it names. An entry named by its key must lie inside
// the leaf ranges this round shipped — mirroring the server's own check, so
// a faulty peer cannot slip keys into subtrees this round declared converged
// — and be a key they did not hold, as those the result names by ordinal.
// No key may be in both lists.
func (m *clientRound) checkReply(reply kvstore.DeltaReply, refs replyRefs) error {
	for i, need := range refs.restamps {
		s := &m.sends[need]
		if s.gone {
			return fmt.Errorf("%w: reply restamp of %q, which this round did not ship in full", ErrProtocol, s.entry.Key)
		}
		reply.Restamps[i].Key = s.entry.Key
	}
	for i, ord := range refs.entries {
		e := &reply.Entries[i]
		if ord >= 0 {
			e.Key = m.shipped.digest(ord).Key
			if need, ok := m.needOf(ord); ok {
				if _, both := slices.BinarySearch(refs.restamps, need); both {
					return fmt.Errorf("%w: reply names %q as both a restamp and an entry", ErrProtocol, e.Key)
				}
			}
			continue
		}
		stripe, pos := kvstore.ShardIndex(e.Key, m.of), encoding.TreePos(e.Key)
		if m.shipped.runAt(stripe, pos) < 0 {
			return fmt.Errorf("%w: reply entry %q outside the divergent leaf ranges", ErrProtocol, e.Key)
		}
		if m.shipped.ordinal(stripe, pos, e.Key) >= 0 {
			return fmt.Errorf("%w: reply names shipped key %q by its bytes", ErrProtocol, e.Key)
		}
	}
	return nil
}

// needOf returns the place in the need frame of the need for digest ordinal
// ord, if the server needed that key.
func (m *clientRound) needOf(ord int) (int, bool) {
	return slices.BinarySearchFunc(m.sends, ord, func(s sentCopy, ord int) int { return cmp.Compare(s.ord, ord) })
}

// shippedOf returns what the round shipped of the key a reply entry names by
// digest ordinal ord, or by its key (-1): the entry that answered its need,
// if the server needed it, or else its digest.
func (m *clientRound) shippedOf(ord int) kvstore.Shipped {
	if ord < 0 {
		return kvstore.Shipped{}
	}
	if need, ok := m.needOf(ord); ok {
		if s := &m.sends[need]; !s.gone {
			return kvstore.Shipped{Stamp: s.entry.Stamp, Ok: true, Full: &s.entry}
		}
		return kvstore.Shipped{}
	}
	return kvstore.Shipped{Stamp: m.shipped.digest(ord).Stamp, Ok: true}
}

// shippedRuns is the digest runs a round's client shipped, in walk order:
// stripe, then position, each run's digests in tree order. That order
// numbers the digests: a digest's ordinal is its place in it, counted from 0
// across the runs.
type shippedRuns struct {
	runs []leafRun
	n    int // digests across the runs
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

// digest returns the digest of ordinal ord, which must be below n.
func (sr *shippedRuns) digest(ord int) *encoding.Digest {
	r := &sr.runs[sort.Search(len(sr.runs), func(i int) bool { return sr.runs[i].first > ord })-1]
	return r.digest(ord - r.first)
}

// ordinal returns the ordinal of the digest of key, at pos in stripe, or -1
// if the runs shipped none.
func (sr *shippedRuns) ordinal(stripe int, pos uint64, key string) int {
	r := sr.runAt(stripe, pos)
	if r < 0 {
		return -1
	}
	run := &sr.runs[r]
	j := sort.Search(run.len(), func(j int) bool {
		k := run.digest(j).Key
		p := encoding.TreePos(k)
		return p > pos || p == pos && k >= key
	})
	if j == run.len() || run.digest(j).Key != key {
		return -1
	}
	return run.first + j
}
