package antientropy

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"time"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// The session: the server's round loop and the client's round, both walking
// the stripes' digest trees (kvstore.DigestTree) from the replica root
// toward the leaves that differ. See the package comment for the frame
// grammar.
//
// The tree shape (fanout, depth) is the *client's* choice, declared on the
// wire per stripe; the server evaluates its own data under that shape
// (kvstore.Replica.StripeTreeAt), the maintained tree whenever the shape
// matches its own policy — which it does between converged replicas, whose
// per-stripe key counts (and therefore TreeShape results) agree. A stripe
// whose count crosses a shape threshold simply descends at the new depth
// next round. The stripe layout is not a choice: both ends must stripe the
// keyspace the same way, and the server refuses any other peer (checkLayout).

// serverSession is the server's state for one connection: the frame reader
// and writer, the scratch tree-node children are read into and the scratch
// the client's node hashes are decoded into, all kept from round to round.
type serverSession struct {
	*Server
	fr        frameReader
	fw        frameWriter
	bm        []byte   // DigestTree.Children scratch: child bitmap
	hashes    []uint64 // DigestTree.Children scratch: child hashes
	cliHashes []uint64 // encoding.DecodeTreeNode scratch: the client's child hashes
}

// handle serves one connection: check and ack the version byte, then a loop
// of rounds. The deadline is relaxed to serverSessionIdle while waiting for
// a round to open and tightened to defaultTimeout while one is in flight.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(defaultTimeout))
	ss := &serverSession{Server: s, fr: frameReader{br: bufio.NewReader(conn)}, fw: frameWriter{w: conn}}
	if b, err := ss.fr.br.ReadByte(); err != nil || b != protocolVersion {
		return // not a session opening: closed unanswered
	}
	if _, err := conn.Write([]byte{protocolVersion}); err != nil {
		return
	}
	for {
		_ = conn.SetDeadline(time.Now().Add(serverSessionIdle))
		kind, err := ss.fr.next()
		if err != nil {
			return // session over: peer closed, or idled out
		}
		_ = conn.SetDeadline(time.Now().Add(defaultTimeout))
		if !ss.treeRound(kind) {
			return
		}
		ss.fr.trim()
		ss.fw.trim()
	}
}

// send ends the frame being written, reporting success.
func (ss *serverSession) send() bool { return ss.fw.end() == nil }

// checkLayout refuses a peer whose stripe count `of` is not this replica's:
// every tree a round compares is one stripe's, so both ends must agree on
// which keys each stripe holds.
func (s *Server) checkLayout(of int) error {
	if n := s.replica.Shards(); of != n {
		return fmt.Errorf("stripe layout mismatch: peer has %d stripes, this replica %d", of, n)
	}
	return nil
}

// treeRootMatch answers a root or probe body: 1 when the peer's root equals
// the fold of this replica's stripe tree roots, folded as the maintained
// trees yield them, with nothing collected.
//
// A probe never folds writes into the trees. It arrives after a round, at
// a time the round does not decide, and may race writes still landing; a
// fold then would split one burst over two patches, so the work a later
// round does would depend on timing. A probe that finds a stripe with
// unfolded writes answers 0 instead. That sends the client to the stripe
// roots, whose round folds them.
func (s *Server) treeRootMatch(of int, peerRoot uint64, probe bool) (byte, error) {
	if err := s.checkLayout(of); err != nil {
		return 0, err
	}
	root := encoding.RootSummarySeed
	for i := 0; i < of; i++ {
		var r uint64
		if probe {
			var ok bool
			if r, ok = s.replica.FoldedStripeRoot(i); !ok {
				return 0, nil
			}
		} else {
			var err error
			if r, err = s.replica.StripeRoot(i); err != nil {
				return 0, err
			}
		}
		root = encoding.FoldSummary(root, r)
	}
	if root == peerRoot {
		return 1, nil
	}
	return 0, nil
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

// treeRound serves one round, the opening frame's kind byte already read. It
// reports whether the session should continue.
func (ss *serverSession) treeRound(kind byte) bool {
	s, fr, fw := ss.Server, &ss.fr, &ss.fw
	fail := func(err error) bool {
		if fw.midFrame() {
			return false // part of a reply is on the wire: no frame can follow it
		}
		msg := err.Error()
		fw.begin(kindError, stringLen(msg))
		fw.buf = appendString(fw.buf, msg)
		_ = fw.end()
		return false
	}
	// rootMatch answers a root or probe frame.
	rootMatch := func(probe bool) (byte, bool) {
		of, root, err := readRoot(fr)
		if err != nil {
			return 0, fail(err)
		}
		match, err := s.treeRootMatch(of, root, probe)
		if err != nil {
			return 0, fail(err)
		}
		fw.begin(kindRootMatch, 1)
		fw.buf = append(fw.buf, match)
		return match, ss.send()
	}

	// A probe is answered without opening any round state: the session stays
	// at the round boundary, and the next frame opens a real round (or
	// another probe).
	if kind == kindRootProbe {
		_, ok := rootMatch(true)
		return ok
	}

	// Whole-replica rounds open with the root fold; matching roots end the
	// round right there. Scoped rounds open with kindStripeRoots directly.
	if kind == kindRoot {
		match, ok := rootMatch(false)
		if !ok || match == 1 {
			return ok // converged: round over, session stays open
		}
		var err error
		if kind, err = fr.next(); err != nil {
			return fail(fmt.Errorf("bad stripe roots frame: %v", err))
		}
	}

	// Stripe-root phase: compare each declared stripe's tree root at the
	// client's declared shape, reply with the divergent stripes.
	if err := fr.is(kind, kindStripeRoots); err != nil {
		return fail(err)
	}
	of64, err := fr.uvarint()
	if err != nil || of64 < 1 || of64 > maxWireStripes {
		return fail(errors.New("bad stripe roots layout"))
	}
	of := int(of64)
	if err := s.checkLayout(of); err != nil {
		return fail(err)
	}
	fan64, err := fr.uvarint()
	if err != nil || !encoding.ValidTreeShape(int(fan64), 1) {
		return fail(errors.New("bad tree fanout"))
	}
	fanout := int(fan64)
	count, err := fr.uvarint()
	if err != nil || count > of64 {
		return fail(errors.New("bad stripe roots count"))
	}
	stripes := make(map[int]*treeStripeState, 8)
	// Every divergent stripe's tree is held until the apply is done; a round
	// that ends before then releases them here.
	defer func() {
		for idx, st := range stripes {
			if st != nil && st.tree != nil {
				s.replica.ReleaseStripeTree(idx)
			}
		}
	}()
	var divergent []int
	for i := uint64(0); i < count; i++ {
		idx64, err := fr.uvarint()
		if err != nil || idx64 >= of64 {
			return fail(errors.New("bad stripe roots stripe"))
		}
		depth64, err := fr.uvarint()
		if err != nil || !encoding.ValidTreeShape(fanout, int(depth64)) {
			return fail(errors.New("bad stripe tree depth"))
		}
		b, err := fr.bytes(8)
		if err != nil {
			return fail(errors.New("truncated stripe root"))
		}
		root := binary.BigEndian.Uint64(b)
		idx := int(idx64)
		if _, dup := stripes[idx]; dup {
			return fail(errors.New("duplicate stripe"))
		}
		tree, err := s.replica.StripeTreeAt(idx, fanout, int(depth64))
		if err != nil {
			return fail(err)
		}
		if tree.Root() != root {
			stripes[idx] = &treeStripeState{tree: tree, depth: int(depth64)}
			divergent = append(divergent, idx)
		} else {
			stripes[idx] = nil // declared and converged
			s.replica.ReleaseStripeTree(idx)
		}
	}
	if fr.remaining() != 0 {
		return fail(errors.New("trailing bytes in stripe roots frame"))
	}
	size := encoding.UvarintLen(uint64(len(divergent)))
	for _, idx := range divergent {
		size += encoding.UvarintLen(uint64(idx))
	}
	fw.begin(kindStripeRootDiff, size)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(divergent)))
	for _, idx := range divergent {
		fw.buf = binary.AppendUvarint(fw.room(binary.MaxVarintLen64), uint64(idx))
	}
	if !ss.send() {
		return false
	}
	if len(divergent) == 0 {
		return true // round over; the session stays open for the next one
	}

	// Descent: any number of kindTreeNodes queries, answered from the
	// per-round tree snapshots node by node, until the leaf runs arrive.
	nb := encoding.TreeBitmapLen(fanout)
descend:
	for {
		if kind, err = fr.next(); err != nil {
			return fail(fmt.Errorf("bad descent frame: %v", err))
		}
		switch kind {
		case kindTreeNodes:
		case kindLeafDigests:
			break descend
		default:
			return fail(fr.is(kind, kindTreeNodes))
		}
		fan64, err := fr.uvarint()
		if err != nil || int(fan64) != fanout {
			return fail(errors.New("bad tree nodes fanout"))
		}
		// Every node takes at least its four coordinates and its bitmap.
		n, err := fr.uvarint()
		if err != nil || n > uint64(fr.remaining()/(4+nb)) {
			return fail(errors.New("bad tree nodes count"))
		}
		fw.begin(kindTreeDiff, encoding.UvarintLen(n)+int(n)*2*nb)
		fw.buf = binary.AppendUvarint(fw.buf, n)
		for i := uint64(0); i < n; i++ {
			var node encoding.TreeNode
			if err := fr.elem(func(b []byte) (used int, err error) {
				node, used, err = encoding.DecodeTreeNode(b, fanout, of, ss.cliHashes[:0])
				return used, err
			}); err != nil {
				return fail(err)
			}
			ss.cliHashes = node.Hashes
			st := stripes[node.Stripe]
			if st == nil {
				return fail(fmt.Errorf("tree node for undeclared stripe %d", node.Stripe))
			}
			if node.Depth != st.depth {
				return fail(fmt.Errorf("tree node depth %d, stripe declared %d", node.Depth, st.depth))
			}
			ss.bm, ss.hashes = st.tree.Children(ss.bm[:0], ss.hashes[:0], node.Level, node.Path)
			srvBm, srvHashes := ss.bm, ss.hashes
			// differ bit c: exactly one side has child c, or both do with
			// different hashes.
			fw.buf = append(fw.room(2*nb), make([]byte, nb)...)
			differ := fw.buf[len(fw.buf)-nb:]
			ci, si := 0, 0
			for c := 0; c < fanout; c++ {
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
		if fr.remaining() != 0 {
			return fail(errors.New("trailing bytes in tree nodes frame"))
		}
		if !ss.send() {
			return false
		}
	}

	// Leaf phase: the client's digest runs for the still-divergent leaf
	// ranges, decoded one at a time. A key this side holds under the run's
	// node is taken from the round's tree snapshot rather than copied; that
	// every digest lies in its run's stripe and range is the store's to
	// check (DiffRanges).
	n, err := fr.uvarint()
	if err != nil {
		return fail(errors.New("bad leaf run count"))
	}
	local := func(stripe, level int, path uint64) []encoding.Digest {
		if st := stripes[stripe]; st != nil {
			return st.tree.RunRange(kvstore.NodeRange(fanout, level, path))
		}
		return nil
	}
	runs := make([]leafRun, 0, fr.capCount(n))
	var order []int // stripes with leaf runs, first-seen order
	for i := uint64(0); i < n; i++ {
		var run encoding.LeafRun
		if err := fr.elem(func(b []byte) (used int, err error) {
			run, used, err = encoding.DecodeLeafRun(b, fanout, of, local)
			return used, err
		}); err != nil {
			return fail(err)
		}
		st := stripes[run.Stripe]
		if st == nil {
			return fail(fmt.Errorf("leaf run for undeclared stripe %d", run.Stripe))
		}
		if run.Depth != st.depth {
			return fail(fmt.Errorf("leaf run depth %d, stripe declared %d", run.Depth, st.depth))
		}
		if !st.leaf {
			st.leaf = true
			order = append(order, run.Stripe)
		}
		runs = append(runs, leafRun{run.Stripe, kvstore.DigestRun{
			Range: kvstore.NodeRange(fanout, run.Level, run.Path), Digests: run.Digests}})
	}
	if fr.remaining() != 0 {
		return fail(errors.New("trailing bytes in leaf digests frame"))
	}

	// The runs, put in stripe and position order, hand each stripe's store
	// its runs as they came. Runs of one descent never overlap; two that
	// start at one position are the same node sent twice.
	slices.SortFunc(runs, cmpLeafRuns)
	byStripe := make([]kvstore.DigestRun, len(runs))
	for i, run := range runs {
		if i > 0 && run.stripe == runs[i-1].stripe && run.Range.Lo == runs[i-1].Range.Lo {
			return fail(errors.New("duplicate leaf run"))
		}
		byStripe[i] = run.DigestRun
		st := stripes[run.stripe] // its runs are contiguous: extend them by one
		st.runs = byStripe[i-len(st.runs) : i+1]
	}
	needCount, needSize := 0, 0
	for _, idx := range order {
		st := stripes[idx]
		if st.diff, err = s.replica.DiffRanges(st.runs, idx); err != nil {
			return fail(err)
		}
		for _, k := range st.diff.Need {
			needSize += stringLen(k)
		}
		needCount += len(st.diff.Need)
	}
	fw.begin(kindNeed, encoding.UvarintLen(uint64(needCount))+needSize)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(needCount))
	for _, idx := range order {
		for _, k := range stripes[idx].diff.Need {
			fw.buf = appendString(fw.room(stringLen(k)), k)
		}
	}
	if !ss.send() {
		return false
	}

	// Tail: full entries in, range-scoped applies per stripe, one result.
	if kind, err = fr.next(); err != nil {
		return fail(fmt.Errorf("bad entries frame: %v", err))
	}
	if err := fr.is(kind, kindEntries); err != nil {
		return fail(err)
	}
	if count, err = fr.uvarint(); err != nil {
		return fail(errors.New("bad entry count"))
	}
	// The client sends the entries stripe by stripe, in the need frame's
	// order; each stripe's run of them is handed to the store as it stands.
	// A key is taken from its stripe's need list, where this side asked
	// for it.
	needed := func(key []byte) (string, bool) {
		st := stripes[kvstore.ShardIndex(key, of)]
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
			return fail(err)
		}
		idx := kvstore.ShardIndex(e.Key, of)
		st := stripes[idx]
		if st == nil || !kvstore.RangesContain(st.runs, encoding.TreePos(e.Key)) {
			return fail(fmt.Errorf("entry %q outside the divergent leaf ranges", e.Key))
		}
		if len(st.entries) > 0 && kvstore.ShardIndex(entries[len(entries)-1].Key, of) != idx {
			return fail(fmt.Errorf("entry %q out of stripe order", e.Key))
		}
		entries = append(entries, e)
		st.entries = entries[len(entries)-len(st.entries)-1:]
	}
	if fr.remaining() != 0 {
		return fail(errors.New("trailing bytes in entries frame"))
	}

	// One reply spans the stripes, sized once from what their diffs bound.
	restamps, full := 0, 0
	for _, idx := range order {
		st := stripes[idx]
		r, f := st.diff.ReplyRoom(len(st.entries))
		restamps, full = restamps+r, full+f
	}
	reply := kvstore.DeltaReply{
		Restamps: make([]encoding.Digest, 0, restamps),
		Entries:  make([]encoding.Entry, 0, full),
	}
	var res kvstore.SyncResult
	for _, idx := range order {
		st := stripes[idx]
		var part kvstore.SyncResult
		reply, part, err = s.replica.ApplyDeltaRanges(reply, st.runs, st.entries, s.resolve, idx)
		if err != nil {
			return fail(err)
		}
		res.Add(part)
	}
	// Each stripe's part is sorted by key; the frame's lists are sorted whole.
	slices.SortFunc(reply.Restamps, func(a, b encoding.Digest) int { return strings.Compare(a.Key, b.Key) })
	slices.SortFunc(reply.Entries, func(a, b encoding.Entry) int { return strings.Compare(a.Key, b.Key) })
	// The round's snapshots are done with. Releasing them before the fold
	// lets it patch the trees in place, and before the result frame leaves
	// no hold out once the client can act on the round.
	for _, idx := range divergent {
		s.replica.ReleaseStripeTree(idx)
		stripes[idx].tree = nil
	}
	// Fold this round's writes into the maintained trees before answering:
	// the root probe that follows the result then finds them current, and
	// the patch never races the writes that come after the round.
	for _, idx := range order {
		if _, err := s.replica.StripeRoot(idx); err != nil {
			return fail(err)
		}
	}
	return writeResultFrame(fw, res, reply) == nil
}

// treeClientRound runs one round over pc's established session, on the
// stripe trees the pool loaded into pc.trees. stripes selects the scoped
// stripe set; nil means every local stripe (a whole-replica round, with the
// root fast path and probe pipelining).
func treeClientRound(pc *poolConn, local *kvstore.Replica, stripes []int) (kvstore.SyncResult, error) {
	fr, fw, trees := &pc.fr, &pc.fw, pc.trees
	of := local.Shards()
	wholeReplica := stripes == nil
	if wholeReplica {
		stripes = pc.every(of)
	}
	fanout := treeFanout
	if len(stripes) > 0 {
		fanout = trees[stripes[0]].Fanout() // TreeShape picks one fan-out for every stripe
	}

	// readAck consumes the server's one-byte session ack the first time a
	// frame reply is awaited on a fresh session. Called after the opening
	// frame is written, so the session opening rides the same round trip.
	readAck := func() error {
		if !pc.ackPending {
			return nil
		}
		pc.ackPending = false
		b, err := fr.br.ReadByte()
		if err != nil {
			return fmt.Errorf("antientropy: session ack: %w", err)
		}
		if b != protocolVersion {
			return fmt.Errorf("%w: session opening answered with 0x%02x, not the 0x%02x ack",
				ErrProtocol, b, protocolVersion)
		}
		return nil
	}
	// sendProbe ends a successful round: it releases the round's stripe
	// trees, so none is held once the server can act on the round, and
	// pipelines the next round's root check behind this round. A write
	// failure is deliberately swallowed: the round itself already succeeded
	// on both sides, and the dead connection is discovered (and redialed)
	// by the next round's opening instead.
	sendProbe := func(root uint64) {
		pc.release(local)
		if !wholeReplica {
			return
		}
		if writeRoot(fw, kindRootProbe, of, root) == nil {
			pc.probePending, pc.probedRoot = true, root
		}
	}
	// readRootMatch reads a kindRootMatch answer: true when the roots agree.
	readRootMatch := func() (bool, error) {
		if err := fr.expect(kindRootMatch); err != nil {
			return false, err
		}
		b, err := fr.bytes(1)
		if err != nil || fr.remaining() != 0 || b[0] > 1 {
			return false, badFrame(err, "bad root match frame")
		}
		return b[0] == 1, nil
	}

	skipRoot := false
	root := encoding.RootSummarySeed
	if wholeReplica {
		for _, idx := range stripes {
			root = encoding.FoldSummary(root, trees[idx].Root())
		}
	}
	if pc.probePending {
		// The previous round left a probe in flight; its answer is the next
		// frame on the wire and must be consumed before anything else.
		pc.probePending = false
		match, err := readRootMatch()
		if err != nil {
			return kvstore.SyncResult{}, err
		}
		if wholeReplica && root == pc.probedRoot {
			if match {
				// The probe *was* this round's root exchange: converged, and
				// nothing moved locally since. Re-arm and finish without a
				// single unanswered frame on the wire.
				sendProbe(root)
				return kvstore.SyncResult{StripesSkipped: of}, nil
			}
			skipRoot = true // known mismatch: go straight to the stripe roots
		}
		// Otherwise local state moved since the probe; run the full round.
	}

	if wholeReplica && !skipRoot {
		if err := writeRoot(fw, kindRoot, of, root); err != nil {
			return kvstore.SyncResult{}, fmt.Errorf("antientropy: send root: %w", err)
		}
		if err := readAck(); err != nil {
			return kvstore.SyncResult{}, err
		}
		match, err := readRootMatch()
		if err != nil {
			return kvstore.SyncResult{}, err
		}
		if match {
			sendProbe(root)
			return kvstore.SyncResult{StripesSkipped: of}, nil
		}
	}

	// Stripe-root phase: one (stripe, depth, root) triple per scoped stripe.
	size := encoding.UvarintLen(uint64(of)) + encoding.UvarintLen(uint64(fanout)) + encoding.UvarintLen(uint64(len(stripes)))
	for _, idx := range stripes {
		size += encoding.UvarintLen(uint64(idx)) + encoding.UvarintLen(uint64(trees[idx].Depth())) + 8
	}
	fw.begin(kindStripeRoots, size)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(of))
	fw.buf = binary.AppendUvarint(fw.buf, uint64(fanout))
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(stripes)))
	for _, idx := range stripes {
		t := trees[idx]
		fw.buf = binary.AppendUvarint(fw.room(2*binary.MaxVarintLen64+8), uint64(idx))
		fw.buf = binary.AppendUvarint(fw.buf, uint64(t.Depth()))
		fw.buf = binary.BigEndian.AppendUint64(fw.buf, t.Root())
	}
	if err := fw.end(); err != nil {
		return kvstore.SyncResult{}, fmt.Errorf("antientropy: send stripe roots: %w", err)
	}
	if err := readAck(); err != nil {
		return kvstore.SyncResult{}, err
	}
	if err := fr.expect(kindStripeRootDiff); err != nil {
		return kvstore.SyncResult{}, err
	}
	count, err := fr.uvarint()
	if err != nil || count > uint64(len(stripes)) {
		return kvstore.SyncResult{}, badFrame(err, "bad stripe root diff count")
	}
	divergent := make([]int, 0, count)
	for i := uint64(0); i < count; i++ {
		idx64, err := fr.uvarint()
		if err != nil || idx64 >= uint64(of) || trees[idx64] == nil { // only stripes this round sent
			return kvstore.SyncResult{}, badFrame(err, "bad stripe root diff stripe")
		}
		divergent = append(divergent, int(idx64))
	}
	if fr.remaining() != 0 {
		return kvstore.SyncResult{}, fmt.Errorf("%w: trailing bytes in stripe root diff frame", ErrProtocol)
	}
	var res kvstore.SyncResult
	res.StripesSkipped = len(stripes) - len(divergent)
	if len(divergent) == 0 {
		sendProbe(root)
		return res, nil
	}

	// Descent: walk the divergent stripes' trees level by level, querying
	// only the children the server flagged as differing. A child that
	// differs becomes a leaf request when it sits at the bottom, or when
	// either side's subtree is empty (nothing left to narrow).
	type nodeCoord struct {
		stripe, level int
		path          uint64
	}
	fbits := encoding.TreeFanoutBits(fanout)
	nb := encoding.TreeBitmapLen(fanout)
	frontier := make([]nodeCoord, 0, len(divergent))
	for _, idx := range divergent {
		frontier = append(frontier, nodeCoord{stripe: idx})
	}
	// node reads the frontier node nc's children off its tree.
	node := func(nc nodeCoord) encoding.TreeNode {
		t := trees[nc.stripe]
		pc.bm, pc.hashes = t.Children(pc.bm[:0], pc.hashes[:0], nc.level, nc.path)
		return encoding.TreeNode{Stripe: nc.stripe, Depth: t.Depth(), Level: nc.level, Path: nc.path,
			Bitmap: pc.bm, Hashes: pc.hashes}
	}
	var leafReqs []nodeCoord
	for len(frontier) > 0 {
		size := encoding.UvarintLen(uint64(fanout)) + encoding.UvarintLen(uint64(len(frontier)))
		for _, nc := range frontier {
			size += encoding.TreeNodeLen(node(nc))
		}
		fw.begin(kindTreeNodes, size)
		fw.buf = binary.AppendUvarint(fw.buf, uint64(fanout))
		fw.buf = binary.AppendUvarint(fw.buf, uint64(len(frontier)))
		for _, nc := range frontier {
			n := node(nc)
			fw.buf = encoding.AppendTreeNode(fw.room(encoding.TreeNodeLen(n)), n)
		}
		if err := fw.end(); err != nil {
			return res, fmt.Errorf("antientropy: send tree nodes: %w", err)
		}
		if err := fr.expect(kindTreeDiff); err != nil {
			return res, err
		}
		n, err := fr.uvarint()
		if err != nil || n != uint64(len(frontier)) {
			return res, badFrame(err, fmt.Sprintf("tree diff count %d, want %d", n, len(frontier)))
		}
		if fr.remaining() != len(frontier)*2*nb {
			return res, fmt.Errorf("%w: bad tree diff frame length", ErrProtocol)
		}
		var next []nodeCoord
		for _, nc := range frontier {
			b, err := fr.bytes(2 * nb)
			if err != nil {
				return res, err
			}
			differ, srvBm := b[:nb], b[nb:]
			cliBm := node(nc).Bitmap
			for c := 0; c < fanout; c++ {
				if !encoding.BitmapGet(differ, c) {
					continue
				}
				child := nodeCoord{
					stripe: nc.stripe, level: nc.level + 1,
					path: nc.path<<uint(fbits) | uint64(c),
				}
				if child.level == trees[nc.stripe].Depth() || !encoding.BitmapGet(cliBm, c) ||
					!encoding.BitmapGet(srvBm, c) {
					leafReqs = append(leafReqs, child)
				} else {
					next = append(next, child)
				}
			}
		}
		frontier = next
	}

	// Leaf phase: ship the digest runs under the divergent leaf ranges, sized
	// before they are encoded. The runs are kept: the reply may only touch
	// their ranges, and is applied against the stamps they carried.
	shipped := shippedRuns{of: of, runs: make([]leafRun, len(leafReqs))}
	wireRun := func(i int) encoding.LeafRun {
		nc := leafReqs[i]
		return encoding.LeafRun{Stripe: nc.stripe, Depth: trees[nc.stripe].Depth(), Level: nc.level, Path: nc.path,
			Digests: shipped.runs[i].Digests}
	}
	size = encoding.UvarintLen(uint64(len(leafReqs)))
	for i, nc := range leafReqs {
		shipped.runs[i].stripe = nc.stripe
		shipped.runs[i].Range = kvstore.NodeRange(fanout, nc.level, nc.path)
		shipped.runs[i].Digests = trees[nc.stripe].Run(nc.level, nc.path)
		size += encoding.LeafRunLen(wireRun(i))
	}
	fw.begin(kindLeafDigests, size)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(leafReqs)))
	for i := range leafReqs {
		r := wireRun(i)
		fw.buf = encoding.AppendLeafRun(fw.room(encoding.LeafRunLen(r)), r)
	}
	if err := fw.end(); err != nil {
		return res, fmt.Errorf("antientropy: send leaf digests: %w", err)
	}
	slices.SortFunc(shipped.runs, cmpLeafRuns)

	// Tail: needs in, entries out, result in.
	if err := fr.expect(kindNeed); err != nil {
		return res, err
	}
	if count, err = fr.uvarint(); err != nil {
		return res, badFrame(err, "bad need count")
	}
	sends := make([]encoding.Entry, 0, fr.capCount(count))
	size = 0
	for i := uint64(0); i < count; i++ {
		k, err := fr.str(shipped.key)
		if err != nil {
			return res, badFrame(err, "bad need key")
		}
		v, ok := local.Stored(k)
		if !ok {
			// Vanished since the digest (a tombstone GC can drop keys); the
			// next round reconciles it.
			shipped.note(k, core.Stamp{}, false)
			continue
		}
		if st, sent := shipped.stamp(k); !sent || !st.Equal(v.Stamp) {
			shipped.note(k, v.Stamp, true) // moved since its digest
		}
		e := encoding.Entry{Key: k, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp}
		sends = append(sends, e)
		size += encoding.EntryLen(e)
	}
	if fr.remaining() != 0 {
		return res, fmt.Errorf("%w: trailing bytes in need frame", ErrProtocol)
	}
	// Point of no return: once any byte of the entries frame is on the wire,
	// the server may receive the complete frame and apply it even if this
	// side only sees a dead connection. Retrying such a round on a fresh
	// dial would ship the same entries against already-forked server stamps
	// — the copies would compare as causally unrelated and reconcile by
	// reseeding (double-apply). Every failure from here on is therefore
	// marked ErrRetryUnsafe; the pool surfaces it instead of redialing, and
	// the next round's digest exchange reconciles whatever state the server
	// actually reached.
	fw.begin(kindEntries, encoding.UvarintLen(uint64(len(sends)))+size)
	fw.buf = binary.AppendUvarint(fw.buf, uint64(len(sends)))
	for _, e := range sends {
		fw.buf = encoding.AppendEntry(fw.room(encoding.EntryLen(e)), e)
	}
	if err := fw.end(); err != nil {
		return res, fmt.Errorf("%w: send entries: %w", ErrRetryUnsafe, err)
	}
	slices.SortFunc(sends, func(a, b encoding.Entry) int { return strings.Compare(a.Key, b.Key) })

	// A reply key is taken from the entries this round sent, or else from
	// the digest runs it shipped.
	sent := func(key []byte) (string, bool) {
		i := sort.Search(len(sends), func(i int) bool { return sends[i].Key >= string(key) })
		if i < len(sends) && sends[i].Key == string(key) {
			return sends[i].Key, true
		}
		return shipped.key(key)
	}
	err = fr.expect(kindResult)
	var part kvstore.SyncResult
	var reply kvstore.DeltaReply
	if err == nil {
		part, reply, err = decodeResultFrame(fr, sent)
	}
	if errors.Is(err, errRecv) {
		return res, fmt.Errorf("%w: %w", ErrRetryUnsafe, err)
	}
	if err != nil {
		return res, err
	}
	res.Add(part)
	if err := checkReply(reply, sends, &shipped); err != nil {
		return res, err
	}
	// The shipped copies pin every reply copy to the exact copy this round
	// sent. They are read off the round's trees, which are released only
	// once the reply is in, and before the fold, so it patches in place.
	local.ApplyDeltaReply(reply, sends, shipped.stamp)
	pc.release(local)
	root = encoding.RootSummarySeed
	for _, idx := range stripes {
		r, err := local.StripeRoot(idx)
		if err != nil {
			return res, fmt.Errorf("antientropy: %w", err)
		}
		root = encoding.FoldSummary(root, r)
	}
	sendProbe(root)
	return res, nil
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
	i := sr.find(key)
	if i < 0 {
		return core.Stamp{}, false
	}
	ds, pos := sr.runs[i].Digests, encoding.TreePos(key)
	j := sort.Search(len(ds), func(j int) bool {
		p := encoding.TreePos(ds[j].Key)
		return p > pos || p == pos && ds[j].Key >= key
	})
	if j == len(ds) || ds[j].Key != key {
		return core.Stamp{}, false
	}
	return ds[j].Stamp, true
}

// key returns the string the round's digest runs hold for the key spelled
// b, if they hold it: the client's own copy of the key, from its tree
// snapshot.
func (sr *shippedRuns) key(b []byte) (string, bool) {
	pos := encoding.TreePos(b)
	i := sr.runAt(kvstore.ShardIndex(b, sr.of), pos)
	if i < 0 {
		return "", false
	}
	ds := sr.runs[i].Digests
	j := sort.Search(len(ds), func(j int) bool {
		p := encoding.TreePos(ds[j].Key)
		return p > pos || p == pos && ds[j].Key >= string(b)
	})
	if j == len(ds) || ds[j].Key != string(b) {
		return "", false
	}
	return ds[j].Key, true
}

// note records that key shipped as stamp (ok), or not at all (!ok), whatever
// its digest said.
func (sr *shippedRuns) note(key string, stamp core.Stamp, ok bool) {
	if sr.moved == nil {
		sr.moved = make(map[string]shippedStamp)
	}
	sr.moved[key] = shippedStamp{stamp, ok}
}

// treeFanout mirrors kvstore's local fan-out policy for the degenerate
// empty-round fallback above.
const treeFanout = 16
