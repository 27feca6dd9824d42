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

// serverSession is the server's state for one connection: the frame reader,
// the buffer replies are built in and the scratch tree-node children are
// read into, all kept from round to round.
type serverSession struct {
	*Server
	conn   net.Conn
	fr     frameReader
	out    []byte
	bm     []byte   // DigestTree.Children scratch: child bitmap
	hashes []uint64 // DigestTree.Children scratch: child hashes
}

// handle serves one connection: check and ack the version byte, then a loop
// of rounds. The deadline is relaxed to serverSessionIdle while waiting for
// a round to open and tightened to defaultTimeout while one is in flight.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(defaultTimeout))
	ss := &serverSession{Server: s, conn: conn, fr: frameReader{br: bufio.NewReader(conn)}}
	if b, err := ss.fr.br.ReadByte(); err != nil || b != protocolVersion {
		return // not a session opening: closed unanswered
	}
	if _, err := conn.Write([]byte{protocolVersion}); err != nil {
		return
	}
	for {
		_ = conn.SetDeadline(time.Now().Add(serverSessionIdle))
		body, err := ss.fr.read()
		if err != nil {
			return // session over: peer closed, or idled out
		}
		_ = conn.SetDeadline(time.Now().Add(defaultTimeout))
		ok := ss.treeRound(body)
		ss.out = keepBuf(ss.out)
		if !ok {
			return
		}
	}
}

// send writes the frame built in ss.out, reporting success.
func (ss *serverSession) send() bool { return writeFrame(ss.conn, ss.out) == nil }

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
func (s *Server) treeRootMatch(of int, peerRoot uint64) (byte, error) {
	if err := s.checkLayout(of); err != nil {
		return 0, err
	}
	root := encoding.RootSummarySeed
	for i := 0; i < of; i++ {
		t, err := s.replica.StripeTree(i)
		if err != nil {
			return 0, err
		}
		root = encoding.FoldSummary(root, t.Root())
	}
	if root == peerRoot {
		return 1, nil
	}
	return 0, nil
}

// treeStripeState is the server's per-round state for one divergent stripe:
// the tree snapshot evaluated at the client's declared shape (consistent
// across the whole round), and — once leaf runs arrive — the client's runs,
// then their ranges and digests in tree order, the keys this side needs and
// the entries that came for them.
type treeStripeState struct {
	tree    *kvstore.DigestTree
	depth   int
	runs    []leafRun
	digests []encoding.Digest
	ranges  []kvstore.TreeRange
	need    []string
	entries []encoding.Entry
}

// leafRun is one shipped digest run and the position range it covers.
type leafRun struct {
	stripe  int
	rg      kvstore.TreeRange
	digests []encoding.Digest
}

// cmpLeafRuns orders runs by stripe, then position.
func cmpLeafRuns(a, b leafRun) int {
	return cmp.Or(cmp.Compare(a.stripe, b.stripe), cmp.Compare(a.rg.Lo, b.rg.Lo))
}

// treeRound serves one round, the opening frame already read. It reports
// whether the session should continue.
func (ss *serverSession) treeRound(opening []byte) bool {
	s := ss.Server
	fail := func(err error) bool {
		msg := err.Error()
		ss.out = appendString(startFrame(ss.out, kindError, lenSlot+len(msg)), msg)
		_ = ss.send()
		return false
	}

	// A probe is answered without opening any round state: the session stays
	// at the round boundary, and the next frame opens a real round (or
	// another probe).
	if len(opening) > 0 && opening[0] == kindRootProbe {
		of, root, err := decodeRootBody(opening[1:])
		if err != nil {
			return fail(err)
		}
		match, err := s.treeRootMatch(of, root)
		if err != nil {
			return fail(err)
		}
		ss.out = append(startFrame(ss.out, kindRootMatch, 1), match)
		return ss.send()
	}

	// Whole-replica rounds open with the root fold; matching roots end the
	// round right there. Scoped rounds open with kindStripeRoots directly.
	if len(opening) > 0 && opening[0] == kindRoot {
		of, root, err := decodeRootBody(opening[1:])
		if err != nil {
			return fail(err)
		}
		match, err := s.treeRootMatch(of, root)
		if err != nil {
			return fail(err)
		}
		ss.out = append(startFrame(ss.out, kindRootMatch, 1), match)
		if !ss.send() {
			return false
		}
		if match == 1 {
			return true // converged: round over, session stays open
		}
		if opening, err = ss.fr.read(); err != nil {
			return fail(fmt.Errorf("bad stripe roots frame: %v", err))
		}
	}

	// Stripe-root phase: compare each declared stripe's tree root at the
	// client's declared shape, reply with the divergent stripes.
	body, err := expectKind(opening, kindStripeRoots)
	if err != nil {
		return fail(err)
	}
	of64, used := binary.Uvarint(body)
	if used <= 0 || of64 < 1 || of64 > maxWireStripes {
		return fail(errors.New("bad stripe roots layout"))
	}
	body = body[used:]
	of := int(of64)
	if err := s.checkLayout(of); err != nil {
		return fail(err)
	}
	fan64, used := binary.Uvarint(body)
	if used <= 0 || !encoding.ValidTreeShape(int(fan64), 1) {
		return fail(errors.New("bad tree fanout"))
	}
	body = body[used:]
	fanout := int(fan64)
	count, used := binary.Uvarint(body)
	if used <= 0 || count > of64 {
		return fail(errors.New("bad stripe roots count"))
	}
	body = body[used:]
	stripes := make(map[int]*treeStripeState, 8)
	var divergent []int
	for i := uint64(0); i < count; i++ {
		idx64, used := binary.Uvarint(body)
		if used <= 0 || idx64 >= of64 {
			return fail(errors.New("bad stripe roots stripe"))
		}
		body = body[used:]
		depth64, used := binary.Uvarint(body)
		if used <= 0 || !encoding.ValidTreeShape(fanout, int(depth64)) {
			return fail(errors.New("bad stripe tree depth"))
		}
		body = body[used:]
		if len(body) < 8 {
			return fail(errors.New("truncated stripe root"))
		}
		root := binary.BigEndian.Uint64(body)
		body = body[8:]
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
		}
	}
	ss.out = startFrame(ss.out, kindStripeRootDiff, lenSlot*(1+len(divergent)))
	ss.out = binary.AppendUvarint(ss.out, uint64(len(divergent)))
	for _, idx := range divergent {
		ss.out = binary.AppendUvarint(ss.out, uint64(idx))
	}
	if !ss.send() {
		return false
	}
	if len(divergent) == 0 {
		return true // round over; the session stays open for the next one
	}

	// Descent: any number of kindTreeNodes queries, answered from the
	// per-round tree snapshots, until the leaf runs arrive.
	nb := encoding.TreeBitmapLen(fanout)
descend:
	for {
		if body, err = ss.fr.read(); err != nil {
			return fail(fmt.Errorf("bad descent frame: %v", err))
		}
		switch {
		case len(body) > 0 && body[0] == kindTreeNodes:
			body = body[1:]
		case len(body) > 0 && body[0] == kindLeafDigests:
			body = body[1:]
			break descend
		default:
			if _, err := expectKind(body, kindTreeNodes); err != nil {
				return fail(err)
			}
		}
		fan64, used := binary.Uvarint(body)
		if used <= 0 || int(fan64) != fanout {
			return fail(errors.New("bad tree nodes fanout"))
		}
		body = body[used:]
		n, used := binary.Uvarint(body)
		if used <= 0 {
			return fail(errors.New("bad tree nodes count"))
		}
		body = body[used:]
		ss.out = startFrame(ss.out, kindTreeDiff, lenSlot+capCount(n, body)*2*nb)
		ss.out = binary.AppendUvarint(ss.out, n)
		for i := uint64(0); i < n; i++ {
			node, used, err := encoding.DecodeTreeNode(body, fanout, of)
			if err != nil {
				return fail(err)
			}
			body = body[used:]
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
			ss.out = append(ss.out, make([]byte, nb)...)
			differ := ss.out[len(ss.out)-nb:]
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
			ss.out = append(ss.out, srvBm...)
		}
		if len(body) != 0 {
			return fail(errors.New("trailing bytes in tree nodes frame"))
		}
		if !ss.send() {
			return false
		}
	}

	// Leaf phase: the client's digest runs for the still-divergent leaf
	// ranges. Every digest must belong to its run's stripe and fall inside
	// the run's position range.
	n, used := binary.Uvarint(body)
	if used <= 0 {
		return fail(errors.New("bad leaf run count"))
	}
	body = body[used:]
	var order []int // stripes with leaf runs, first-seen order
	for i := uint64(0); i < n; i++ {
		run, usedRun, err := encoding.DecodeLeafRun(body, fanout, of)
		if err != nil {
			return fail(err)
		}
		body = body[usedRun:]
		st := stripes[run.Stripe]
		if st == nil {
			return fail(fmt.Errorf("leaf run for undeclared stripe %d", run.Stripe))
		}
		if run.Depth != st.depth {
			return fail(fmt.Errorf("leaf run depth %d, stripe declared %d", run.Depth, st.depth))
		}
		rg := kvstore.NodeRange(fanout, run.Level, run.Path)
		for _, d := range run.Digests {
			if kvstore.ShardIndex(d.Key, of) != run.Stripe {
				return fail(fmt.Errorf("leaf digest %q outside stripe %d", d.Key, run.Stripe))
			}
			if !rg.Contains(encoding.TreePos(d.Key)) {
				return fail(fmt.Errorf("leaf digest %q outside its run range", d.Key))
			}
		}
		if len(st.runs) == 0 {
			order = append(order, run.Stripe)
		}
		st.runs = append(st.runs, leafRun{stripe: run.Stripe, rg: rg, digests: run.Digests})
	}
	if len(body) != 0 {
		return fail(errors.New("trailing bytes in leaf digests frame"))
	}

	// Each stripe's runs, put in position order, give the store its ranges
	// and its digests in tree order. Runs of one descent never overlap; two
	// that do are the same node sent twice.
	needCount, needSize := 0, 0
	for _, idx := range order {
		st := stripes[idx]
		slices.SortFunc(st.runs, cmpLeafRuns)
		total := 0
		for i, run := range st.runs {
			if i > 0 && run.rg.Lo == st.runs[i-1].rg.Lo {
				return fail(errors.New("duplicate leaf run"))
			}
			total += len(run.digests)
		}
		st.ranges = make([]kvstore.TreeRange, len(st.runs))
		st.digests = make([]encoding.Digest, 0, total)
		for i, run := range st.runs {
			st.ranges[i] = run.rg
			st.digests = append(st.digests, run.digests...)
		}
		st.runs = nil
		diff, err := s.replica.DiffRanges(st.digests, idx, st.ranges)
		if err != nil {
			return fail(err)
		}
		st.need = diff.Need
		for _, k := range diff.Need {
			needSize += encoding.UvarintLen(uint64(len(k))) + len(k)
		}
		needCount += len(diff.Need)
	}
	ss.out = startFrame(ss.out, kindNeed, encoding.UvarintLen(uint64(needCount))+needSize)
	ss.out = binary.AppendUvarint(ss.out, uint64(needCount))
	for _, idx := range order {
		for _, k := range stripes[idx].need {
			ss.out = appendString(ss.out, k)
		}
	}
	if !ss.send() {
		return false
	}

	// Tail: full entries in, range-scoped applies per stripe, one result.
	if body, err = ss.fr.read(); err != nil {
		return fail(fmt.Errorf("bad entries frame: %v", err))
	}
	if body, err = expectKind(body, kindEntries); err != nil {
		return fail(err)
	}
	count, used = binary.Uvarint(body)
	if used <= 0 {
		return fail(errors.New("bad entry count"))
	}
	body = body[used:]
	// The client sends the entries stripe by stripe, in the need frame's
	// order; each stripe's run of them is handed to the store as it stands.
	entries := make([]encoding.Entry, 0, capCount(count, body))
	for i := uint64(0); i < count; i++ {
		e, n, err := encoding.DecodeEntry(body)
		if err != nil {
			return fail(err)
		}
		body = body[n:]
		idx := kvstore.ShardIndex(e.Key, of)
		st := stripes[idx]
		if st == nil || len(st.ranges) == 0 ||
			!kvstore.RangesContain(st.ranges, encoding.TreePos(e.Key)) {
			return fail(fmt.Errorf("entry %q outside the divergent leaf ranges", e.Key))
		}
		if len(st.entries) > 0 && kvstore.ShardIndex(entries[len(entries)-1].Key, of) != idx {
			return fail(fmt.Errorf("entry %q out of stripe order", e.Key))
		}
		entries = append(entries, e)
		st.entries = entries[len(entries)-len(st.entries)-1:]
	}

	var res kvstore.SyncResult
	var reply kvstore.DeltaReply
	for _, idx := range order {
		st := stripes[idx]
		var part kvstore.SyncResult
		reply, part, err = s.replica.ApplyDeltaRanges(reply,
			st.digests, st.entries, s.resolve, idx, st.ranges)
		if err != nil {
			return fail(err)
		}
		res.Add(part)
	}
	// Each stripe's part is sorted by key; the frame's lists are sorted whole.
	slices.SortFunc(reply.Restamps, func(a, b encoding.Digest) int { return strings.Compare(a.Key, b.Key) })
	slices.SortFunc(reply.Entries, func(a, b encoding.Entry) int { return strings.Compare(a.Key, b.Key) })
	// Fold this round's writes into the maintained trees before answering:
	// the root probe that follows the result then finds them current, and
	// the patch never races the writes that come after the round.
	for _, idx := range order {
		if _, err := s.replica.StripeTree(idx); err != nil {
			return fail(err)
		}
	}
	ss.out = encodeResultFrame(ss.out, res, reply)
	return ss.send()
}

// treeClientRound runs one round over pc's established session, on the
// stripe trees the pool loaded into pc.trees. stripes selects the scoped
// stripe set; nil means every local stripe (a whole-replica round, with the
// root fast path and probe pipelining).
func treeClientRound(pc *poolConn, local *kvstore.Replica, stripes []int) (kvstore.SyncResult, error) {
	conn, trees := pc.conn, pc.trees
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
		b, err := pc.fr.br.ReadByte()
		if err != nil {
			return fmt.Errorf("antientropy: session ack: %w", err)
		}
		if b != protocolVersion {
			return fmt.Errorf("%w: session opening answered with 0x%02x, not the 0x%02x ack",
				ErrProtocol, b, protocolVersion)
		}
		return nil
	}
	// sendProbe pipelines the next round's root check behind this round.
	// A write failure is deliberately swallowed: the round itself already
	// succeeded on both sides, and the dead connection is discovered (and
	// redialed) by the next round's opening instead.
	sendProbe := func(root uint64) {
		if !wholeReplica {
			return
		}
		pc.out = startFrame(pc.out, kindRootProbe, lenSlot+8)
		pc.out = binary.AppendUvarint(pc.out, uint64(of))
		pc.out = binary.BigEndian.AppendUint64(pc.out, root)
		if writeFrame(conn, pc.out) == nil {
			pc.probePending, pc.probedRoot = true, root
		}
	}
	// readRootMatch reads a kindRootMatch answer: true when the roots agree.
	readRootMatch := func() (bool, error) {
		body, err := pc.fr.read()
		if err != nil {
			return false, fmt.Errorf("antientropy: receive: %w", err)
		}
		if body, err = expectKind(body, kindRootMatch); err != nil {
			return false, err
		}
		if len(body) != 1 || body[0] > 1 {
			return false, fmt.Errorf("%w: bad root match frame", ErrProtocol)
		}
		return body[0] == 1, nil
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
		pc.out = startFrame(pc.out, kindRoot, lenSlot+8)
		pc.out = binary.AppendUvarint(pc.out, uint64(of))
		pc.out = binary.BigEndian.AppendUint64(pc.out, root)
		if err := writeFrame(conn, pc.out); err != nil {
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
	pc.out = startFrame(pc.out, kindStripeRoots, 3*lenSlot+len(stripes)*(2*lenSlot+8))
	pc.out = binary.AppendUvarint(pc.out, uint64(of))
	pc.out = binary.AppendUvarint(pc.out, uint64(fanout))
	pc.out = binary.AppendUvarint(pc.out, uint64(len(stripes)))
	for _, idx := range stripes {
		t := trees[idx]
		pc.out = binary.AppendUvarint(pc.out, uint64(idx))
		pc.out = binary.AppendUvarint(pc.out, uint64(t.Depth()))
		pc.out = binary.BigEndian.AppendUint64(pc.out, t.Root())
	}
	if err := writeFrame(conn, pc.out); err != nil {
		return kvstore.SyncResult{}, fmt.Errorf("antientropy: send stripe roots: %w", err)
	}
	if err := readAck(); err != nil {
		return kvstore.SyncResult{}, err
	}
	body, err := pc.fr.read()
	if err != nil {
		return kvstore.SyncResult{}, fmt.Errorf("antientropy: receive: %w", err)
	}
	body, err = expectKind(body, kindStripeRootDiff)
	if err != nil {
		return kvstore.SyncResult{}, err
	}
	count, used := binary.Uvarint(body)
	if used <= 0 || count > uint64(len(stripes)) {
		return kvstore.SyncResult{}, fmt.Errorf("%w: bad stripe root diff count", ErrProtocol)
	}
	body = body[used:]
	divergent := make([]int, 0, count)
	for i := uint64(0); i < count; i++ {
		idx64, used := binary.Uvarint(body)
		if used <= 0 || idx64 >= uint64(of) || trees[idx64] == nil { // only stripes this round sent
			return kvstore.SyncResult{}, fmt.Errorf("%w: bad stripe root diff stripe", ErrProtocol)
		}
		body = body[used:]
		divergent = append(divergent, int(idx64))
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
	var leafReqs []nodeCoord
	for len(frontier) > 0 {
		pc.out = startFrame(pc.out, kindTreeNodes, 2*lenSlot+len(frontier)*(4*lenSlot+nb+8*fanout))
		pc.out = binary.AppendUvarint(pc.out, uint64(fanout))
		pc.out = binary.AppendUvarint(pc.out, uint64(len(frontier)))
		for _, nc := range frontier {
			t := trees[nc.stripe]
			pc.bm, pc.hashes = t.Children(pc.bm[:0], pc.hashes[:0], nc.level, nc.path)
			pc.out = encoding.AppendTreeNode(pc.out, encoding.TreeNode{
				Stripe: nc.stripe, Depth: t.Depth(), Level: nc.level, Path: nc.path,
				Bitmap: pc.bm, Hashes: pc.hashes,
			})
		}
		if err := writeFrame(conn, pc.out); err != nil {
			return res, fmt.Errorf("antientropy: send tree nodes: %w", err)
		}
		if body, err = pc.fr.read(); err != nil {
			return res, fmt.Errorf("antientropy: receive: %w", err)
		}
		if body, err = expectKind(body, kindTreeDiff); err != nil {
			return res, err
		}
		n, used := binary.Uvarint(body)
		if used <= 0 || n != uint64(len(frontier)) {
			return res, fmt.Errorf("%w: tree diff count %d, want %d", ErrProtocol, n, len(frontier))
		}
		body = body[used:]
		if len(body) != len(frontier)*2*nb {
			return res, fmt.Errorf("%w: bad tree diff frame length", ErrProtocol)
		}
		var next []nodeCoord
		for _, nc := range frontier {
			differ, srvBm := body[:nb], body[nb:2*nb]
			body = body[2*nb:]
			t := trees[nc.stripe]
			pc.bm, pc.hashes = t.Children(pc.bm[:0], pc.hashes[:0], nc.level, nc.path)
			cliBm := pc.bm
			for c := 0; c < fanout; c++ {
				if !encoding.BitmapGet(differ, c) {
					continue
				}
				child := nodeCoord{
					stripe: nc.stripe, level: nc.level + 1,
					path: nc.path<<uint(fbits) | uint64(c),
				}
				if child.level == t.Depth() || !encoding.BitmapGet(cliBm, c) ||
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
	size := lenSlot
	for i, nc := range leafReqs {
		ds := trees[nc.stripe].Run(nc.level, nc.path)
		shipped.runs[i] = leafRun{stripe: nc.stripe, rg: kvstore.NodeRange(fanout, nc.level, nc.path), digests: ds}
		size += 5 * lenSlot
		for _, d := range ds {
			size += encoding.DigestLen(d)
		}
	}
	pc.out = startFrame(pc.out, kindLeafDigests, size)
	pc.out = binary.AppendUvarint(pc.out, uint64(len(leafReqs)))
	for i, nc := range leafReqs {
		pc.out = encoding.AppendLeafRun(pc.out, encoding.LeafRun{
			Stripe: nc.stripe, Depth: trees[nc.stripe].Depth(), Level: nc.level, Path: nc.path,
			Digests: shipped.runs[i].digests,
		})
	}
	if err := writeFrame(conn, pc.out); err != nil {
		return res, fmt.Errorf("antientropy: send leaf digests: %w", err)
	}
	slices.SortFunc(shipped.runs, cmpLeafRuns)

	// Tail: needs in, entries out, result in.
	if body, err = pc.fr.read(); err != nil {
		return res, fmt.Errorf("antientropy: receive: %w", err)
	}
	if body, err = expectKind(body, kindNeed); err != nil {
		return res, err
	}
	count, used = binary.Uvarint(body)
	if used <= 0 {
		return res, fmt.Errorf("%w: bad need count", ErrProtocol)
	}
	body = body[used:]
	sends := make([]encoding.Entry, 0, capCount(count, body))
	size = lenSlot
	for i := uint64(0); i < count; i++ {
		k, n, err := readString(body)
		if err != nil {
			return res, fmt.Errorf("%w: bad need key", ErrProtocol)
		}
		body = body[n:]
		v, ok := local.Version(k)
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
	pc.out = startFrame(pc.out, kindEntries, size)
	pc.out = binary.AppendUvarint(pc.out, uint64(len(sends)))
	for _, e := range sends {
		pc.out = encoding.AppendEntry(pc.out, e)
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
	if err := writeFrame(conn, pc.out); err != nil {
		return res, fmt.Errorf("%w: send entries: %w", ErrRetryUnsafe, err)
	}
	slices.SortFunc(sends, func(a, b encoding.Entry) int { return strings.Compare(a.Key, b.Key) })

	if body, err = pc.fr.read(); err != nil {
		return res, fmt.Errorf("%w: receive result: %w", ErrRetryUnsafe, err)
	}
	if body, err = expectKind(body, kindResult); err != nil {
		return res, err
	}
	part, reply, err := decodeResultFrame(body)
	if err != nil {
		return res, err
	}
	res.Add(part)
	if err := checkReply(reply, sends, &shipped); err != nil {
		return res, err
	}
	// The shipped copies pin every reply copy to the exact copy this round
	// sent.
	local.ApplyDeltaReply(reply, sends, shipped.stamp)
	root = encoding.RootSummarySeed
	for _, idx := range stripes {
		t, err := local.StripeTree(idx)
		if err != nil {
			return res, fmt.Errorf("antientropy: %w", err)
		}
		root = encoding.FoldSummary(root, t.Root())
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
	stripe, pos := kvstore.ShardIndex(key, sr.of), encoding.TreePos(key)
	i := sort.Search(len(sr.runs), func(i int) bool {
		r := sr.runs[i]
		return r.stripe > stripe || r.stripe == stripe && (r.rg.Hi == 0 || r.rg.Hi > pos)
	})
	if i == len(sr.runs) || sr.runs[i].stripe != stripe || !sr.runs[i].rg.Contains(pos) {
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
	ds, pos := sr.runs[i].digests, encoding.TreePos(key)
	j := sort.Search(len(ds), func(j int) bool {
		p := encoding.TreePos(ds[j].Key)
		return p > pos || p == pos && ds[j].Key >= key
	})
	if j == len(ds) || ds[j].Key != key {
		return core.Stamp{}, false
	}
	return ds[j].Stamp, true
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
