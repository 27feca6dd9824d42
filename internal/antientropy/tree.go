package antientropy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
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
// (kvstore.TreeScoped), the maintained tree whenever the shape matches its
// own policy — which it does between converged replicas, whose per-stripe
// key counts (and therefore TreeShape results) agree. A stripe whose count
// crosses a shape threshold simply descends at the new depth next round.

// handle serves one connection: check and ack the version byte, then a loop
// of rounds. The deadline is relaxed to serverSessionIdle while waiting for
// a round to open and tightened to defaultTimeout while one is in flight.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(defaultTimeout))
	br := bufio.NewReader(conn)
	if b, err := br.ReadByte(); err != nil || b != protocolVersion {
		return // not a session opening: closed unanswered
	}
	if _, err := conn.Write([]byte{protocolVersion}); err != nil {
		return
	}
	for {
		_ = conn.SetDeadline(time.Now().Add(serverSessionIdle))
		body, err := readFrame(br)
		if err != nil {
			return // session over: peer closed, or idled out
		}
		_ = conn.SetDeadline(time.Now().Add(defaultTimeout))
		if !s.treeRound(conn, br, body) {
			return
		}
	}
}

// treeFoldRoots folds per-stripe tree roots into the replica root.
func treeFoldRoots(roots []uint64) uint64 {
	h := encoding.RootSummarySeed
	for _, r := range roots {
		h = encoding.FoldSummary(h, r)
	}
	return h
}

// treeRootMatch answers a root or probe body: 1 when the peer's root equals
// the fold of this replica's stripe tree roots under the peer's layout.
func (s *Server) treeRootMatch(of int, peerRoot uint64) (byte, error) {
	roots, err := s.replica.TreeRootsScoped(of)
	if err != nil {
		return 0, err
	}
	if treeFoldRoots(roots) == peerRoot {
		return 1, nil
	}
	return 0, nil
}

// treeStripeState is the server's per-round state for one divergent stripe:
// the tree snapshot evaluated at the client's declared shape (consistent
// across the whole round), and — once leaf runs arrive — the client's
// digests and the position ranges they cover.
type treeStripeState struct {
	tree    *kvstore.DigestTree
	depth   int
	digests []encoding.Digest
	ranges  []kvstore.TreeRange
}

// treeRound serves one round, the opening frame already read. It reports
// whether the session should continue.
func (s *Server) treeRound(conn net.Conn, br *bufio.Reader, opening []byte) bool {
	fail := func(err error) bool {
		_ = writeFrame(conn, appendString([]byte{kindError}, err.Error()))
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
		return writeFrame(conn, []byte{kindRootMatch, match}) == nil
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
		if writeFrame(conn, []byte{kindRootMatch, match}) != nil {
			return false
		}
		if match == 1 {
			return true // converged: round over, session stays open
		}
		if opening, err = readFrame(br); err != nil {
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
		tree, err := s.replica.TreeScoped(idx, of, fanout, int(depth64))
		if err != nil {
			return fail(err)
		}
		if tree.Root() != root {
			stripes[idx] = &treeStripeState{tree: tree, depth: int(depth64)}
			divergent = append(divergent, idx)
		}
	}
	diff := []byte{kindStripeRootDiff}
	diff = binary.AppendUvarint(diff, uint64(len(divergent)))
	for _, idx := range divergent {
		diff = binary.AppendUvarint(diff, uint64(idx))
	}
	if err := writeFrame(conn, diff); err != nil {
		return false
	}
	if len(divergent) == 0 {
		return true // round over; the session stays open for the next one
	}

	// Descent: any number of kindTreeNodes queries, answered from the
	// per-round tree snapshots, until the leaf runs arrive.
	var order []int // stripes with leaf runs, first-seen order
	seenRun := make(map[uint64]bool)
descend:
	for {
		if body, err = readFrame(br); err != nil {
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
		nb := encoding.TreeBitmapLen(fanout)
		reply := []byte{kindTreeDiff}
		reply = binary.AppendUvarint(reply, n)
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
			srvBm, srvHashes := st.tree.Children(node.Level, node.Path)
			// differ bit c: exactly one side has child c, or both do with
			// different hashes.
			differ := make([]byte, nb)
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
			reply = append(reply, differ...)
			reply = append(reply, srvBm...)
		}
		if len(body) != 0 {
			return fail(errors.New("trailing bytes in tree nodes frame"))
		}
		if err := writeFrame(conn, reply); err != nil {
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
		key := uint64(run.Stripe)<<40 | uint64(run.Level)<<32 | run.Path
		if seenRun[key] {
			return fail(errors.New("duplicate leaf run"))
		}
		seenRun[key] = true
		rg := kvstore.NodeRange(fanout, run.Level, run.Path)
		for _, d := range run.Digests {
			if kvstore.ShardIndex(d.Key, of) != run.Stripe {
				return fail(fmt.Errorf("leaf digest %q outside stripe %d", d.Key, run.Stripe))
			}
			if !rg.Contains(encoding.TreePos(d.Key)) {
				return fail(fmt.Errorf("leaf digest %q outside its run range", d.Key))
			}
		}
		if len(st.ranges) == 0 {
			order = append(order, run.Stripe)
		}
		st.ranges = append(st.ranges, rg)
		st.digests = append(st.digests, run.Digests...)
	}
	if len(body) != 0 {
		return fail(errors.New("trailing bytes in leaf digests frame"))
	}

	need := []byte{kindNeed}
	needCount := 0
	var needBody []byte
	for _, idx := range order {
		st := stripes[idx]
		diff, err := s.replica.DiffRanges(st.digests, idx, of, st.ranges)
		if err != nil {
			return fail(err)
		}
		for _, k := range diff.Need {
			needBody = appendString(needBody, k)
			needCount++
		}
	}
	need = binary.AppendUvarint(need, uint64(needCount))
	need = append(need, needBody...)
	if err := writeFrame(conn, need); err != nil {
		return false
	}

	// Tail: full entries in, range-scoped applies per stripe, one result.
	if body, err = readFrame(br); err != nil {
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
	entries := make(map[int][]encoding.Entry, len(order))
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
		entries[idx] = append(entries[idx], e)
	}

	var res kvstore.SyncResult
	var reply []encoding.Entry
	for _, idx := range order {
		st := stripes[idx]
		stripeReply, part, err := s.replica.ApplyDeltaRanges(
			st.digests, entries[idx], s.resolve, idx, of, st.ranges)
		if err != nil {
			return fail(err)
		}
		res.Add(part)
		reply = append(reply, stripeReply...)
	}
	return writeFrame(conn, encodeResultFrame(res, reply)) == nil
}

// treeClientRound runs one round over pc's established session. stripes
// selects the scoped stripe set; nil means every local stripe (a
// whole-replica round, with the root fast path and probe pipelining).
func treeClientRound(pc *poolConn, local *kvstore.Replica, stripes []int) (kvstore.SyncResult, error) {
	conn, br := pc.conn, pc.br
	of := local.Shards()
	wholeReplica := stripes == nil
	if stripes == nil {
		stripes = make([]int, of)
		for i := range stripes {
			stripes[i] = i
		}
	}
	trees := make(map[int]*kvstore.DigestTree, len(stripes))
	for _, idx := range stripes {
		t, err := local.StripeTree(idx)
		if err != nil {
			return kvstore.SyncResult{}, fmt.Errorf("antientropy: %w", err)
		}
		trees[idx] = t
	}
	fanout := treeFanoutOf(trees, stripes)

	// readAck consumes the server's one-byte session ack the first time a
	// frame reply is awaited on a fresh session. Called after the opening
	// frame is written, so the session opening rides the same round trip.
	readAck := func() error {
		if !pc.ackPending {
			return nil
		}
		pc.ackPending = false
		b, err := br.ReadByte()
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
		frame := []byte{kindRootProbe}
		frame = binary.AppendUvarint(frame, uint64(of))
		frame = binary.BigEndian.AppendUint64(frame, root)
		if writeFrame(conn, frame) == nil {
			pc.probePending, pc.probedRoot = true, root
		}
	}
	currentRoot := func() uint64 {
		roots := make([]uint64, 0, len(stripes))
		for _, idx := range stripes {
			t, err := local.StripeTree(idx)
			if err != nil {
				return 0
			}
			roots = append(roots, t.Root())
		}
		return treeFoldRoots(roots)
	}

	skipRoot := false
	var root uint64
	if wholeReplica {
		roots := make([]uint64, 0, len(stripes))
		for _, idx := range stripes {
			roots = append(roots, trees[idx].Root())
		}
		root = treeFoldRoots(roots)
	}
	if pc.probePending {
		// The previous round left a probe in flight; its answer is the next
		// frame on the wire and must be consumed before anything else.
		pc.probePending = false
		body, err := readFrame(br)
		if err != nil {
			return kvstore.SyncResult{}, fmt.Errorf("antientropy: receive probe answer: %w", err)
		}
		body, err = expectKind(body, kindRootMatch)
		if err != nil {
			return kvstore.SyncResult{}, err
		}
		if len(body) != 1 || body[0] > 1 {
			return kvstore.SyncResult{}, fmt.Errorf("%w: bad root match frame", ErrProtocol)
		}
		if wholeReplica && root == pc.probedRoot {
			if body[0] == 1 {
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
		frame := []byte{kindRoot}
		frame = binary.AppendUvarint(frame, uint64(of))
		frame = binary.BigEndian.AppendUint64(frame, root)
		if err := writeFrame(conn, frame); err != nil {
			return kvstore.SyncResult{}, fmt.Errorf("antientropy: send root: %w", err)
		}
		if err := readAck(); err != nil {
			return kvstore.SyncResult{}, err
		}
		body, err := readFrame(br)
		if err != nil {
			return kvstore.SyncResult{}, fmt.Errorf("antientropy: receive: %w", err)
		}
		body, err = expectKind(body, kindRootMatch)
		if err != nil {
			return kvstore.SyncResult{}, err
		}
		if len(body) != 1 || body[0] > 1 {
			return kvstore.SyncResult{}, fmt.Errorf("%w: bad root match frame", ErrProtocol)
		}
		if body[0] == 1 {
			sendProbe(root)
			return kvstore.SyncResult{StripesSkipped: of}, nil
		}
	}

	// Stripe-root phase: one (stripe, depth, root) triple per scoped stripe.
	frame := []byte{kindStripeRoots}
	frame = binary.AppendUvarint(frame, uint64(of))
	frame = binary.AppendUvarint(frame, uint64(fanout))
	frame = binary.AppendUvarint(frame, uint64(len(stripes)))
	for _, idx := range stripes {
		t := trees[idx]
		frame = binary.AppendUvarint(frame, uint64(idx))
		frame = binary.AppendUvarint(frame, uint64(t.Depth()))
		frame = binary.BigEndian.AppendUint64(frame, t.Root())
	}
	if err := writeFrame(conn, frame); err != nil {
		return kvstore.SyncResult{}, fmt.Errorf("antientropy: send stripe roots: %w", err)
	}
	if err := readAck(); err != nil {
		return kvstore.SyncResult{}, err
	}
	body, err := readFrame(br)
	if err != nil {
		return kvstore.SyncResult{}, fmt.Errorf("antientropy: receive: %w", err)
	}
	body, err = expectKind(body, kindStripeRootDiff)
	if err != nil {
		return kvstore.SyncResult{}, err
	}
	sent := make(map[int]bool, len(stripes))
	for _, idx := range stripes {
		sent[idx] = true
	}
	count, used := binary.Uvarint(body)
	if used <= 0 || count > uint64(len(stripes)) {
		return kvstore.SyncResult{}, fmt.Errorf("%w: bad stripe root diff count", ErrProtocol)
	}
	body = body[used:]
	divergent := make([]int, 0, count)
	for i := uint64(0); i < count; i++ {
		idx64, used := binary.Uvarint(body)
		if used <= 0 || !sent[int(idx64)] {
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
		frame := []byte{kindTreeNodes}
		frame = binary.AppendUvarint(frame, uint64(fanout))
		frame = binary.AppendUvarint(frame, uint64(len(frontier)))
		for _, nc := range frontier {
			t := trees[nc.stripe]
			bm, hashes := t.Children(nc.level, nc.path)
			frame = encoding.AppendTreeNode(frame, encoding.TreeNode{
				Stripe: nc.stripe, Depth: t.Depth(), Level: nc.level, Path: nc.path,
				Bitmap: bm, Hashes: hashes,
			})
		}
		if err := writeFrame(conn, frame); err != nil {
			return res, fmt.Errorf("antientropy: send tree nodes: %w", err)
		}
		if body, err = readFrame(br); err != nil {
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
			cliBm, _ := t.Children(nc.level, nc.path)
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

	// Leaf phase: ship the digest runs under the divergent leaf ranges, and
	// remember the ranges per stripe — the reply may only touch them.
	sentStamps := make(map[string]core.Stamp)
	rangesOf := make(map[int][]kvstore.TreeRange, len(divergent))
	frame = []byte{kindLeafDigests}
	frame = binary.AppendUvarint(frame, uint64(len(leafReqs)))
	for _, nc := range leafReqs {
		t := trees[nc.stripe]
		ds := t.Run(nc.level, nc.path)
		frame = encoding.AppendLeafRun(frame, encoding.LeafRun{
			Stripe: nc.stripe, Depth: t.Depth(), Level: nc.level, Path: nc.path,
			Digests: ds,
		})
		for _, d := range ds {
			sentStamps[d.Key] = d.Stamp
		}
		rangesOf[nc.stripe] = append(rangesOf[nc.stripe], kvstore.NodeRange(fanout, nc.level, nc.path))
	}
	if err := writeFrame(conn, frame); err != nil {
		return res, fmt.Errorf("antientropy: send leaf digests: %w", err)
	}

	// Tail: needs in, entries out, result in.
	if body, err = readFrame(br); err != nil {
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
	entriesFrame := []byte{kindEntries}
	entryBodies := make([]byte, 0, 64)
	sentEntries := uint64(0)
	for i := uint64(0); i < count; i++ {
		k, n, err := readString(body)
		if err != nil {
			return res, fmt.Errorf("%w: bad need key", ErrProtocol)
		}
		body = body[n:]
		v, ok := local.Version(k)
		if !ok {
			// Vanished since the digest (Adopt can drop keys); the next
			// round reconciles it.
			delete(sentStamps, k)
			continue
		}
		sentStamps[k] = v.Stamp
		entryBodies = encoding.AppendEntry(entryBodies, encoding.Entry{
			Key: k, Value: v.Value, Deleted: v.Deleted, Stamp: v.Stamp,
		})
		sentEntries++
	}
	entriesFrame = binary.AppendUvarint(entriesFrame, sentEntries)
	entriesFrame = append(entriesFrame, entryBodies...)
	// Point of no return: once any byte of the entries frame is on the wire,
	// the server may receive the complete frame and apply it even if this
	// side only sees a dead connection. Retrying such a round on a fresh
	// dial would ship the same entries against already-forked server stamps
	// — the copies would compare as causally unrelated and reconcile by
	// reseeding (double-apply). Every failure from here on is therefore
	// marked ErrRetryUnsafe; the pool surfaces it instead of redialing, and
	// the next round's digest exchange reconciles whatever state the server
	// actually reached.
	if err := writeFrame(conn, entriesFrame); err != nil {
		return res, fmt.Errorf("%w: send entries: %w", ErrRetryUnsafe, err)
	}

	if body, err = readFrame(br); err != nil {
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
	// The server may only reply about the leaf ranges this round shipped —
	// reject anything else before applying, mirroring the server's own
	// check, so a faulty peer cannot slip keys into subtrees this round
	// declared converged.
	for _, e := range reply {
		rngs, ok := rangesOf[kvstore.ShardIndex(e.Key, of)]
		if !ok || !kvstore.RangesContain(rngs, encoding.TreePos(e.Key)) {
			return res, fmt.Errorf("%w: reply entry %q outside the divergent leaf ranges",
				ErrProtocol, e.Key)
		}
	}
	// The reply spans several stripes, so it is applied under the
	// whole-keyspace scope; the sentStamps guard still pins every entry to
	// the exact copy this round shipped.
	if _, err := local.ApplyDeltaReply(reply, sentStamps, 0, 0); err != nil {
		return res, fmt.Errorf("%w: apply delta reply: %w", ErrRetryUnsafe, err)
	}
	sendProbe(currentRoot())
	return res, nil
}

// treeFanoutOf returns the fan-out shared by the round's stripe trees.
// TreeShape always picks the same fan-out, so any tree answers; an empty
// stripe set (impossible: of >= 1) falls back to the local policy.
func treeFanoutOf(trees map[int]*kvstore.DigestTree, stripes []int) int {
	for _, idx := range stripes {
		return trees[idx].Fanout()
	}
	return treeFanout
}

// treeFanout mirrors kvstore's local fan-out policy for the degenerate
// empty-round fallback above.
const treeFanout = 16
