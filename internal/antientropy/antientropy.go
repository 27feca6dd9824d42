// Package antientropy synchronizes kvstore replicas pairwise over TCP — the
// communication pattern of the weakly connected systems the paper targets:
// any two replicas that happen to find connectivity exchange state; no
// membership, no coordinator, no identifier service.
//
// A round moves only what the stamps cannot prove equivalent — the paper's
// central property (stamp comparison classifies two copies without looking at
// the data) applied to the wire. Each stripe of a replica keeps an adaptive
// digest tree of fan-out 16 (kvstore.DigestTree): keys hash to 64-bit
// positions, leaves cover equal position ranges, a node's hash is the XOR of
// its keys' terms, and the depth follows the stripe's live key count
// (kvstore.TreeDepth). A round descends from the replica root toward the
// handful of leaves that actually differ, exchanges per-key digests (key +
// stamp, no value) for just those leaves — a key whose term the server already
// holds goes as its stamp's id alone — and ships full copies only where the
// digests leave the server unable to reconcile. The server applies them
// exactly as an in-process kvstore.Sync would — transfers fork stamps,
// dominance reconciles, conflicts use the server's resolver or stay reported —
// and replies with what the client must adopt: for a copy whose value the
// client shipped and the server kept, only the client's half of the fork (a
// restamp), as the client already holds the value; every other copy in full.
// Converged replicas therefore exchange one 8-byte root; isolating one
// divergent key among n costs O(log n) fixed-size frames.
//
// # Wire protocol
//
// There is one protocol. A connection is a session: the client opens it with
// the version byte 0x09, the server acks with the same byte, and any number
// of rounds (whole-replica, or scoped to chosen stripes) ride it back to
// back. A server closes a connection that opens with anything else; a client
// whose opening is answered by anything else reports ErrProtocol. After the
// version byte everything is a frame, [uvarint length][kind byte][body],
// integers uvarint-encoded, hashes 8 bytes big-endian, stamps in core's
// binary format (core.Stamp.AppendBinary):
//
//	client -> server  kindRoot          (0x08): of, root (the XOR of the
//	                  stripe tree roots; whole-replica rounds only)
//	server -> client  kindRootMatch     (0x09): 1 = converged, round over
//	client -> server  kindStripeRoots   (0x0A): of, count,
//	                  count×(stripe, depth, tree root)
//	server -> client  kindStripeRootDiff(0x0B): count, count×stripe
//	— round ends here when no stripe differs; otherwise, repeated one level
//	  at a time for the divergent stripes —
//	client -> server  kindTreeNodes     (0x0C): count, count×(stripe, level,
//	                  path, child bitmap, child hashes)
//	server -> client  kindTreeDiff      (0x0D): per node: differ bitmap +
//	                  server child bitmap, then per leaf child both sides
//	                  hold that differs: count, count×term
//	— at the bottom (or where either side's subtree is empty) —
//	client -> server  kindLeafDigests   (0x0E): count, count×(stripe, level,
//	                  path, [term bitmap, matched ids,] digest run),
//	                  in walk order
//	server -> client  kindNeed          (0x02): count, count×ordinal
//	client -> server  kindEntries       (0x03): count, count×body, in need
//	                  order
//	server -> client  kindResult        (0x04): transferred, reconciled,
//	                  merged, pruned, conflicts, count×(ordinal, stamp),
//	                  then (reference, body) entries to the end of the frame
//	— between rounds, on pooled whole-replica sessions —
//	client -> server  kindRootProbe     (0x0F): of, root; answered with
//	                  kindRootMatch, outside any round
//	— instead of any reply —
//	server -> client  kindError         (0x7F): error text, ending the session
//
// where digest = key + stamp (encoding.AppendDigest) and a digest run is a
// count and that many digests, in tree order. A term is 8 bytes: the hash of
// one key, its stamp's update component and its content (encoding.DigestTerm),
// kept with the key in its tree's leaf run; a tree hash is the XOR of the
// terms under it. The tree diff sends one per key the server holds under the
// leaf, in tree order. A leaf run answers its leaf's terms, if the tree diff
// sent any: a bitmap over them (one bit a term, as a child bitmap lays its
// bits out) marks the terms of the client's keys, then each marked key's id
// component (its trie encoding) goes in term order, and the digest run holds
// only the keys whose terms were not marked. The server rebuilds a marked
// key's digest — its own key, its own update component, the client's id — so
// the run it decodes is the client's whole run, and every key of it reaches
// the per-key decision (kvstore.Replica.DiffRanges), the overlap of ids
// included: a key created at both ends with one value goes marked, and its ids
// tell the two creations apart. Two keys whose terms collide (about 2^-64 a
// pair, as for the tree's hashes) would be taken one for the other. The client
// ships its runs in walk order: by stripe, then position. That order numbers
// the digests, marked or not — a digest's ordinal is its place in the client's
// whole runs, counted from 0 across them — and from there on the round names a
// key the client shipped by its ordinal, never by its bytes. Every list of
// ordinals is strictly ascending and delta-coded: each goes as its distance
// from the one before, the first as its distance from -1, so no distance is 0.
// The need frame lists the digest ordinals whose full copies the server needs.
// The entries frame answers each need in need order with a body
// (encoding.AppendEntryBody: flags, the value unless a tombstone, and the
// stamp only where the copy moved since its digest, the server holding the
// digest's) or with the body of a key that vanished. The result's restamps,
// for the needs answered in full whose outcome kept that value, are need
// ordinals (places in the need frame) with the new stamp; its entries,
// everything else, each carry a reference — the digest ordinal of a key the
// client shipped, or 0 and the key's bytes for one it did not — and a body
// with its stamp. The reply is in walk order, and no key is in both lists.
// Every tree has fan-out 16, so a child bitmap is 2 bytes, children 0–7 in the
// first, least significant bit first. Each stripe's depth is the client's
// choice, declared once a round in the stripe roots: it places the client's
// leaves, where the descent ends and which leaves get terms. A node's hash
// does not depend on the depth of the tree that holds it, so the server
// answers any node from its own maintained tree (kvstore.DigestTree.Children
// reads one below its leaves off a leaf's run). It refuses a tree node at or
// below its stripe's declared depth, a leaf run below it, and either for a
// stripe that did not diverge. The layout is not a choice: `of`, the client's
// stripe count, must equal the server's, and a server answers a root, probe or
// stripe-roots opening declaring any other count with kindError naming both
// counts, before either replica is touched.
//
// # Sessions
//
// Each end of a round is a machine that holds no connection, deadline or
// goroutine (serverRound, clientRound). It takes one received frame at a
// time, decodes its body through the session's frame reader and begins its
// answer in the session's frame writer; its receive checks, for every frame,
// that the body decoded to its last byte before anything goes out or is
// applied. Two drivers step the machines over a connection, Server.handle
// and Pool.round: they own the version byte and its ack, the deadlines and,
// on the client, which failures may be retried. Tests step both machines
// over two in-memory buffers.
//
// The client pipelines its first round behind the version byte and reads the
// ack before the first reply frame, so opening a session costs no round
// trip. Each completed whole-replica round also pipelines a root probe for
// the next one, so a steady-state converged round writes its probe and reads
// the previous answer without ever waiting on the wire: ~14 bytes and zero
// blocking round trips per converged exchange. A probe reads the server's
// trees as they stand and never folds writes into them: a server whose
// stripes hold writes not yet folded answers "no match", and the next round
// goes to the stripe roots, where it folds them. Between rounds the server
// waits with a generous idle deadline and drops silent sessions; during a
// round the usual tight deadline applies.
//
// Each end of a session owns its buffers: a 64 KiB window its frames are
// read through and one they are written through, both kept from frame to
// frame and grown only as far as its frames need; a round whose frames
// needed a full window drops it once it ends, so a session idling between
// long rounds keeps only what its short frames need. A frame is sized
// exactly before it is encoded, so its length goes out first and its
// elements stream through the window behind it: up to 64 KiB a frame is one
// Write, and a longer one is written a window at a time. The reader decodes
// a frame element by element from its window (a digest, leaf run, ordinal,
// entry body or tree node); an element cut at the
// window's end moves to its front before the window is refilled, and only
// an element longer than the window gets a buffer of its own, dropped once
// it is decoded. So neither end ever holds a long frame whole, and the
// bytes an element is decoded from are valid only until the next element:
// decoders copy what outlives them. The client also keeps a stripe-indexed
// slot per stripe tree, so a converged round allocates nothing at either
// end.
//
// A stripe's tree handed to a round is held (kvstore.Replica.StripeTree)
// until the round releases it, and the store patches the stripe's tree in
// place only while no hold is out. Each slot the client loads holds its
// stripe; the server holds each divergent stripe's tree from the stripe-root
// phase to the apply, and releases a converged stripe's at once. Both ends
// release after the apply step — the server's ApplyDeltaRanges, the client's
// ApplyDeltaReply, which still reads the digests it shipped off its trees —
// and before the fold that precedes the result or probe frame, so that fold
// patches in place and no hold is out by the time the peer can act on the
// round. A round that ends early releases its holds on the way out.
//
// A key is on the wire in full only in the leaf digests, unless its term
// was marked, and in a result entry the client shipped no digest of. The
// server takes a leaf-digest key it holds under the run's leaf from the
// round's tree snapshot instead of copying it (an exact byte match only), as
// it does every marked key; each end resolves an ordinal to the digest's own
// key string, so no other key is copied. The server checks the leaf runs'
// walk order instead of sorting them, so both ends number the same digests
// alike.
//
// Before answering or applying anything the client checks the need and the
// result against what it shipped: ordinals in range and ascending, restamps
// only of needs its entries frame answered in full, entries named by key
// only inside the leaf ranges this round sent and only for keys it shipped
// no digest of, no key in both lists; terms only for a leaf child that
// differs and that both sides hold, each list within the frame; anything
// else is ErrProtocol. The server likewise refuses leaf runs out of walk
// order, a run that does not rebuild to one in strict tree order, term
// bitmap padding bits, an id that does not decode to a valid stamp with its
// update component (core.Stamp.DecodeID), a key both marked and shipped,
// and an entries frame whose count is not the need's, before anything is
// applied. The client installs a reply copy only while its own copy
// still carries the stamp it shipped; copies that moved mid-round are left
// alone for the next round, which makes concurrent rounds against one
// replica safe (see kvstore.Replica.ApplyDeltaReply for the one move a stamp
// cannot show).
//
// A Pool keeps one session per peer address: rounds to the same peer are
// framed back to back over the pooled connection (a 100-round gossip session
// dials each peer once, not 100 times), concurrent rounds to one peer
// serialize, and a round that fails on a previously working session is
// retried once on a fresh dial — transparent recovery from server restarts
// and idle drops — unless its entries may already have been applied
// (ErrRetryUnsafe). Cluster gossip holds one pool per node; SyncWith is the
// one-shot form.
package antientropy

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"versionstamp/internal/kvstore"
)

// defaultTimeout bounds each network round trip.
const defaultTimeout = 10 * time.Second

// serverSessionIdle bounds how long a session may sit idle between rounds
// before the server drops it. Pooled clients transparently redial, so an
// expired session costs one reconnect, never a failed round.
const serverSessionIdle = 2 * time.Minute

// ErrProtocol is returned for malformed or version-skewed messages.
var ErrProtocol = errors.New("antientropy: protocol error")

// Server exposes a replica for anti-entropy over TCP.
type Server struct {
	replica *kvstore.Replica
	resolve kvstore.Resolver

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer wraps a replica. The resolver handles conflicting keys during
// syncs initiated by peers; nil skips conflicts (they stay reported on the
// client side).
func NewServer(replica *kvstore.Replica, resolve kvstore.Resolver) *Server {
	return &Server{replica: replica, resolve: resolve}
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serve loops run in background goroutines until
// Close.
func (s *Server) Listen(addr string) (string, error) {
	return s.ListenTransport(TCP, addr)
}

// ListenTransport is Listen over an explicit transport — TCP in production,
// a fault-injecting fabric in the chaos lab. A nil transport means TCP.
func (s *Server) ListenTransport(tr Transport, addr string) (string, error) {
	if tr == nil {
		tr = TCP
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		return "", fmt.Errorf("antientropy: %w", err)
	}
	return s.Serve(ln)
}

// Serve starts accepting connections on an existing listener and returns
// its address — the entry point for callers that need control over the
// listener (custom sockets, accept counting in tests). The server takes
// ownership: Close closes the listener.
func (s *Server) Serve(ln net.Listener) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("antientropy: server closed")
	}
	if s.listener != nil {
		s.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("antientropy: server already serving")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.handle(conn)
		}()
	}
}

// track registers an open connection so Close can interrupt long-lived
// sessions (which otherwise sit in a read with a generous idle deadline).
// It reports false when the server is already closed.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops the listener, interrupts open sessions and waits for their
// handlers to finish. Pooled clients see the drop and transparently
// redial on their next round (against whatever serves the address then).
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	s.listener = nil
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// handle serves one connection: it checks and acks the version byte, then
// steps the session's round machine over each frame the client sends. The
// deadline is relaxed to serverSessionIdle while waiting for a round to open
// and tightened to defaultTimeout while one is in flight.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(defaultTimeout))
	m := &serverRound{replica: s.replica, resolve: s.resolve, fr: frameReader{br: bufio.NewReader(conn)}, fw: frameWriter{w: conn}}
	defer m.reset()
	if b, err := m.fr.br.ReadByte(); err != nil || b != protocolVersion {
		return // not a session opening: closed unanswered
	}
	if _, err := conn.Write([]byte{protocolVersion}); err != nil {
		return
	}
	for ok := true; ok; {
		m.fr.trim()
		m.fw.trim()
		_ = conn.SetDeadline(time.Now().Add(serverSessionIdle))
		kind, err := m.fr.next()
		if err != nil {
			return // session over: peer closed, or idled out
		}
		_ = conn.SetDeadline(time.Now().Add(defaultTimeout))
		// A round's later frames follow until the machine is idle again.
		for ok = m.receive(kind); ok && m.phase != serverIdle; ok = m.receive(kind) {
			if kind, err = m.fr.next(); err != nil {
				return // the deferred reset ends the round
			}
		}
	}
}

// SyncWith performs one anti-entropy round between the local replica and
// the server at addr over a throwaway session: both replicas converge on
// every key the stamps can order, conflicts go to the server's resolver or
// come back in SyncResult.Conflicts. The returned SyncResult carries the
// server's reconciliation counters plus the wire bytes this client saw. For
// session reuse across rounds — the intended steady state — use a Pool.
func SyncWith(addr string, local *kvstore.Replica) (kvstore.SyncResult, error) {
	p := NewPool()
	defer p.Close()
	return p.SyncWith(addr, local)
}

// countingConn wraps a net.Conn, counting payload bytes in each direction so
// SyncResult can report wire cost.
type countingConn struct {
	net.Conn
	sent, recv atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}
