package antientropy

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"versionstamp/internal/kvstore"
)

// defaultPoolIdle is how long a pooled connection may sit unused before the
// next round redials instead of reusing it. It stays under the server's
// serverSessionIdle so the pool normally retires a session before the
// server does.
const defaultPoolIdle = 90 * time.Second

// Pool maintains persistent sessions keyed by peer address, so a gossip loop
// dials each peer once instead of once per round. Rounds to the same peer
// are serialized over that peer's single connection (they are multiplexed
// in time, framed back to back); rounds to different peers run
// concurrently. A round that fails on a previously working connection is
// transparently retried once on a fresh dial, which covers server restarts
// and idle-timeout closes without surfacing an error to the caller.
//
// Pool is safe for concurrent use. Close it to release the connections.
type Pool struct {
	idle      time.Duration
	timeout   time.Duration
	transport Transport
	backoff   BackoffPolicy

	mu     sync.Mutex
	conns  map[string]*poolConn
	closed bool

	dials atomic.Int64
}

// poolConn is the pool's state for one peer: at most one live session, and
// the round machine its rounds step, kept from round to round.
type poolConn struct {
	mu       sync.Mutex // serializes rounds on this session
	conn     *countingConn
	lastUsed time.Time
	rounds   int // rounds completed on the current connection
	fails    int // consecutive failed rounds (armed backoff)
	skip     int // rounds left to skip before trying this peer again
	clientRound
}

// BackoffPolicy skips rounds to a repeatedly-failing peer, so one dead or
// partitioned address does not stall every gossip round on a full dial
// timeout. It counts round attempts, not wall-clock time — deterministic
// under logical-time transports and exactly as effective over TCP, where
// each gossip round is one attempt.
//
// After the n-th consecutive failure the pool skips min(Base<<(n-1), Max)
// subsequent rounds to that peer, plus a jitter in [0, Base] seeded by
// (Seed, peer address, n) so a cohort of nodes that lost the same peer at
// the same time does not retry in lockstep. Skipped rounds fail fast with
// ErrPeerBackoff. A successful round resets the counter. The zero policy
// (Base == 0) disables backoff.
type BackoffPolicy struct {
	Base int   // rounds skipped after the first failure; 0 disables
	Max  int   // cap on skipped rounds; 0 means Base<<6
	Seed int64 // jitter seed
}

// skipAfter returns how many rounds to skip after the fails-th consecutive
// failure of addr.
func (b BackoffPolicy) skipAfter(addr string, fails int) int {
	if b.Base <= 0 || fails <= 0 {
		return 0
	}
	max := b.Max
	if max <= 0 {
		max = b.Base << 6
	}
	n := b.Base
	for i := 1; i < fails && n < max; i++ {
		n <<= 1
	}
	if n > max {
		n = max
	}
	// Seeded jitter: fold the seed, peer and failure count through a
	// splitmix64 finalizer.
	h := uint64(b.Seed) ^ uint64(fails)*0x9e3779b97f4a7c15
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint64(addr[i])) * 0x100000001b3
	}
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return n + int(h%uint64(b.Base+1))
}

// ErrPeerBackoff marks a round skipped because the peer's backoff window is
// open: the peer failed recently and the pool is not ready to retry it yet.
// No network traffic happened; callers treat it as "peer temporarily
// excused", not as a new failure.
var ErrPeerBackoff = errors.New("antientropy: peer in backoff")

// PoolOptions configures a Pool. The zero value of every field selects the
// default, so callers set only what they need.
type PoolOptions struct {
	// Transport carries the pool's connections; nil means TCP.
	Transport Transport
	// Timeout bounds each round and each dial; 0 means the 10s default.
	Timeout time.Duration
	// Idle retires sessions unused for this long; 0 means the 90s default,
	// negative disables idle expiry (for logical-time transports, whose
	// sessions should never age by wall clock).
	Idle time.Duration
	// Backoff skips rounds to repeatedly-failing peers; the zero policy
	// disables it.
	Backoff BackoffPolicy
}

// NewPool creates an empty pool with the default transport (TCP), idle and
// per-round timeouts, and no backoff.
func NewPool() *Pool {
	return NewPoolOptions(PoolOptions{})
}

// NewPoolOptions creates an empty pool with explicit options.
func NewPoolOptions(opts PoolOptions) *Pool {
	p := &Pool{
		idle:      opts.Idle,
		timeout:   opts.Timeout,
		transport: opts.Transport,
		backoff:   opts.Backoff,
		conns:     make(map[string]*poolConn),
	}
	if p.idle == 0 {
		p.idle = defaultPoolIdle
	}
	if p.timeout == 0 {
		p.timeout = defaultTimeout
	}
	if p.transport == nil {
		p.transport = TCP
	}
	return p
}

// Dials reports how many TCP connections the pool has opened since creation
// — the number a gossip session keeps at O(peers) where per-round dialing
// would pay O(rounds).
func (p *Pool) Dials() int64 { return p.dials.Load() }

// Close drops every pooled session, waiting for in-flight rounds to release
// their connections first (a round holds its session for at most the round
// timeout). New rounds fail immediately; the pool must not be used
// afterwards.
func (p *Pool) Close() error {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	// Taking each session lock serializes against in-flight rounds: either
	// the round finished and we close its connection, or the round is still
	// running and we close right after it releases. Rounds re-check closed
	// before dialing, so no connection can appear after this sweep.
	for _, pc := range conns {
		pc.mu.Lock()
		p.drop(pc)
		pc.mu.Unlock()
	}
	return nil
}

// entry returns (creating if needed) the pool slot for addr.
func (p *Pool) entry(addr string) (*poolConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("antientropy: pool closed")
	}
	pc, ok := p.conns[addr]
	if !ok {
		pc = &poolConn{}
		p.conns[addr] = pc
	}
	return pc, nil
}

// ensure makes pc hold a live session, dialing (and sending the session's
// version byte) when there is none or the current one idled out. It reports
// whether the session is freshly dialed. pc.mu must be held.
func (p *Pool) ensure(pc *poolConn, addr string) (fresh bool, err error) {
	if pc.conn != nil && p.idle >= 0 && time.Since(pc.lastUsed) > p.idle {
		p.drop(pc)
	}
	if pc.conn != nil {
		return false, nil
	}
	raw, err := p.transport.Dial(addr, p.timeout)
	if err != nil {
		return false, fmt.Errorf("antientropy: dial %s: %w", addr, err)
	}
	p.dials.Add(1)
	conn := &countingConn{Conn: raw}
	_ = conn.SetDeadline(time.Now().Add(p.timeout))
	if _, err := conn.Write([]byte{protocolVersion}); err != nil {
		_ = conn.Close()
		return false, fmt.Errorf("antientropy: open session %s: %w", addr, err)
	}
	pc.conn = conn
	pc.fw.w = conn
	if pc.fr.br == nil {
		pc.fr.br = bufio.NewReader(conn)
	} else {
		pc.fr.br.Reset(conn)
	}
	pc.rounds = 0
	return true, nil
}

// drop closes and forgets pc's session. pc.mu must be held.
func (p *Pool) drop(pc *poolConn) {
	if pc.conn != nil {
		_ = pc.conn.Close()
		pc.conn = nil
		pc.fr.br.Reset(nil)
	}
	pc.probePending = false
}

// ErrRetryUnsafe marks a round failure that happened after the round's
// entries frame may have reached the peer. The peer may have applied those
// entries and forked its stamps even though no reply arrived; re-running
// the round would present the same entries against the forked copies,
// which compare as causally unrelated and reconcile by reseeding — a
// double apply. Such failures surface to the caller instead of being
// retried; the next round reconciles from whatever state the peer reached.
var ErrRetryUnsafe = errors.New("antientropy: round not retriable: entries may have been applied")

// retriable reports whether a failed round may be transparently re-run on a
// fresh dial. The conditions are deliberately explicit:
//
//   - !fresh: the session existed before this attempt. A failure on a
//     connection dialed moments ago means the peer is down or rejecting,
//     not that a previously good session went stale.
//   - rounds > 0: the session had proven itself; its death is the known
//     server-restart/idle-drop pattern the retry exists for.
//   - not ErrProtocol: the server answered. Asking again would not change
//     its mind.
//   - not ErrRetryUnsafe: the round's entries frame was (possibly
//     partially) written before the failure. The server may have applied
//     it; re-sending would double-apply (see ErrRetryUnsafe).
func retriable(err error, fresh bool, rounds int) bool {
	return !fresh && rounds > 0 &&
		!errors.Is(err, ErrProtocol) &&
		!errors.Is(err, ErrRetryUnsafe)
}

// RoundInfo describes how a pooled round went, beyond its SyncResult — the
// raw material of structured round reports.
type RoundInfo struct {
	Attempts   int  // protocol attempts made (0 when skipped by backoff)
	FreshDials int  // attempts that required a fresh dial
	Retried    bool // a failed attempt was transparently retried
	Backoff    bool // the round was skipped by the peer's backoff window
}

// round runs one tree round of local's stripes (nil: all of them) over
// addr's pooled session, redialing transparently: a round that fails on a
// session that had already served rounds (the server restarted, or idled
// the session out under our idle threshold) is retried exactly once on a
// fresh dial, unless retrying could double-apply the round's entries (see
// retriable). With a backoff policy configured, repeated failures make
// subsequent rounds to the same peer fail fast with ErrPeerBackoff instead
// of re-paying the dial timeout. An invalid stripe set fails before anything
// is dialed.
func (p *Pool) round(addr string, local *kvstore.Replica, stripes []int) (kvstore.SyncResult, RoundInfo, error) {
	var info RoundInfo
	pc, err := p.entry(addr)
	if err != nil {
		return kvstore.SyncResult{}, info, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	defer func() {
		pc.release()
		pc.fr.trim()
		pc.fw.trim()
	}()
	if err := pc.load(local, stripes); err != nil {
		return kvstore.SyncResult{}, info, err
	}
	if pc.skip > 0 {
		pc.skip--
		info.Backoff = true
		return kvstore.SyncResult{}, info, fmt.Errorf("%w: %s (%d rounds left)", ErrPeerBackoff, addr, pc.skip)
	}
	for {
		// Re-checked under pc.mu on every attempt: once Close has set
		// closed it only remains to sweep the sessions, and it cannot pass
		// our pc.mu until we return — so a dial below can never outlive the
		// sweep unclosed.
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			return kvstore.SyncResult{}, info, errors.New("antientropy: pool closed")
		}
		fresh, err := p.ensure(pc, addr)
		if err != nil {
			p.armBackoff(pc, addr)
			return kvstore.SyncResult{}, info, err
		}
		info.Attempts++
		if fresh {
			info.FreshDials++
		}
		_ = pc.conn.SetDeadline(time.Now().Add(p.timeout))
		startSent, startRecv := pc.conn.sent.Load(), pc.conn.recv.Load()
		// The round's opening rides the session opening: a fresh session's
		// one-byte ack is read after the round's first frame is sent.
		if err = pc.start(); err == nil && fresh {
			var ack byte
			if ack, err = pc.fr.br.ReadByte(); err != nil {
				err = fmt.Errorf("antientropy: session ack: %w", err)
			} else if ack != protocolVersion {
				err = fmt.Errorf("%w: session opening answered with 0x%02x, not the 0x%02x ack",
					ErrProtocol, ack, protocolVersion)
			}
		}
		for done := false; err == nil && !done; {
			var kind byte
			if kind, err = pc.fr.next(); err == nil {
				done, err = pc.receive(kind)
			}
		}
		if err == nil {
			res := pc.result
			res.BytesSent = pc.conn.sent.Load() - startSent
			res.BytesReceived = pc.conn.recv.Load() - startRecv
			pc.rounds++
			pc.lastUsed = time.Now()
			pc.fails, pc.skip = 0, 0
			return res, info, nil
		}
		if pc.entriesSent && !errors.Is(err, ErrProtocol) {
			err = fmt.Errorf("%w: %w", ErrRetryUnsafe, err)
		}
		retry := retriable(err, fresh, pc.rounds)
		p.drop(pc)
		if !retry {
			p.armBackoff(pc, addr)
			return kvstore.SyncResult{}, info, err
		}
		info.Retried = true
	}
}

// armBackoff records a failed round against addr and opens its skip window
// per the pool's backoff policy. pc.mu must be held.
func (p *Pool) armBackoff(pc *poolConn, addr string) {
	pc.fails++
	pc.skip = p.backoff.skipAfter(addr, pc.fails)
}

// SyncWith performs one anti-entropy round between the local replica and
// the server at addr over the pooled session: roots, then diverging tree
// nodes, then leaf digest runs, copies only where stamps require them. The
// byte counters in the result cover exactly this round's frames.
func (p *Pool) SyncWith(addr string, local *kvstore.Replica) (kvstore.SyncResult, error) {
	res, _, err := p.round(addr, local, nil)
	return res, err
}

// SyncStripes performs one round scoped to the given local stripes — the
// pooled, multiplexed replacement for dialing one connection per stripe:
// all scoped exchanges ride the same session. Nil or empty stripes mean
// the whole replica, as SyncWith. Beside the result it returns the round's
// RoundInfo (attempts, fresh dials, retry and backoff verdicts).
func (p *Pool) SyncStripes(addr string, local *kvstore.Replica, stripes []int) (kvstore.SyncResult, RoundInfo, error) {
	if len(stripes) == 0 {
		stripes = nil
	}
	return p.round(addr, local, stripes)
}
