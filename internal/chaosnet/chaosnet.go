// Package chaosnet is a deterministic in-memory network fabric for fault
// injection. It hands out net.Conn / net.Listener values whose bytes flow
// through a segment layer with per-link seeded faults — drop, duplicate,
// reorder, delay, bandwidth caps, asymmetric partitions, and mid-stream
// connection cuts — all driven by a logical tick counter, never by timers.
//
// Determinism is the design center. Every fault decision is a pure function
// of (fabric seed, directed link, connection sequence number, segment
// sequence number), so outcomes do not depend on goroutine interleaving:
// the same seed and the same traffic produce the same drops, the same
// duplicates, and the same cuts, regardless of scheduling. Time is a single
// logical tick shared by the fabric; a reader blocked on a delayed segment
// advances the tick to the earliest pending delivery instead of sleeping.
//
// The stream abstraction survives packet-level faults the way TCP does:
// writes are split into sequence-numbered segments, the receiver reassembles
// in order, a dropped segment is retransmitted after an RTO's worth of ticks
// (modeled as extra delay), a duplicate is discarded by sequence number, and
// reordering is absorbed by the reassembly buffer. Only a connection cut
// (CutAfterBytes, retransmission exhaustion, Partition, or Close) surfaces
// as an error on the conn — exactly the failure surface real sockets give
// the protocol layers above.
package chaosnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"
)

// Faults configures the fault model of one directed link (or the fabric
// default). The zero value is a perfect network: instant, lossless,
// unbounded.
type Faults struct {
	// DelayTicks delays every segment by this many logical ticks.
	DelayTicks int
	// JitterTicks adds a seeded per-segment delay in [0, JitterTicks].
	JitterTicks int
	// DropProb drops a segment with this probability (seeded). A dropped
	// segment is retransmitted: it arrives rtoTicks later per consecutive
	// drop, and maxRetrans consecutive drops reset the connection.
	DropProb float64
	// DupProb schedules a second (discarded-on-arrival) copy of a segment.
	DupProb float64
	// ReorderProb gives a segment extra delay so it arrives after its
	// successors (absorbed by reassembly; stresses buffering, not framing).
	ReorderProb float64
	// BytesPerTick caps link bandwidth; 0 = unbounded. Segments queue
	// behind one another at this drain rate.
	BytesPerTick int
	// CutAfterBytes resets every connection on this link after roughly this
	// many bytes (seeded ±25% per connection), modeling mid-frame cuts.
	// 0 = never.
	CutAfterBytes int64
	// DialFailProb fails Dial outright with this probability (seeded).
	DialFailProb float64
	// Block makes the link a black hole: dials fail, in-flight segments are
	// discarded, reads on the receiving side time out. Asymmetric: set on
	// one direction only for an asymmetric partition.
	Block bool
}

// Stats counts fault events across the fabric since construction. Counters
// only grow; read a snapshot with Fabric.Stats.
type Stats struct {
	Delivered   int64 `json:"delivered"`   // segments delivered
	Drops       int64 `json:"drops"`       // segments dropped (then retransmitted)
	Dups        int64 `json:"dups"`        // duplicate segments scheduled
	Reorders    int64 `json:"reorders"`    // segments given reorder delay
	Cuts        int64 `json:"cuts"`        // mid-stream connection cuts
	Resets      int64 `json:"resets"`      // connections reset (cuts + retransmission exhaustion + partitions)
	DialsFailed int64 `json:"dialsFailed"` // dials refused by faults or partitions
	Blackholed  int64 `json:"blackholed"`  // reads/writes timed out on blocked links
}

const (
	segmentBytes = 512 // max payload per segment
	rtoTicks     = 4   // extra delay per consecutive drop (retransmission)
	maxRetrans   = 8   // consecutive drops that reset the connection
)

// ErrClosed is returned by operations on a closed fabric, host, or conn.
var ErrClosed = errors.New("chaosnet: closed")

// netError is a net.Error with a Timeout verdict, what protocol layers
// check to distinguish dead-slow from dead.
type netError struct {
	msg     string
	timeout bool
}

func (e *netError) Error() string   { return e.msg }
func (e *netError) Timeout() bool   { return e.timeout }
func (e *netError) Temporary() bool { return e.timeout }

var (
	errReset     = &netError{msg: "chaosnet: connection reset by fault injection"}
	errBlackhole = &netError{msg: "chaosnet: i/o timeout (link blocked)", timeout: true}
)

type linkKey struct{ from, to string }

// Fabric is one simulated network: a set of named hosts, the links between
// them, and a shared logical clock. All methods are safe for concurrent use.
type Fabric struct {
	mu        sync.Mutex
	cond      *sync.Cond
	seed      int64
	tick      int64
	listeners map[string]*Listener
	links     map[linkKey]Faults
	defaults  Faults
	group     map[string]int // partition group per host; absent = group 0
	dialSeq   map[linkKey]uint64
	pipes     map[*pipe]struct{}
	stats     Stats
	closed    bool
}

// New creates a fabric whose every fault decision derives from seed.
func New(seed int64) *Fabric {
	f := &Fabric{
		seed:      seed,
		listeners: make(map[string]*Listener),
		links:     make(map[linkKey]Faults),
		group:     make(map[string]int),
		dialSeq:   make(map[linkKey]uint64),
		pipes:     make(map[*pipe]struct{}),
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// Tick returns the current logical tick.
func (f *Fabric) Tick() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tick
}

// Advance moves the logical clock forward n ticks and wakes blocked readers.
func (f *Fabric) Advance(n int64) {
	f.mu.Lock()
	f.tick += n
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Stats returns a snapshot of the fault counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// SetDefaultFaults sets the fault model applied to links with no explicit
// SetLinkFaults entry.
func (f *Fabric) SetDefaultFaults(fl Faults) {
	f.mu.Lock()
	f.defaults = fl
	f.cond.Broadcast()
	f.mu.Unlock()
}

// SetLinkFaults sets the fault model of the directed link from → to,
// overriding the default. Setting Block discards the link's in-flight
// segments immediately.
func (f *Fabric) SetLinkFaults(from, to string, fl Faults) {
	f.mu.Lock()
	f.links[linkKey{from, to}] = fl
	if fl.Block {
		for p := range f.pipes {
			if p.from == from && p.to == to {
				p.segs = nil
			}
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// ClearLinkFaults removes the explicit fault model of from → to, reverting
// the link to the fabric default.
func (f *Fabric) ClearLinkFaults(from, to string) {
	f.mu.Lock()
	delete(f.links, linkKey{from, to})
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Partition splits hosts into numbered groups; traffic crossing a group
// boundary is cut (existing connections reset, new dials refused). Hosts
// not named stay in group 0. Heal undoes it.
//
// Each connection it cuts counts as one reset, and only if it was still
// open at both ends and not reset already: whether a closed end's peer has
// closed too, and so unregistered its last pipe, depends on when that
// peer's goroutine ran, so a count of pipes would too.
func (f *Fabric) Partition(groups map[string]int) {
	f.mu.Lock()
	f.group = make(map[string]int, len(groups))
	for id, g := range groups {
		f.group[id] = g
	}
	cut := func(p *pipe) bool { return f.group[p.from] != f.group[p.to] }
	for p := range f.pipes {
		if cut(p) && p.dialed && p.live() && p.peer.live() {
			f.stats.Resets++
		}
	}
	for p := range f.pipes {
		if cut(p) {
			p.resetLocked()
		}
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Heal removes all partition boundaries. Connections reset by Partition
// stay dead — the layers above redial, as they would in production.
func (f *Fabric) Heal() {
	f.mu.Lock()
	f.group = make(map[string]int)
	f.cond.Broadcast()
	f.mu.Unlock()
}

// Close shuts the fabric down: every conn errors, every listener stops.
func (f *Fabric) Close() {
	f.mu.Lock()
	f.closed = true
	for p := range f.pipes {
		p.resetLocked()
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// faultsLocked returns the effective fault model of from → to.
func (f *Fabric) faultsLocked(from, to string) Faults {
	if fl, ok := f.links[linkKey{from, to}]; ok {
		return fl
	}
	return f.defaults
}

// Node returns the fabric endpoint for host id, the object whose Dial and
// Listen stand in for the TCP stack. Hosts need no registration; any id is
// valid.
func (f *Fabric) Node(id string) *Host { return &Host{f: f, id: id} }

// Host is one named endpoint of a fabric.
type Host struct {
	f  *Fabric
	id string
}

// ID returns the host's name.
func (h *Host) ID() string { return h.id }

// Listen opens a listener for this host. The addr is cosmetic — each host
// has one listening identity, and the returned listener's Addr() reports
// the host id, which is what peers Dial.
func (h *Host) Listen(addr string) (net.Listener, error) {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	if h.f.closed {
		return nil, ErrClosed
	}
	if _, ok := h.f.listeners[h.id]; ok {
		return nil, fmt.Errorf("chaosnet: host %q already listening", h.id)
	}
	l := &Listener{f: h.f, id: h.id}
	h.f.listeners[h.id] = l
	return l, nil
}

// Dial connects to the host named addr. The timeout parameter is accepted
// for interface compatibility and ignored — chaosnet failures are decided
// by faults, not clocks.
func (h *Host) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	_ = timeout
	f := h.f
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	lk := linkKey{h.id, addr}
	seq := f.dialSeq[lk]
	f.dialSeq[lk] = seq + 1
	fwd := f.faultsLocked(h.id, addr)
	rev := f.faultsLocked(addr, h.id)
	if f.group[h.id] != f.group[addr] || fwd.Block {
		f.stats.DialsFailed++
		f.mu.Unlock()
		return nil, &netError{msg: fmt.Sprintf("chaosnet: dial %s->%s: no route", h.id, addr), timeout: true}
	}
	if fwd.DialFailProb > 0 && chance(hash3(f.seed, linkSalt(h.id, addr), seq, 0), fwd.DialFailProb) {
		f.stats.DialsFailed++
		f.mu.Unlock()
		return nil, &netError{msg: fmt.Sprintf("chaosnet: dial %s->%s: injected failure", h.id, addr), timeout: true}
	}
	l, ok := f.listeners[addr]
	if !ok || l.closed {
		f.mu.Unlock()
		return nil, &netError{msg: fmt.Sprintf("chaosnet: dial %s->%s: connection refused", h.id, addr)}
	}
	ab := newPipe(f, h.id, addr, seq, fwd)
	ba := newPipe(f, addr, h.id, seq, rev)
	ab.peer, ba.peer, ab.dialed = ba, ab, true
	f.pipes[ab] = struct{}{}
	f.pipes[ba] = struct{}{}
	client := &Conn{f: f, local: h.id, remote: addr, out: ab, in: ba}
	server := &Conn{f: f, local: addr, remote: h.id, out: ba, in: ab}
	l.backlog = append(l.backlog, server)
	f.cond.Broadcast()
	f.mu.Unlock()
	return client, nil
}

// Listener accepts fabric connections for one host.
type Listener struct {
	f       *Fabric
	id      string
	backlog []*Conn
	closed  bool
}

// Accept waits for and returns the next connection.
func (l *Listener) Accept() (net.Conn, error) {
	f := l.f
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if l.closed || f.closed {
			return nil, ErrClosed
		}
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			l.backlog = l.backlog[1:]
			return c, nil
		}
		f.cond.Wait()
	}
}

// Close stops the listener. Established connections are unaffected.
func (l *Listener) Close() error {
	f := l.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if !l.closed {
		l.closed = true
		if f.listeners[l.id] == l {
			delete(f.listeners, l.id)
		}
		f.cond.Broadcast()
	}
	return nil
}

// Addr reports the host id; it is what peers pass to Dial.
func (l *Listener) Addr() net.Addr { return fabricAddr(l.id) }

type fabricAddr string

func (a fabricAddr) Network() string { return "chaosnet" }
func (a fabricAddr) String() string  { return string(a) }

// segment is one in-flight chunk of a pipe's byte stream.
type segment struct {
	seq  uint64
	due  int64
	data []byte
	dup  bool // duplicate copy: discarded on arrival
}

// pipe is one direction of one connection.
type pipe struct {
	f        *Fabric
	from, to string
	connSeq  uint64
	faults   Faults // snapshot at dial; Block/partition checks stay live

	nextSeq    uint64    // next segment sequence to assign
	deliverSeq uint64    // next segment sequence the reader expects
	segs       []segment // in flight, unordered
	buf        []byte    // reassembled, readable now
	sent       int64     // payload bytes accepted from the writer
	nextFree   int64     // bandwidth pacing: earliest tick the link is free
	cutAt      int64     // byte count that cuts the conn; 0 = never
	reset      bool      // connection reset: reads/writes error
	wclosed    bool      // writer closed cleanly: reads drain then EOF
	drops      int       // consecutive drops (retransmission counter)
	peer       *pipe     // the connection's other direction
	dialed     bool      // the dialer's outgoing direction, which stands for the connection
}

// live reports whether the pipe's writer has neither closed nor been reset.
func (p *pipe) live() bool { return !p.reset && !p.wclosed }

func newPipe(f *Fabric, from, to string, connSeq uint64, fl Faults) *pipe {
	p := &pipe{f: f, from: from, to: to, connSeq: connSeq, faults: fl}
	if fl.CutAfterBytes > 0 {
		// ±25% seeded per-connection jitter so parallel conns cut at
		// different points in their streams.
		j := hash3(f.seed, linkSalt(from, to), connSeq, ^uint64(0))
		span := fl.CutAfterBytes / 2
		if span > 0 {
			p.cutAt = fl.CutAfterBytes - span/2 + int64(j%uint64(span))
		} else {
			p.cutAt = fl.CutAfterBytes
		}
	}
	return p
}

func (p *pipe) resetLocked() {
	if !p.reset {
		p.reset = true
		p.segs = nil
	}
}

// liveFaultsLocked returns the current fault model of the pipe's link —
// Block and probabilities are honored live so SetLinkFaults mid-connection
// takes effect; bandwidth/delay shaping uses the same live values too.
func (p *pipe) liveFaultsLocked() Faults { return p.f.faultsLocked(p.from, p.to) }

// blockedLocked reports whether the pipe can move data at all right now.
func (p *pipe) blockedLocked() bool {
	return p.liveFaultsLocked().Block || p.f.group[p.from] != p.f.group[p.to]
}

// write enqueues b's bytes as segments. Called with f.mu held.
func (p *pipe) writeLocked(b []byte) (int, error) {
	f := p.f
	if p.reset {
		return 0, errReset
	}
	if p.blockedLocked() {
		// Black hole: the bytes vanish. The writer does not learn — like a
		// real socket writing into a dead link — but the conn marks itself
		// so a subsequent read times out instead of hanging forever.
		f.stats.Blackholed++
		p.sent += int64(len(b))
		return len(b), nil
	}
	fl := p.liveFaultsLocked()
	salt := linkSalt(p.from, p.to)
	n := 0
	for len(b) > 0 {
		chunk := b
		if len(chunk) > segmentBytes {
			chunk = chunk[:segmentBytes]
		}
		b = b[len(chunk):]
		seq := p.nextSeq
		p.nextSeq++
		h := hash3(f.seed, salt, p.connSeq, seq)
		delay := int64(fl.DelayTicks)
		if fl.JitterTicks > 0 {
			delay += int64(h % uint64(fl.JitterTicks+1))
		}
		// Bandwidth pacing: segments drain at BytesPerTick.
		due := f.tick + delay
		if fl.BytesPerTick > 0 {
			if p.nextFree < f.tick {
				p.nextFree = f.tick
			}
			occupancy := int64((len(chunk) + fl.BytesPerTick - 1) / fl.BytesPerTick)
			due = p.nextFree + delay
			p.nextFree += occupancy
		}
		if fl.DropProb > 0 && chance(rot(h, 17), fl.DropProb) {
			f.stats.Drops++
			p.drops++
			if p.drops >= maxRetrans {
				f.stats.Resets++
				p.resetLocked()
				return n, errReset
			}
			// Retransmission: the segment still arrives, rtoTicks later per
			// consecutive drop so far.
			due += int64(p.drops) * rtoTicks
		} else {
			p.drops = 0
		}
		if fl.ReorderProb > 0 && chance(rot(h, 31), fl.ReorderProb) {
			f.stats.Reorders++
			due += rtoTicks / 2
		}
		data := make([]byte, len(chunk))
		copy(data, chunk)
		p.segs = append(p.segs, segment{seq: seq, due: due, data: data})
		if fl.DupProb > 0 && chance(rot(h, 47), fl.DupProb) {
			f.stats.Dups++
			p.segs = append(p.segs, segment{seq: seq, due: due + 1, data: data, dup: true})
		}
		n += len(chunk)
		p.sent += int64(len(chunk))
		if p.cutAt > 0 && p.sent >= p.cutAt {
			// Mid-stream cut: everything already segmented may still arrive
			// (it is "on the wire"), but the connection is dead.
			f.stats.Cuts++
			f.stats.Resets++
			p.resetLocked2()
			return n, errReset
		}
	}
	f.cond.Broadcast()
	return n, nil
}

// resetLocked2 cuts the connection but lets already-queued segments deliver:
// the receiver sees a partial stream then a reset — a true mid-frame cut.
func (p *pipe) resetLocked2() {
	p.reset = true
}

// pump moves due, in-order segments into the read buffer. Returns true if
// it made progress. Called with f.mu held.
func (p *pipe) pumpLocked() bool {
	f := p.f
	progressed := false
	for {
		found := -1
		for i := range p.segs {
			s := &p.segs[i]
			if s.due <= f.tick {
				if s.seq < p.deliverSeq || (s.dup && s.seq != p.deliverSeq) {
					// Duplicate of something already delivered: discard.
					p.segs = append(p.segs[:i], p.segs[i+1:]...)
					found = -2
					break
				}
				if s.seq == p.deliverSeq {
					found = i
					break
				}
			}
		}
		if found == -2 {
			continue
		}
		if found < 0 {
			return progressed
		}
		s := p.segs[found]
		p.segs = append(p.segs[:found], p.segs[found+1:]...)
		p.buf = append(p.buf, s.data...)
		p.deliverSeq++
		f.stats.Delivered++
		progressed = true
	}
}

// earliestLocked returns the earliest future due tick among pending
// segments that the reader is actually waiting for, or -1 if none.
func (p *pipe) earliestLocked() int64 {
	best := int64(-1)
	for i := range p.segs {
		s := &p.segs[i]
		if s.due > p.f.tick && (best < 0 || s.due < best) {
			best = s.due
		}
	}
	return best
}

// Conn is one endpoint of a fabric connection. It implements net.Conn.
// Deadlines are no-ops: chaosnet time is logical, and blocking reads
// resolve by advancing the fabric tick, not by expiring timers.
type Conn struct {
	f          *Fabric
	local      string
	remote     string
	in, out    *pipe
	closed     bool
	blackholed bool // wrote into a blocked link: next read times out
}

// Read returns reassembled in-order bytes, advancing the logical clock when
// everything pending lies in the future.
func (c *Conn) Read(b []byte) (int, error) {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if c.closed {
			return 0, ErrClosed
		}
		c.in.pumpLocked()
		if len(c.in.buf) > 0 {
			n := copy(b, c.in.buf)
			c.in.buf = c.in.buf[n:]
			return n, nil
		}
		if c.in.reset || f.closed {
			return 0, errReset
		}
		if c.in.wclosed && len(c.in.segs) == 0 {
			return 0, io.EOF
		}
		// Nothing readable. If the incoming link is blocked, or we wrote
		// into a blocked outgoing link (our request went to a black hole,
		// so no reply is coming), fail fast with a timeout error instead
		// of deadlocking the protocol layer.
		if c.in.blockedLocked() || c.blackholed || (c.out.blockedLocked() && c.out.sent > 0) {
			f.stats.Blackholed++
			return 0, errBlackhole
		}
		// If segments are pending but due in the future, advance the global
		// clock to the earliest due tick — the event-driven heart of the
		// logical time model.
		if due := c.in.earliestLocked(); due >= 0 {
			if due > f.tick {
				f.tick = due
			}
			f.cond.Broadcast()
			continue
		}
		f.cond.Wait()
	}
}

// Write splits b into fault-subjected segments on the outgoing pipe.
func (c *Conn) Write(b []byte) (int, error) {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.closed {
		return 0, ErrClosed
	}
	if f.closed {
		return 0, errReset
	}
	if c.out.blockedLocked() {
		c.blackholed = true
	}
	return c.out.writeLocked(b)
}

// Close tears down both directions and unregisters the pipes.
func (c *Conn) Close() error {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.out.wclosed = true
	// Reads on our side must not hang: drop the incoming pipe's claim on
	// future wakeups by resetting it for us only when drained is fine —
	// the peer's writes simply accumulate unread.
	delete(f.pipes, c.out)
	if c.in.wclosed {
		delete(f.pipes, c.in)
	}
	f.cond.Broadcast()
	return nil
}

// LocalAddr reports the local host id.
func (c *Conn) LocalAddr() net.Addr { return fabricAddr(c.local) }

// RemoteAddr reports the remote host id.
func (c *Conn) RemoteAddr() net.Addr { return fabricAddr(c.remote) }

// SetDeadline is a no-op: chaosnet time is logical.
func (c *Conn) SetDeadline(t time.Time) error { return nil }

// SetReadDeadline is a no-op.
func (c *Conn) SetReadDeadline(t time.Time) error { return nil }

// SetWriteDeadline is a no-op.
func (c *Conn) SetWriteDeadline(t time.Time) error { return nil }

// linkSalt folds a directed link's names into a hash salt.
func linkSalt(from, to string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(from); i++ {
		h = (h ^ uint64(from[i])) * prime64
	}
	h = (h ^ 0xff) * prime64
	for i := 0; i < len(to); i++ {
		h = (h ^ uint64(to[i])) * prime64
	}
	return h
}

// hash3 mixes the fabric seed, link salt, connection and segment sequence
// numbers into a uniform 64-bit value (splitmix64 finalizer). Deterministic
// and interleaving-independent by construction.
func hash3(seed int64, salt, connSeq, segSeq uint64) uint64 {
	x := uint64(seed) ^ rot(salt, 23) ^ rot(connSeq, 44) ^ segSeq
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rot(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// chance maps a hash to a Bernoulli draw with probability p.
func chance(h uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(h>>11)/float64(1<<53) < p
}

// Hosts returns the ids of all hosts currently listening, sorted — a
// convenience for scenario code enumerating the fabric.
func (f *Fabric) Hosts() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	ids := make([]string, 0, len(f.listeners))
	for id := range f.listeners {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
