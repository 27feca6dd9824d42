// Package membership is the failure-detection layer under the partitioned
// cluster: each node keeps a View of its peers, learned and refreshed by
// exchanging heartbeat tables over the same gossip rounds that carry
// anti-entropy traffic.
//
// Time is logical: a node calls Tick once per gossip round, which advances
// its own heartbeat counter and ages everyone else's. A peer whose counter
// has not advanced for SuspectAfter ticks becomes Suspect; after DeadAfter
// ticks, Dead. Counters only ever grow, so merging tables is idempotent and
// order-independent, and a revived node — which resumes incrementing the
// same counter — is recognized as alive again the moment its fresher
// counter propagates. There is no wall clock and no randomness: runs are
// exactly reproducible, which the cluster tests rely on.
//
// MemberVersion bumps only when the set of known node IDs grows — the event
// that triggers a deterministic consistent-hash ring rebuild. Death
// deliberately does NOT rebuild the ring: a dead node keeps its stripe
// ownership so that writes which miss it are hint-queued for its revival,
// Dynamo-style, rather than silently re-homed.
package membership

import (
	"fmt"
	"sort"
	"sync"
)

// State is a peer's liveness as judged by one view.
type State int

// Liveness states.
const (
	// Alive: heartbeats are fresh.
	Alive State = iota
	// Suspect: heartbeats are stale; the peer keeps its ring ownership and
	// still receives gossip, but writes may start hinting.
	Suspect
	// Dead: heartbeats stopped long ago; peers stop gossiping with it and
	// queue hints until a fresher counter revives it.
	Dead
	// Unknown: the ID has never been seen by this view.
	Unknown
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// Heartbeat is one row of a gossiped membership table.
type Heartbeat struct {
	ID      string
	Counter uint64
}

// Config sets the staleness thresholds, in ticks.
type Config struct {
	// SuspectAfter is the number of ticks without a fresher counter before
	// a peer turns Suspect (default 3).
	SuspectAfter int
	// DeadAfter is the number of ticks before Suspect turns Dead
	// (default 6). Must exceed SuspectAfter.
	DeadAfter int
}

func (c Config) withDefaults() Config {
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = 2 * c.SuspectAfter
	}
	return c
}

type member struct {
	counter uint64
	seenAt  int // tick when counter last advanced
	state   State
}

// View is one node's opinion of the cluster. Safe for concurrent use.
type View struct {
	mu            sync.Mutex
	self          string
	cfg           Config
	tick          int
	memberVersion uint64
	peers         map[string]*member
}

// NewView creates a view for node self, optionally pre-seeded with a
// bootstrap roster (all initially Alive). Self is always a member.
func NewView(self string, cfg Config, roster ...string) (*View, error) {
	if self == "" {
		return nil, fmt.Errorf("membership: empty self ID")
	}
	v := &View{
		self:  self,
		cfg:   cfg.withDefaults(),
		peers: map[string]*member{self: {counter: 1, state: Alive}},
	}
	for _, id := range roster {
		if id == "" {
			return nil, fmt.Errorf("membership: empty roster ID")
		}
		if _, ok := v.peers[id]; !ok {
			v.peers[id] = &member{counter: 0, state: Alive}
		}
	}
	return v, nil
}

// Self returns the owning node's ID.
func (v *View) Self() string { return v.self }

// Tick advances logical time one gossip round: the node's own counter
// increments, and every peer's staleness is re-judged against the
// thresholds.
func (v *View) Tick() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tick++
	self := v.peers[v.self]
	self.counter++
	self.seenAt = v.tick
	for id, m := range v.peers {
		if id == v.self {
			continue
		}
		age := v.tick - m.seenAt
		switch {
		case age >= v.cfg.DeadAfter:
			m.state = Dead
		case age >= v.cfg.SuspectAfter:
			if m.state != Dead {
				m.state = Suspect
			}
		default:
			m.state = Alive
		}
	}
}

// Gossip returns the view's heartbeat table, sorted by ID — the payload a
// node sends to a gossip partner. Dead members are included so that their
// last counters (and eventual revival) propagate.
func (v *View) Gossip() []Heartbeat {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]Heartbeat, 0, len(v.peers))
	for id, m := range v.peers {
		out = append(out, Heartbeat{ID: id, Counter: m.counter})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Merge folds a gossip partner's table into the view. Counters only move
// forward; a fresher counter refreshes the peer and revives it if it was
// suspect or dead. Unknown IDs join the member set (bumping MemberVersion).
func (v *View) Merge(table []Heartbeat) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, hb := range table {
		if hb.ID == "" {
			continue
		}
		m, ok := v.peers[hb.ID]
		if !ok {
			v.peers[hb.ID] = &member{counter: hb.Counter, seenAt: v.tick, state: Alive}
			v.memberVersion++
			continue
		}
		if hb.Counter > m.counter {
			m.counter = hb.Counter
			m.seenAt = v.tick
			m.state = Alive // self is always Alive
		}
	}
}

// MergeFrom folds another in-process view's table directly into v — the
// allocation-light equivalent of v.Merge(o.Gossip()) for harnesses where
// both views live in one process. At 1k simulated nodes the sorted-table
// round trip (two 1000-row copies per exchange) dominates membership cost;
// the direct map walk removes it. Locks are taken in self-ID order so two
// concurrent MergeFrom calls on crossing pairs cannot deadlock.
func (v *View) MergeFrom(o *View) {
	if v == o {
		return
	}
	if v.self < o.self {
		v.mu.Lock()
		o.mu.Lock()
	} else {
		o.mu.Lock()
		v.mu.Lock()
	}
	defer v.mu.Unlock()
	defer o.mu.Unlock()
	for id, om := range o.peers {
		m, ok := v.peers[id]
		if !ok {
			v.peers[id] = &member{counter: om.counter, seenAt: v.tick, state: Alive}
			v.memberVersion++
			continue
		}
		if om.counter > m.counter {
			m.counter = om.counter
			m.seenAt = v.tick
			m.state = Alive
		}
	}
}

// Refresh marks every member as freshly seen, granting a full staleness
// window before anyone can be suspected. A node calls it when resuming
// after a crash: its frozen view would otherwise instantly suspect peers
// that were fine all along.
func (v *View) Refresh() {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, m := range v.peers {
		m.seenAt = v.tick
		m.state = Alive
	}
}

// State returns the view's judgment of id (Unknown if never seen).
func (v *View) State(id string) State {
	v.mu.Lock()
	defer v.mu.Unlock()
	m, ok := v.peers[id]
	if !ok {
		return Unknown
	}
	return m.state
}

// Members returns all known IDs, sorted — the input to a ring rebuild.
func (v *View) Members() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.peers))
	for id := range v.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Alive returns the IDs currently judged Alive, sorted.
func (v *View) Alive() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []string
	for id, m := range v.peers {
		if m.state == Alive {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// MemberVersion counts growth of the known-ID set; a change means rings
// built from Members() must be rebuilt.
func (v *View) MemberVersion() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.memberVersion
}
