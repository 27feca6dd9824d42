package membership

import (
	"testing"
)

// FuzzViewAgainstModel drives a View through an arbitrary interleaving of
// ticks, merges of (possibly stale) heartbeat tables from two simulated
// gossip partners, and crash-refreshes — checking it against a naive
// reference model after every operation, plus the invariants the cluster
// layers rely on:
//
//   - counters never regress;
//   - MemberVersion never regresses;
//   - a Dead member is never resurrected by a stale counter (one not
//     strictly fresher than what the view already held);
//   - the view's judgment of every member equals the model's.
//
// The two partners advance independently, so one can gossip tables that
// lag the other — the replayed-stale-heartbeat case that must never
// re-alive a dead node.
func FuzzViewAgainstModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 9, 1, 1})       // long silence then stale merge
	f.Add([]byte{1, 255, 0, 1, 0, 2, 1, 3})              // merge-heavy
	f.Add([]byte{0, 1, 128, 0, 0, 0, 0, 0, 2, 1, 64, 0}) // death then refresh
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 1, 255, 0, 0, 2})

	roster := []string{"n0", "n1", "n2", "n3"}
	cfg := Config{SuspectAfter: 2, DeadAfter: 4}

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := NewView("n0", cfg, roster...)
		if err != nil {
			t.Fatal(err)
		}
		m := newModel("n0", cfg.withDefaults(), roster)

		// Two gossip partners with independently advancing counters; a
		// merge delivers a snapshot of one partner's counters, which may
		// be arbitrarily stale relative to what the view already merged
		// from the other.
		partners := [2]map[string]uint64{
			{"n0": 0, "n1": 1, "n2": 1, "n3": 1},
			{"n0": 0, "n1": 1, "n2": 1, "n3": 1},
		}

		var lastMember uint64
		check := func(op string) {
			t.Helper()
			if mv := v.MemberVersion(); mv < lastMember {
				t.Fatalf("%s: MemberVersion regressed %d -> %d", op, lastMember, mv)
			} else {
				lastMember = mv
			}
			for _, id := range roster {
				if got, want := v.State(id), m.state(id); got != want {
					t.Fatalf("%s: State(%s) = %v, model says %v", op, id, got, want)
				}
			}
		}

		for i := 0; i < len(data); {
			switch data[i] % 3 {
			case 0: // tick
				i++
				v.Tick()
				m.tick()
				check("tick")
			case 1: // merge a partner's table, optionally advancing it first
				if i+2 >= len(data) {
					return
				}
				p := partners[data[i+1]%2]
				adv := data[i+2]
				i += 3
				// Advance a subset of the partner's counters: bit k of adv
				// bumps roster[k] by (adv>>4)%4. Partner counters only
				// grow, but the partner NOT advanced stays stale.
				for k, id := range roster {
					if adv&(1<<k) != 0 {
						p[id] += uint64(adv>>4)%4 + 1
					}
				}
				table := make([]Heartbeat, 0, len(roster))
				for _, id := range roster {
					table = append(table, Heartbeat{ID: id, Counter: p[id]})
				}
				// Dead-resurrection guard: record who is dead with what
				// counter before the merge.
				deadBefore := map[string]uint64{}
				for _, id := range roster {
					if v.State(id) == Dead {
						deadBefore[id] = m.counter(id)
					}
				}
				v.Merge(table)
				m.merge(table)
				check("merge")
				for _, hb := range table {
					if old, wasDead := deadBefore[hb.ID]; wasDead && hb.Counter <= old {
						if v.State(hb.ID) != Dead {
							t.Fatalf("merge: stale counter %d (<= %d) resurrected dead member %s",
								hb.Counter, old, hb.ID)
						}
					}
				}
			case 2: // crash-refresh
				i++
				v.Refresh()
				m.refresh()
				check("refresh")
			}
		}
	})
}

// model is an independent, deliberately naive re-statement of the membership
// rules: plain maps, no versions, states recomputed from scratch on demand.
type model struct {
	self     string
	cfg      Config
	now      int
	counters map[string]uint64
	seenAt   map[string]int
	dead     map[string]bool // sticky until a strictly fresher counter or refresh
}

func newModel(self string, cfg Config, roster []string) *model {
	m := &model{
		self: self, cfg: cfg,
		counters: map[string]uint64{},
		seenAt:   map[string]int{},
		dead:     map[string]bool{},
	}
	m.counters[self] = 1
	for _, id := range roster {
		if _, ok := m.counters[id]; !ok {
			m.counters[id] = 0
		}
	}
	return m
}

func (m *model) tick() {
	m.now++
	m.counters[m.self]++
	m.seenAt[m.self] = m.now
	for id := range m.counters {
		if id != m.self && m.now-m.seenAt[id] >= m.cfg.DeadAfter {
			m.dead[id] = true
		}
	}
}

func (m *model) merge(table []Heartbeat) {
	for _, hb := range table {
		if hb.Counter > m.counters[hb.ID] {
			m.counters[hb.ID] = hb.Counter
			m.seenAt[hb.ID] = m.now
			if hb.ID != m.self {
				delete(m.dead, hb.ID)
			}
		}
	}
}

func (m *model) refresh() {
	for id := range m.counters {
		m.seenAt[id] = m.now
		delete(m.dead, id)
	}
}

func (m *model) counter(id string) uint64 { return m.counters[id] }

// state recomputes id's liveness from first principles: age since last
// fresh counter, thresholds, and the sticky-death rule (dead stays dead
// until a strictly fresher counter arrives).
func (m *model) state(id string) State {
	if id == m.self {
		return Alive
	}
	age := m.now - m.seenAt[id]
	switch {
	case age >= m.cfg.DeadAfter:
		return Dead
	case m.dead[id]:
		return Dead
	case age >= m.cfg.SuspectAfter:
		return Suspect
	default:
		return Alive
	}
}
