package membership

import (
	"reflect"
	"testing"
)

func TestNewViewValidation(t *testing.T) {
	if _, err := NewView("", Config{}); err == nil {
		t.Fatal("empty self should error")
	}
	if _, err := NewView("a", Config{}, "b", ""); err == nil {
		t.Fatal("empty roster ID should error")
	}
}

func TestBootstrapRosterAlive(t *testing.T) {
	v, err := NewView("a", Config{}, "a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Members(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Members = %v", got)
	}
	for _, id := range []string{"a", "b", "c"} {
		if v.State(id) != Alive {
			t.Fatalf("%s = %v, want alive", id, v.State(id))
		}
	}
	if v.State("nope") != Unknown {
		t.Fatal("unseen ID should be Unknown")
	}
}

// A silent peer degrades alive → suspect → dead at the configured ticks,
// and a fresher counter revives it.
func TestSuspectDeadRevive(t *testing.T) {
	cfg := Config{SuspectAfter: 2, DeadAfter: 4}
	v, err := NewView("a", cfg, "b")
	if err != nil {
		t.Fatal(err)
	}
	states := []State{Alive, Suspect, Suspect, Dead, Dead}
	for i, want := range states {
		v.Tick()
		if got := v.State("b"); got != want {
			t.Fatalf("after tick %d: b = %v, want %v", i+1, got, want)
		}
	}
	// b revives: its own counter advanced past what we knew.
	v.Merge([]Heartbeat{{ID: "b", Counter: 10}})
	if v.State("b") != Alive {
		t.Fatal("fresher counter should revive b")
	}
	// Stale counters do nothing.
	v.Tick()
	v.Tick()
	v.Tick() // suspect again (SuspectAfter=2)
	if v.State("b") != Suspect {
		t.Fatalf("b = %v, want suspect", v.State("b"))
	}
	v.Merge([]Heartbeat{{ID: "b", Counter: 10}})
	if v.State("b") != Suspect {
		t.Fatal("replayed stale counter must not revive")
	}
}

func TestHeartbeatsKeepPeersAlive(t *testing.T) {
	cfg := Config{SuspectAfter: 2, DeadAfter: 4}
	a, _ := NewView("a", cfg, "b")
	b, _ := NewView("b", cfg, "a")
	for i := 0; i < 20; i++ {
		a.Tick()
		b.Tick()
		a.Merge(b.Gossip())
		b.Merge(a.Gossip())
		if a.State("b") != Alive || b.State("a") != Alive {
			t.Fatalf("tick %d: gossiping peers should stay alive", i)
		}
	}
}

func TestMergeDiscoversMembers(t *testing.T) {
	a, _ := NewView("a", Config{})
	if a.MemberVersion() != 0 {
		t.Fatal("fresh view should have MemberVersion 0")
	}
	a.Merge([]Heartbeat{{ID: "b", Counter: 1}, {ID: "c", Counter: 1}})
	if got := a.Members(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("Members = %v", got)
	}
	if a.MemberVersion() != 2 {
		t.Fatalf("MemberVersion = %d, want 2", a.MemberVersion())
	}
	// Re-merging known IDs must not bump the member version.
	a.Merge([]Heartbeat{{ID: "b", Counter: 5}})
	if a.MemberVersion() != 2 {
		t.Fatal("known ID merge must not bump MemberVersion")
	}
}

// Counter propagation is transitive: c learns that a is alive purely via b.
func TestTransitivePropagation(t *testing.T) {
	cfg := Config{SuspectAfter: 3, DeadAfter: 6}
	a, _ := NewView("a", cfg, "b", "c")
	b, _ := NewView("b", cfg, "a", "c")
	c, _ := NewView("c", cfg, "a", "b")
	for i := 0; i < 10; i++ {
		a.Tick()
		b.Tick()
		c.Tick()
		// a only talks to b; c only talks to b.
		a.Merge(b.Gossip())
		b.Merge(a.Gossip())
		c.Merge(b.Gossip())
		b.Merge(c.Gossip())
	}
	if c.State("a") != Alive {
		t.Fatalf("c sees a as %v via relay, want alive", c.State("a"))
	}
	if a.State("c") != Alive {
		t.Fatalf("a sees c as %v via relay, want alive", a.State("c"))
	}
}

func TestRefreshGrantsGrace(t *testing.T) {
	cfg := Config{SuspectAfter: 2, DeadAfter: 4}
	v, _ := NewView("a", cfg, "b")
	for i := 0; i < 6; i++ {
		v.Tick()
	}
	if v.State("b") != Dead {
		t.Fatal("setup: b should be dead")
	}
	v.Refresh()
	if v.State("b") != Alive {
		t.Fatal("Refresh should reset b to alive")
	}
	v.Tick()
	if v.State("b") != Alive {
		t.Fatal("one tick after Refresh, b should still be within grace")
	}
}

func TestAlive(t *testing.T) {
	cfg := Config{SuspectAfter: 1, DeadAfter: 2}
	v, _ := NewView("a", cfg, "b", "c")
	v.Merge([]Heartbeat{{ID: "b", Counter: 2}})
	v.Tick() // c ages to suspect (age 1 >= 1); b was refreshed at tick 0... both age
	// After one tick: b seenAt=0 age 1 → suspect; keep simple: both non-self suspect.
	if got := v.Alive(); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("Alive = %v, want [a]", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []string {
		cfg := Config{SuspectAfter: 2, DeadAfter: 4}
		a, _ := NewView("a", cfg, "b", "c")
		b, _ := NewView("b", cfg, "a", "c")
		var log []string
		for i := 0; i < 8; i++ {
			a.Tick()
			b.Tick()
			if i%2 == 0 {
				a.Merge(b.Gossip())
				b.Merge(a.Gossip())
			}
			log = append(log, a.State("b").String(), a.State("c").String(), b.State("c").String())
		}
		return log
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("identical runs diverged")
	}
}
