package antientropy

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"versionstamp/internal/kvstore"
)

// syncEachStripe runs one scoped round per local stripe over p's session to
// addr — the whole keyspace, one stripe at a time — and aggregates the
// results.
func syncEachStripe(p *Pool, addr string, local *kvstore.Replica) (kvstore.SyncResult, error) {
	var total kvstore.SyncResult
	for i := 0; i < local.Shards(); i++ {
		res, err := p.SyncStripes(addr, local, []int{i})
		if err != nil {
			return total, fmt.Errorf("stripe %d/%d: %w", i, local.Shards(), err)
		}
		total.Add(res)
	}
	sort.Strings(total.Conflicts)
	return total, nil
}

func TestShardedSyncConverges(t *testing.T) {
	server := kvstore.NewReplica("server")
	for i := 0; i < 40; i++ {
		server.Put(fmt.Sprintf("s-key-%02d", i), []byte("from-server"))
	}
	_, addr := startServer(t, server, nil)

	client := kvstore.NewReplica("client")
	for i := 0; i < 40; i++ {
		client.Put(fmt.Sprintf("c-key-%02d", i), []byte("from-client"))
	}
	p := NewPool()
	defer p.Close()
	res, err := syncEachStripe(p, addr, client)
	if err != nil {
		t.Fatalf("per-stripe rounds: %v", err)
	}
	if res.Transferred != 80 {
		t.Errorf("result = %+v", res)
	}
	for i := 0; i < 40; i++ {
		for _, k := range []string{fmt.Sprintf("s-key-%02d", i), fmt.Sprintf("c-key-%02d", i)} {
			vs, okS := server.Get(k)
			vc, okC := client.Get(k)
			if !okS || !okC || !bytes.Equal(vs, vc) {
				t.Fatalf("diverged on %q: %q/%v vs %q/%v", k, vs, okS, vc, okC)
			}
		}
	}
	// A repeated pass is a no-op: every stripe matches at its tree root.
	res, err = syncEachStripe(p, addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred != 0 || res.Reconciled != 0 || res.Merged != 0 || res.StripesSkipped != client.Shards() {
		t.Errorf("second per-stripe pass not a no-op: %+v", res)
	}
	if p.Dials() != 1 {
		t.Errorf("Dials = %d, want 1: scoped rounds share the session", p.Dials())
	}
}

func TestShardedSyncMatchesWholeSync(t *testing.T) {
	// Two identical divergence scenarios, one synced per stripe, one whole.
	build := func() (*kvstore.Replica, *kvstore.Replica) {
		s := kvstore.NewReplica("s")
		for i := 0; i < 30; i++ {
			s.Put(fmt.Sprintf("key-%02d", i), []byte("base"))
		}
		c := s.Clone("c")
		for i := 0; i < 30; i += 3 {
			c.Put(fmt.Sprintf("key-%02d", i), []byte("edited"))
		}
		s.Put("key-01", []byte("server-side"))
		return s, c
	}

	s1, c1 := build()
	_, addr1 := startServer(t, s1, nil)
	p := NewPool()
	defer p.Close()
	resSharded, err := syncEachStripe(p, addr1, c1)
	if err != nil {
		t.Fatal(err)
	}
	s2, c2 := build()
	_, addr2 := startServer(t, s2, nil)
	resWhole, err := SyncWith(addr2, c2)
	if err != nil {
		t.Fatal(err)
	}
	if resSharded.Transferred != resWhole.Transferred ||
		resSharded.Reconciled != resWhole.Reconciled ||
		resSharded.Merged != resWhole.Merged {
		t.Errorf("sharded %+v vs whole %+v", resSharded, resWhole)
	}
	requireConverged(t, c1, c2)
	requireConverged(t, s1, s2)
	requireConverged(t, s1, c1)
}

func TestShardedSyncConflictsReported(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("k", []byte("base"))
	_, addr := startServer(t, server, nil)
	client := kvstore.NewReplica("client")
	p := NewPool()
	defer p.Close()
	if _, err := syncEachStripe(p, addr, client); err != nil {
		t.Fatal(err)
	}
	server.Put("k", []byte("S"))
	client.Put("k", []byte("C"))
	res, err := syncEachStripe(p, addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Conflicts) != 1 || res.Conflicts[0] != "k" {
		t.Errorf("result = %+v", res)
	}
	if got, _ := client.Get("k"); string(got) != "C" {
		t.Errorf("client value clobbered: %q", got)
	}
}

func TestShardedSyncServerDown(t *testing.T) {
	client := kvstore.NewReplica("client")
	client.Put("k", []byte("v"))
	p := NewPoolOptions(PoolOptions{Timeout: 500 * time.Millisecond})
	defer p.Close()
	if _, err := syncEachStripe(p, "127.0.0.1:1", client); err == nil {
		t.Error("scoped sync with a dead server must fail")
	}
	if got, ok := client.Get("k"); !ok || string(got) != "v" {
		t.Errorf("client state damaged by failed sync: %q, %v", got, ok)
	}
}

// TestShardScopedRequestValidation: a stripe outside the layout is refused
// on both ends — by the pool before anything is dialed, and by the server
// when a peer puts one on the wire anyway.
func TestShardScopedRequestValidation(t *testing.T) {
	server := kvstore.NewReplica("server")
	_, addr := startServer(t, server, nil)
	client := kvstore.NewReplicaShards("client", 4)
	p := NewPool()
	defer p.Close()
	for _, stripes := range [][]int{{99}, {-1}, {2, 2}} {
		if _, err := p.SyncStripes(addr, client, stripes); err == nil {
			t.Errorf("SyncStripes accepted stripes %v of 4", stripes)
		}
	}
	if p.Dials() != 0 {
		t.Errorf("Dials = %d: invalid scopes must fail before dialing", p.Dials())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// kindStripeRoots: of=32 (the server's layout), fanout=16, count=1, then
	// stripe 99 (depth 1, a root).
	frame := []byte{kindStripeRoots, 32, 16, 1, 99, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, err := conn.Write(append([]byte{protocolVersion, byte(len(frame))}, frame...)); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{br: bufio.NewReader(conn)}
	if b, err := fr.br.ReadByte(); err != nil || b != protocolVersion {
		t.Fatalf("ack = 0x%02x, %v", b, err)
	}
	if err := fr.expect(kindStripeRootDiff); !errors.Is(err, ErrProtocol) {
		t.Errorf("server accepted an out-of-range stripe: %v", err)
	}
}

// TestShardedConcurrentClients: several clients run full per-stripe passes
// against one server at once; all stripes stay coherent.
func TestShardedConcurrentClients(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("base", []byte("v"))
	_, addr := startServer(t, server, kvstore.KeepBoth([]byte("|")))
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := kvstore.NewReplica(fmt.Sprintf("c%d", i))
			for j := 0; j < 10; j++ {
				c.Put(fmt.Sprintf("k%d-%d", i, j), []byte("x"))
			}
			p := NewPool()
			defer p.Close()
			if _, err := syncEachStripe(p, addr, c); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent sharded sync: %v", err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 10; j++ {
			if _, ok := server.Get(fmt.Sprintf("k%d-%d", i, j)); !ok {
				t.Errorf("server missing k%d-%d", i, j)
			}
		}
	}
}
