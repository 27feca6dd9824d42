package antientropy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"versionstamp/internal/kvstore"
)

// countingListener wraps a net.Listener and counts accepted connections —
// the server-side witness that pooled rounds reuse sessions instead of
// dialing per round.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return conn, err
}

// startCountedServer serves r on a counting listener, optionally binding a
// fixed address (for restart tests).
func startCountedServer(t *testing.T, r *kvstore.Replica, addr string) (*Server, *countingListener, string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	cl := &countingListener{Listener: ln}
	srv := NewServer(r, nil)
	bound, err := srv.Serve(cl)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	return srv, cl, bound
}

// TestPoolReusesConnections is the acceptance check for the pool: a
// 50-round gossip session between two nodes must perform at most 2 TCP
// dials to the peer — and with a healthy server it is exactly 1, asserted
// on both the client-side dial counter and the server-side accept counter.
func TestPoolReusesConnections(t *testing.T) {
	server, client := clonedPair(64)
	srv, cl, addr := startCountedServer(t, server, "127.0.0.1:0")
	t.Cleanup(func() { _ = srv.Close() })

	p := NewPool()
	defer p.Close()
	for round := 0; round < 50; round++ {
		if round%10 == 1 {
			client.Put(fmt.Sprintf("key-%04d", round), []byte(fmt.Sprintf("edit-%d", round)))
		}
		if _, err := p.SyncWith(addr, client); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	requireConverged(t, server, client)
	if got := p.Dials(); got > 2 {
		t.Errorf("50 rounds performed %d dials, want <= 2", got)
	}
	if got := cl.accepts.Load(); got != 1 {
		t.Errorf("server accepted %d connections over 50 rounds, want 1", got)
	}
}

// TestPoolRedialsAfterServerRestart kills the server mid-session and
// restarts it on the same port: the next pooled round must succeed through
// exactly one transparent redial.
func TestPoolRedialsAfterServerRestart(t *testing.T) {
	server, client := clonedPair(32)
	srv1, cl1, addr := startCountedServer(t, server, "127.0.0.1:0")

	p := NewPool()
	defer p.Close()
	for i := 0; i < 5; i++ {
		if _, err := p.SyncWith(addr, client); err != nil {
			t.Fatalf("pre-restart round %d: %v", i, err)
		}
	}
	if err := srv1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Same replica, same port, new server process (as far as TCP can tell).
	srv2, cl2, _ := startCountedServer(t, server, addr)
	t.Cleanup(func() { _ = srv2.Close() })

	client.Put("post-restart", []byte("x"))
	for i := 0; i < 5; i++ {
		if _, err := p.SyncWith(addr, client); err != nil {
			t.Fatalf("post-restart round %d: %v", i, err)
		}
	}
	requireConverged(t, server, client)
	if got := p.Dials(); got != 2 {
		t.Errorf("Dials = %d across a restart, want 2 (one per server generation)", got)
	}
	if a1, a2 := cl1.accepts.Load(), cl2.accepts.Load(); a1 != 1 || a2 != 1 {
		t.Errorf("accepts = %d + %d, want 1 + 1", a1, a2)
	}
}

// TestPoolIdleTimeoutRedials ages the pooled session past the idle
// threshold: the pool must retire it and dial fresh instead of trusting a
// connection the server may have dropped.
func TestPoolIdleTimeoutRedials(t *testing.T) {
	server, client := clonedPair(8)
	_, addr := startServer(t, server, nil)

	p := NewPool()
	p.idle = 50 * time.Millisecond
	defer p.Close()
	if _, err := p.SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if _, err := p.SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	if got := p.Dials(); got != 2 {
		t.Errorf("Dials = %d, want 2 (idle session retired)", got)
	}
}

// TestPoolConcurrentRounds hammers one pool from many goroutines across two
// peers: rounds to one peer serialize over its session, rounds to different
// peers proceed independently, and nothing races (run with -race).
func TestPoolConcurrentRounds(t *testing.T) {
	serverA, client := clonedPair(32)
	serverB := serverA.Clone("server-b")
	_, addrA := startServer(t, serverA, nil)
	_, addrB := startServer(t, serverB, nil)

	p := NewPool()
	defer p.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addr := addrA
			if g%2 == 1 {
				addr = addrB
			}
			for i := 0; i < 5; i++ {
				if _, err := p.SyncWith(addr, client); err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := p.Dials(); got != 2 {
		t.Errorf("Dials = %d for 2 peers, want 2", got)
	}
}

// cutProxy relays TCP between a pooled client and a real server, parsing
// the client's frame stream. When armed it blackholes the server's reply
// and drops both connections right after forwarding the client's entries
// frame — the fault where the request was fully written, the server (may
// have) applied it, and the session died mid-reply.
type cutProxy struct {
	target string
	armed  atomic.Bool
	cuts   atomic.Int64
}

func startCutProxy(t *testing.T, target string) (*cutProxy, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	p := &cutProxy{target: target}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.handle(conn)
		}
	}()
	return p, ln.Addr().String()
}

func (p *cutProxy) handle(client net.Conn) {
	server, err := net.Dial("tcp", p.target)
	if err != nil {
		_ = client.Close()
		return
	}
	defer client.Close()
	defer server.Close()
	var blackhole atomic.Bool
	go func() { // server -> client, discarded once the cut is in progress
		buf := make([]byte, 4096)
		for {
			n, err := server.Read(buf)
			if n > 0 && !blackhole.Load() {
				if _, werr := client.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	br := bufio.NewReader(client)
	version, err := br.ReadByte()
	if err != nil {
		return
	}
	if _, err := server.Write([]byte{version}); err != nil {
		return
	}
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		cut := p.armed.Load() && len(body) > 0 && body[0] == kindEntries
		if cut {
			blackhole.Store(true) // the reply must never reach the client
		}
		frame := binary.AppendUvarint(make([]byte, 0, 10+len(body)), n)
		frame = append(frame, body...)
		if _, err := server.Write(frame); err != nil {
			return
		}
		if cut {
			p.cuts.Add(1)
			time.Sleep(100 * time.Millisecond) // let the server consume and apply
			return                             // deferred closes kill the session mid-reply
		}
	}
}

// TestPoolNoRetryAfterEntriesFrame is the regression test for the
// double-apply retry bug: a round whose entries frame was written on a
// previously working session, and which then died before the reply, must
// surface ErrRetryUnsafe instead of being transparently re-run on a fresh
// dial — the server may have applied the entries, and re-sending them
// would reconcile forked copies as causally unrelated.
func TestPoolNoRetryAfterEntriesFrame(t *testing.T) {
	server, client := clonedPair(32)
	srv, _, addr := startCountedServer(t, server, "127.0.0.1:0")
	t.Cleanup(func() { _ = srv.Close() })
	proxy, proxyAddr := startCutProxy(t, addr)

	p := NewPool()
	defer p.Close()
	// A healthy round first: the retry path only opens for proven sessions.
	if _, err := p.SyncWith(proxyAddr, client); err != nil {
		t.Fatalf("healthy round: %v", err)
	}

	client.Put("fresh-key", []byte("payload"))
	proxy.armed.Store(true)
	_, err := p.SyncWith(proxyAddr, client)
	if err == nil {
		t.Fatal("round died after its entries frame but reported success")
	}
	if !errors.Is(err, ErrRetryUnsafe) {
		t.Fatalf("err = %v, want ErrRetryUnsafe", err)
	}
	if got := p.Dials(); got != 1 {
		t.Fatalf("pool redialed a non-retriable round: %d dials", got)
	}
	if got := proxy.cuts.Load(); got != 1 {
		t.Fatalf("proxy cut %d rounds, want 1", got)
	}

	// Recovery is the next round's job: it reconciles from whatever state
	// the server actually reached, then the pair is fully converged.
	proxy.armed.Store(false)
	if _, err := p.SyncWith(proxyAddr, client); err != nil {
		t.Fatalf("recovery round: %v", err)
	}
	requireConverged(t, server, client)
	res, err := p.SyncWith(proxyAddr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.StripesSkipped != client.Shards() {
		t.Errorf("post-recovery round not converged: %+v", res)
	}
}

// TestPoolSyncWithRevivedDurableServer is the acceptance scenario for the
// durable backend: a WAL-backed server killed mid-write (no Close, no
// checkpoint) reopens from its log and a round against an untouched
// peer converges — the revived stamps slot straight back into the
// protocol, so the follow-up round matches at the root.
func TestPoolSyncWithRevivedDurableServer(t *testing.T) {
	dir := t.TempDir()
	server, err := kvstore.Open(dir, kvstore.Options{Label: "durable", Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		server.Put(fmt.Sprintf("key-%04d", i), []byte("seed"))
	}
	client := server.Clone("client")
	server.Put("key-0001", []byte("server-edit")) // diverge both sides
	client.Put("client-only", []byte("fresh"))
	if err := server.PersistErr(); err != nil {
		t.Fatal(err)
	}
	if err := server.Abandon(); err != nil { // kill: no checkpoint, log only
		t.Fatal(err)
	}

	// Restart: reopen the directory with no Close behind it.
	revived, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { _ = revived.Close() })
	_, addr := startServer(t, revived, nil)

	p := NewPool()
	defer p.Close()
	if _, err := p.SyncWith(addr, client); err != nil {
		t.Fatalf("round against revived server: %v", err)
	}
	requireConverged(t, revived, client)
	res, err := p.SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.StripesSkipped != client.Shards() {
		t.Errorf("revived pair did not match at the root: %+v", res)
	}
}

// TestPoolCloseRacesRounds stresses Close against in-flight rounds: no data
// race (run with -race), and no connection may survive the sweep — a round
// that slipped past Close must not leave a freshly dialed session leaked.
func TestPoolCloseRacesRounds(t *testing.T) {
	server, client := clonedPair(16)
	_, addr := startServer(t, server, nil)
	for i := 0; i < 20; i++ {
		p := NewPool()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 3; r++ {
					if _, err := p.SyncWith(addr, client); err != nil {
						return // closed mid-round: expected
					}
				}
			}()
		}
		_ = p.Close()
		wg.Wait()
		// After Close returned and every round unwound, the pool must hold
		// nothing (conns map nilled, sessions swept).
		p.mu.Lock()
		if p.conns != nil {
			t.Fatal("conns map survived Close")
		}
		p.mu.Unlock()
	}
}

// TestPoolClosedRejectsRounds: a closed pool fails fast instead of dialing.
func TestPoolClosedRejectsRounds(t *testing.T) {
	server, client := clonedPair(4)
	_, addr := startServer(t, server, nil)
	p := NewPool()
	if _, err := p.SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()
	if _, err := p.SyncWith(addr, client); err == nil {
		t.Error("round on a closed pool succeeded")
	}
}
