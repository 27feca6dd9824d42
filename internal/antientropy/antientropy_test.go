package antientropy

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"versionstamp/internal/kvstore"
)

func startServer(t *testing.T, r *kvstore.Replica, resolve kvstore.Resolver) (*Server, string) {
	t.Helper()
	srv := NewServer(r, resolve)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr
}

// clonedPair seeds n keys and clones, so both replicas share causal origins.
func clonedPair(n int) (*kvstore.Replica, *kvstore.Replica) {
	a := kvstore.NewReplica("server")
	for i := 0; i < n; i++ {
		a.Put(fmt.Sprintf("key-%04d", i), []byte(fmt.Sprintf("value-%d-with-some-padding", i)))
	}
	return a, a.Clone("client")
}

func requireConverged(t *testing.T, a, b *kvstore.Replica) {
	t.Helper()
	keys := map[string]bool{}
	for _, k := range a.Keys() {
		keys[k] = true
	}
	for _, k := range b.Keys() {
		keys[k] = true
	}
	for k := range keys {
		va, okA := a.Get(k)
		vb, okB := b.Get(k)
		if okA != okB || !bytes.Equal(va, vb) {
			t.Errorf("key %q: %q/%v vs %q/%v", k, va, okA, vb, okB)
		}
	}
}

// quickSync is SyncWith with a short timeout, for rounds expected to fail.
func quickSync(addr string, local *kvstore.Replica) (kvstore.SyncResult, error) {
	p := NewPoolOptions(PoolOptions{Timeout: 500 * time.Millisecond})
	defer p.Close()
	return p.SyncWith(addr, local)
}

func TestBasicSync(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("greeting", []byte("hello"))
	_, addr := startServer(t, server, nil)

	client := kvstore.NewReplica("client")
	client.Put("name", []byte("world"))
	res, err := SyncWith(addr, client)
	if err != nil {
		t.Fatalf("SyncWith: %v", err)
	}
	if res.Transferred != 2 {
		t.Errorf("result = %+v", res)
	}
	if got, ok := client.Get("greeting"); !ok || string(got) != "hello" {
		t.Errorf("client greeting = %q, %v", got, ok)
	}
	if got, ok := server.Get("name"); !ok || string(got) != "world" {
		t.Errorf("server name = %q, %v", got, ok)
	}
}

func TestSyncIdempotent(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("k", []byte("v"))
	_, addr := startServer(t, server, nil)
	client := kvstore.NewReplica("client")
	if _, err := SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	// A duplicated sync (message replay at the session level) changes
	// nothing: same contents, equivalent stamps.
	res, err := SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transferred != 0 || res.Reconciled != 0 || res.Merged != 0 {
		t.Errorf("second sync not a no-op: %+v", res)
	}
}

func TestDominancePropagation(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("k", []byte("v1"))
	_, addr := startServer(t, server, nil)
	client := kvstore.NewReplica("client")
	if _, err := SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	client.Put("k", []byte("v2"))
	res, err := SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconciled != 1 {
		t.Errorf("result = %+v", res)
	}
	if got, _ := server.Get("k"); string(got) != "v2" {
		t.Errorf("server = %q", got)
	}
}

func TestConflictResolutionOnServer(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("k", []byte("base"))
	_, addr := startServer(t, server, kvstore.KeepBoth([]byte("|")))
	client := kvstore.NewReplica("client")
	if _, err := SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	server.Put("k", []byte("S"))
	client.Put("k", []byte("C"))
	res, err := SyncWith(addr, client)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 {
		t.Errorf("result = %+v", res)
	}
	gs, _ := server.Get("k")
	gc, _ := client.Get("k")
	if !bytes.Equal(gs, gc) {
		t.Errorf("divergence after merge: %q vs %q", gs, gc)
	}
}

func TestConflictSkippedWithoutResolver(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("k", []byte("base"))
	_, addr := startServer(t, server, nil)
	client := kvstore.NewReplica("client")
	if _, err := SyncWith(addr, client); err != nil {
		t.Fatal(err)
	}
	server.Put("k", []byte("S"))
	client.Put("k", []byte("C"))
	res, err := SyncWith(addr, client)
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

// TestThreeNodeConvergence wires three TCP replicas, partitions them into
// pairs that sync opportunistically, and verifies full convergence.
func TestThreeNodeConvergence(t *testing.T) {
	ra := kvstore.NewReplica("a")
	rb := kvstore.NewReplica("b")
	rc := kvstore.NewReplica("c")
	_, addrA := startServer(t, ra, kvstore.KeepBoth([]byte("|")))
	_, addrB := startServer(t, rb, kvstore.KeepBoth([]byte("|")))

	ra.Put("x", []byte("from-a"))
	rb.Put("y", []byte("from-b"))
	rc.Put("z", []byte("from-c"))

	// c meets a, then c meets b, then b meets a: gossip closes the loop.
	if _, err := SyncWith(addrA, rc); err != nil {
		t.Fatal(err)
	}
	if _, err := SyncWith(addrB, rc); err != nil {
		t.Fatal(err)
	}
	if _, err := SyncWith(addrA, rb); err != nil {
		t.Fatal(err)
	}
	// One more round so a's view of z reaches b... a already has z via c.
	for _, k := range []string{"x", "y", "z"} {
		va, okA := ra.Get(k)
		vb, okB := rb.Get(k)
		if !okA || !okB || !bytes.Equal(va, vb) {
			t.Errorf("a/b diverge on %q: %q/%v vs %q/%v", k, va, okA, vb, okB)
		}
	}
}

func TestServerDown(t *testing.T) {
	client := kvstore.NewReplica("client")
	client.Put("k", []byte("v"))
	if _, err := quickSync("127.0.0.1:1", client); err == nil {
		t.Error("sync with a dead server must fail")
	}
	// Client state untouched by the failure.
	if got, ok := client.Get("k"); !ok || string(got) != "v" {
		t.Errorf("client state damaged by failed sync: %q, %v", got, ok)
	}
}

// TestGarbageRequestRejected covers both ends of the one-protocol rule: a
// server closes a connection that opens with anything but the version byte,
// without answering; and a client whose opening is not acked reports
// ErrProtocol and leaves its replica untouched.
func TestGarbageRequestRejected(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("k", []byte("server-side"))
	_, addr := startServer(t, server, nil)
	for _, opening := range []string{"{\"v\":1,\"snapshot\":{}}\n", "\x02", "\x03", "this is not a session\n"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(opening)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(conn)
		if len(got) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("opening %q: server answered %q (err %v), want a silent close", opening, got, err)
		}
		conn.Close()
	}

	// A listener that answers the opening with something other than the ack.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Take in the whole pipelined opening before answering, so the
			// client is reading when the answer and the close arrive.
			fr := frameReader{br: bufio.NewReader(conn)}
			_, _ = fr.br.ReadByte()
			_, _, _ = readFrame(&fr)
			_, _ = conn.Write([]byte("{\"v\":1,\"error\":\"bad request\"}\n"))
			conn.Close()
		}
	}()
	client := kvstore.NewReplica("client")
	client.Put("k", []byte("client-side"))
	before, _ := client.Version("k")
	p := NewPool()
	defer p.Close()
	if _, err := p.SyncWith(ln.Addr().String(), client); !errors.Is(err, ErrProtocol) {
		t.Errorf("want ErrProtocol, got %v", err)
	}
	if p.Dials() != 1 {
		t.Errorf("Dials = %d, want 1: a refused opening is not retried", p.Dials())
	}
	after, _ := client.Version("k")
	if string(after.Value) != "client-side" || !after.Stamp.Equal(before.Stamp) || len(client.Keys()) != 1 {
		t.Errorf("client replica changed by a refused session: %+v", after)
	}
}

// TestBadFrameRejected: a session whose first frame is malformed gets an
// error frame back and is closed; the server's replica is untouched.
func TestBadFrameRejected(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("k", []byte("v"))
	_, addr := startServer(t, server, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Version byte, then a kindStripeRoots frame declaring zero stripes.
	if _, err := conn.Write([]byte{protocolVersion, 2, kindStripeRoots, 0}); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{br: bufio.NewReader(conn)}
	if b, err := fr.br.ReadByte(); err != nil || b != protocolVersion {
		t.Fatalf("ack = 0x%02x, %v", b, err)
	}
	if err := fr.expect(kindStripeRootDiff); !errors.Is(err, ErrProtocol) {
		t.Errorf("server accepted a zero-stripe layout: %v", err)
	}
	if _, err := fr.br.ReadByte(); err != io.EOF {
		t.Errorf("session stayed open after an error frame: %v", err)
	}
	if got, ok := server.Get("k"); !ok || string(got) != "v" {
		t.Errorf("server state damaged: %q, %v", got, ok)
	}
}

// TestProtocolErrorSurfacedToClient: an error frame from the server reaches
// the caller as ErrProtocol carrying the server's text.
func TestProtocolErrorSurfacedToClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := frameReader{br: bufio.NewReader(conn)}
		_, _ = fr.br.ReadByte()
		_, _ = conn.Write([]byte{protocolVersion})
		_, _, _ = readFrame(&fr)
		_, _ = conn.Write(appendFrame(nil, kindError, appendString(nil, "nope")))
	}()
	client := kvstore.NewReplica("client")
	_, err = SyncWith(ln.Addr().String(), client)
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "nope") {
		t.Errorf("want ErrProtocol carrying the server's text, got %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	server := kvstore.NewReplica("server")
	server.Put("base", []byte("v"))
	_, addr := startServer(t, server, kvstore.KeepBoth([]byte("|")))
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := kvstore.NewReplica(fmt.Sprintf("c%d", i))
			c.Put(fmt.Sprintf("k%d", i), []byte("x"))
			if _, err := SyncWith(addr, c); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent sync: %v", err)
	}
	// The server saw every client's key.
	for i := 0; i < 8; i++ {
		if _, ok := server.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("server missing k%d", i)
		}
	}
}

func TestCloseStopsServer(t *testing.T) {
	server := kvstore.NewReplica("server")
	srv, addr := startServer(t, server, nil)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	client := kvstore.NewReplica("client")
	if _, err := quickSync(addr, client); err == nil {
		t.Error("sync with a closed server must fail")
	}
	// Listen after Close is rejected.
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("Listen after Close must fail")
	}
}
