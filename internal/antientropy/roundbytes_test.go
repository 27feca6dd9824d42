package antientropy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"versionstamp/internal/kvstore"
)

// recordingTransport is TCP with every byte each dialed connection sends and
// receives kept, in order.
type recordingTransport struct {
	mu         sync.Mutex
	sent, recv []byte
}

func (tr *recordingTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := TCP.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, tr: tr}, nil
}

func (tr *recordingTransport) Listen(addr string) (net.Listener, error) { return TCP.Listen(addr) }

// streams returns the bytes each direction has carried so far.
func (tr *recordingTransport) streams() (sent, recv []byte) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.sent, tr.recv
}

type recordingConn struct {
	net.Conn
	tr *recordingTransport
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.mu.Lock()
	c.tr.recv = append(c.tr.recv, p[:n]...)
	c.tr.mu.Unlock()
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tr.mu.Lock()
	c.tr.sent = append(c.tr.sent, p[:n]...)
	c.tr.mu.Unlock()
	return n, err
}

// pinnedStream is one direction of one round: its length and its SHA-256.
type pinnedStream struct {
	n   int
	sum string
}

func pinStream(b []byte) pinnedStream {
	s := sha256.Sum256(b)
	return pinnedStream{len(b), hex.EncodeToString(s[:])}
}

// TestRoundBytesPinned pins the bytes a pooled session carries in each
// direction, round by round, over a seeded 32-stripe pair with 128-byte
// values: a converged round on a fresh session, one answered by the
// pipelined probe, rounds after writes to 1 key, 1 % and 25 % of the keys, a
// stripe-scoped round and a KeepBoth conflict. Between rounds only the
// client writes, so the server answers every probe from state no write can
// race, except before the conflict round, which follows the scoped round
// (scoped rounds send no probe). A change to the session code that changes
// any byte on the wire fails here.
func TestRoundBytesPinned(t *testing.T) {
	const keys = 2048
	rng := rand.New(rand.NewSource(46))
	value := func() []byte {
		v := make([]byte, 128)
		for i := range v {
			v[i] = 'a' + byte(rng.Intn(26))
		}
		return v
	}
	key := func(i int) string { return fmt.Sprintf("key-%05d", i) }
	server := kvstore.NewReplicaShards("server", 32)
	for i := 0; i < keys; i++ {
		server.Put(key(i), value())
	}
	client := server.Clone("client")
	_, addr := startServer(t, server, kvstore.KeepBoth([]byte("|")))
	tr := &recordingTransport{}
	p := NewPoolOptions(PoolOptions{Transport: tr})
	defer p.Close()

	writeSome := func(n int) {
		for _, i := range rng.Perm(keys)[:n] {
			if rng.Intn(8) == 0 {
				client.Delete(key(i))
			} else {
				client.Put(key(i), value())
			}
		}
	}
	whole := func() (kvstore.SyncResult, error) { return p.SyncWith(addr, client) }
	rounds := []struct {
		name        string
		before      func()
		round       func() (kvstore.SyncResult, error)
		sent, recvd pinnedStream
	}{
		{"converged", func() {}, whole,
			pinnedStream{23, "5e410f21ea782bc2371e4a7da4e9659f2e3c109fca500001778d4d79513135e8"},
			pinnedStream{4, "3b317e79171bb67faaf48223883edb102b751964b8bf01a80aaff6408db9f414"}},
		{"probe-answered", func() {}, whole,
			pinnedStream{11, "93b35778698e4fcb32bd52f2d0f5f4f816d84cab36df961cc835eb53ecfb95e1"},
			pinnedStream{3, "b7fbc578a842cdef76732a99b255beb9f9ddd630ffc4ee73557d2afc85ad8e32"}},
		{"1 key", func() { writeSome(1) }, whole,
			pinnedStream{578, "cb49b6aaf405ca387fbb43c678af1df8a7a5f268bfec8a19f5cca1bc86ac496b"},
			pinnedStream{53, "ffc2e17d9baa6f65797157dc6a56157a696409f07f52300a99b4c42ed390d11c"}},
		{"1 %", func() { writeSome(keys / 100) }, whole,
			pinnedStream{6554, "753837f105b329d306cf244a7841e14ce7edaf1f182dfabe58bb14404ad2c315"},
			pinnedStream{610, "75cdedcc4c19d8d2cb1c4b8069d1e64eb49bd3126d4e5e8a2d9f8ff427167630"}},
		{"25 %", func() { writeSome(keys / 4) }, whole,
			pinnedStream{97064, "8b6b477fabec4861dddbcd8739ba5a9bad21120c071e317d003c234cce2da1e3"},
			pinnedStream{12970, "c30d4ba92a21f8bbc5d8822708dbfaf1cb5e750b5ec158e08d57fb5db91e6558"}},
		{"scoped", func() { writeSome(16) }, func() (kvstore.SyncResult, error) {
			res, _, err := p.SyncStripes(addr, client, []int{3, 9, 17, 30})
			return res, err
		},
			pinnedStream{376, "a6a5312235c5c41d8d6e126bce6994912725cde2ca9967270a797e8e0306700c"},
			pinnedStream{50, "37b1eaf8844680331b89178959a69ac2ea3cd60a94baa3354eaab037ea623488"}},
		{"conflict", func() {
			server.Put(key(7), []byte("server side"))
			client.Put(key(7), []byte("client side"))
		}, whole,
			pinnedStream{5251, "261a91b3e989972a02b8db9880cfffc9af940a8520cd722645d04e316634f1ae"},
			pinnedStream{516, "a43138a510a44b4bb73437345154219bde8856491497379cd04bd4bbbdfc5200"}},
	}
	for _, r := range rounds {
		r.before()
		sent0, recv0 := tr.streams()
		res, err := r.round()
		if err != nil {
			t.Fatalf("%s round: %v", r.name, err)
		}
		sent, recv := tr.streams()
		gotSent, gotRecv := pinStream(sent[len(sent0):]), pinStream(recv[len(recv0):])
		t.Logf("%s: %+v", r.name, res)
		if gotSent != r.sent || gotRecv != r.recvd {
			t.Errorf("%s round: sent %v, received %v; pinned %v, %v", r.name, gotSent, gotRecv, r.sent, r.recvd)
		}
	}
	if v, _ := server.Get(key(7)); string(v) != "server side|client side" && string(v) != "client side|server side" {
		t.Errorf("conflict round left the server holding %q", v)
	}
	if p.Dials() != 1 {
		t.Errorf("Dials = %d, want 1", p.Dials())
	}
}
