package antientropy

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"versionstamp/internal/core"
	"versionstamp/internal/encoding"
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
			pinnedStream{23, "c31ac0ca085fb7806fc93118b26c7cee8ab11d5a8006bee9f9b77f05cb239ce0"},
			pinnedStream{4, "86481452ad6734d46c1291f7338c24460894e167fc60e2601ca29439f33cdab5"}},
		{"probe-answered", func() {}, whole,
			pinnedStream{11, "93b35778698e4fcb32bd52f2d0f5f4f816d84cab36df961cc835eb53ecfb95e1"},
			pinnedStream{3, "b7fbc578a842cdef76732a99b255beb9f9ddd630ffc4ee73557d2afc85ad8e32"}},
		{"1 key", func() { writeSome(1) }, whole,
			pinnedStream{563, "6c1a932b560aae7960aa136332543c1a38b2184c618f78c2d3bbc9a7d5d00b1b"},
			pinnedStream{35, "391809de7135821ce1f281b83f4f375e037587a53368322887eb22730988b7e9"}},
		{"1 %", func() { writeSome(keys / 100) }, whole,
			pinnedStream{6254, "4b6a19c7b8f46ad6adec40d77bbb3760ab05e120acf3bfb0286dcab4bc46319c"},
			pinnedStream{248, "62a374d7c8483eab22f42cf65bc43cc801dcad5f745c0a9fcd0744e85df26b78"}},
		{"25 %", func() { writeSome(keys / 4) }, whole,
			pinnedStream{89399, "da2cf0eb591ffa2c4a3f78cedc4186a42aa869f5c7b996275d21cc811df4f8aa"},
			pinnedStream{3772, "e52d6f32e46bfe6e9d7facb819a445e68351d4196de7ae010e87b68dc5899cb0"}},
		{"scoped", func() { writeSome(16) }, func() (kvstore.SyncResult, error) {
			res, _, err := p.SyncStripes(addr, client, []int{3, 9, 17, 30})
			return res, err
		},
			pinnedStream{361, "4ebfe47d417bc94a512829345952a65dd0267f9b424efb302e002f0f7fae0325"},
			pinnedStream{32, "4ceecbd482800f84c2d6a2d0c90fdf5bcbfeaa9b0f54881a330834516fcadd8f"}},
		{"conflict", func() {
			server.Put(key(7), []byte("server side"))
			client.Put(key(7), []byte("client side"))
		}, whole,
			pinnedStream{5011, "5133c6001d39957c7a8fc931c4f24e521fff62b6d7e0a8ba71fe0e6d15559e60"},
			pinnedStream{227, "8f7c210bf2b5d3f64c0c911d3d62c43db24dfd08d472915b18fce72fa97d1e45"}},
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

// TestRoundWireBytesPerKey is the counted gate of naming keys by ordinal: on
// a seeded 20 000-key, 8-stripe pair with 128-byte values, a round after 1 %
// and one after 25 % of the keys were written (half at each end, a tenth of
// those at both) must spend at most 2 bytes per needed key in its need
// frame, ship an entry whose stamp is still its digest's in at most its
// value and 4 bytes, and restamp in at most the stamp and 2 bytes — so a
// round that names a key its peer already knows by the key's bytes, or
// resends a stamp its digest carried, fails here. It logs the bytes of each
// frame kind.
func TestRoundWireBytesPerKey(t *testing.T) {
	const keys = 20000
	rng := rand.New(rand.NewSource(47))
	value := func() []byte {
		v := make([]byte, 128)
		rng.Read(v)
		return v
	}
	key := func(i int) string { return fmt.Sprintf("key-%06d", i) }
	client := kvstore.NewReplicaShards("client", 8)
	for i := 0; i < keys; i++ {
		client.Put(key(i), value())
	}
	server := client.Clone("server")
	l := newLockstep(server, client, kvstore.KeepBoth([]byte("|")))
	for _, class := range []struct {
		name           string
		client, server int // keys written at each end
	}{{"1 %", keys / 200, keys / 200}, {"25 %", keys / 8, keys / 8}} {
		both := class.client / 10
		order := rng.Perm(keys)
		for _, i := range order[:class.client] {
			client.Put(key(i), value())
		}
		for _, i := range order[class.client-both : class.client-both+class.server] {
			server.Put(key(i), value())
		}
		perKind := map[byte]int{}
		bodies := map[byte][]byte{}
		l.before = func(_ int, unread *bytes.Buffer) {
			if unread.Len() == 0 {
				return
			}
			kind, body := frameAt(unread)
			perKind[kind] += unread.Len()
			bodies[kind] = bytes.Clone(body)
		}
		res, err := l.round(t, nil)
		l.before = nil
		if err != nil {
			t.Fatalf("%s round: %v", class.name, err)
		}
		requireConverged(t, server, client)

		var b []byte
		uvarint := func() (uint64, int) {
			v, n := binary.Uvarint(b)
			b = b[n:]
			return v, n
		}
		// need := count, count×ordinal distance
		b = bodies[kindNeed]
		needs, _ := uvarint()
		if len(b) > 2*int(needs) {
			t.Errorf("%s round: %d need ordinals in %d bytes, budget 2 a key", class.name, needs, len(b))
		}
		// entries := count, count×body
		b = bodies[kindEntries]
		count, _ := uvarint()
		unmoved := 0
		for len(b) > 0 {
			e, withStamp, vanished, used, err := encoding.DecodeEntryBody(b)
			if err != nil {
				t.Fatal(err)
			}
			if !withStamp && !vanished {
				if unmoved++; used > len(e.Value)+4 {
					t.Errorf("%s round: an unmoved %d-byte entry took %d bytes, budget value + 4", class.name, len(e.Value), used)
				}
			}
			b = b[used:]
		}
		// result := 4 counters, conflicts, count, count×(distance, stamp), entries
		b = bodies[kindResult]
		for i := 0; i < 4; i++ {
			uvarint()
		}
		for n, _ := uvarint(); n > 0; n-- {
			k, _ := uvarint()
			b = b[k:]
		}
		restamps, _ := uvarint()
		for i := uint64(0); i < restamps; i++ {
			_, gap := uvarint()
			s, n, err := core.DecodeBinary(b)
			if err != nil {
				t.Fatal(err)
			}
			if gap+n > s.BinaryLen()+2 {
				t.Errorf("%s round: a restamp of a %d-byte stamp took %d bytes, budget stamp + 2", class.name, s.BinaryLen(), gap+n)
			}
			b = b[n:]
		}
		if needs == 0 || count != needs || unmoved == 0 || restamps == 0 {
			t.Errorf("%s round: %d needs, %d entries (%d unmoved), %d restamps: the gates measured nothing",
				class.name, needs, count, unmoved, restamps)
		}

		var kinds []int
		total := 0
		for k, n := range perKind {
			kinds, total = append(kinds, int(k)), total+n
		}
		slices.Sort(kinds)
		t.Logf("%s round, %d B: %d needs, %d unmoved entries, %d restamps, %+v", class.name, total, needs, unmoved, restamps, res)
		for _, k := range kinds {
			t.Logf("  frame 0x%02x: %7d B", k, perKind[byte(k)])
		}
	}
}
