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

// tapTransport is TCP that hands every byte each dialed connection sends
// and receives to tap, in order, holding mu.
type tapTransport struct {
	mu  sync.Mutex
	tap func(sent bool, p []byte)
}

func (tr *tapTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := TCP.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tr: tr}, nil
}

func (tr *tapTransport) Listen(addr string) (net.Listener, error) { return TCP.Listen(addr) }

type tapConn struct {
	net.Conn
	tr *tapTransport
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tr.mu.Lock()
	c.tr.tap(false, p[:n])
	c.tr.mu.Unlock()
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tr.mu.Lock()
	c.tr.tap(true, p[:n])
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
	var out, in []byte
	tr := &tapTransport{tap: func(sent bool, p []byte) {
		if sent {
			out = append(out, p...)
		} else {
			in = append(in, p...)
		}
	}}
	// streams returns the bytes each direction has carried so far.
	streams := func() (sent, recv []byte) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		return out, in
	}
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
			pinnedStream{23, "121fb1bb2d5a9325d105599afbe425ee40a6deeec6eb08534eb8b2f503f781d2"},
			pinnedStream{4, "032b1c4b4a858b5553c71127a3ba8d6d4f08b653da6211065ce99d968594c1a1"}},
		{"probe-answered", func() {}, whole,
			pinnedStream{11, "93b35778698e4fcb32bd52f2d0f5f4f816d84cab36df961cc835eb53ecfb95e1"},
			pinnedStream{3, "b7fbc578a842cdef76732a99b255beb9f9ddd630ffc4ee73557d2afc85ad8e32"}},
		{"1 key", func() { writeSome(1) }, whole,
			pinnedStream{482, "ccb27f4828eaeea9a9a65f1b9d79824838b2487975ff23aaa8e88fc3c39c3c7a"},
			pinnedStream{92, "157ef249c2695e0e0f50919958ce620e73c0c4eb6344c009d0d2adb52920a12e"}},
		{"1 %", func() { writeSome(keys / 100) }, whole,
			pinnedStream{4794, "8275a0d51bd6dc6278235ff7ca63a30163d630e950382d3b55ccc7714af16a44"},
			pinnedStream{1317, "d7e03537ba51b6bdc23a19b1e567838d846b49707ec2255a927a61c9d2ccf220"}},
		{"25 %", func() { writeSome(keys / 4) }, whole,
			pinnedStream{74681, "3326d917c2b3bd3fd8cf233dff255019c30cd561298c99d372c97537aa8aa74d"},
			pinnedStream{17182, "1231a83d863bc943965882b96350d92513a6102e4b50a82fec9091934e28d7c1"}},
		{"scoped", func() { writeSome(16) }, func() (kvstore.SyncResult, error) {
			res, err := p.SyncStripes(addr, client, []int{3, 9, 17, 30})
			return res, err
		},
			pinnedStream{306, "5be618a447832e95e85e14453dcd05cc78f2495dec9ce0fdf832a857cfa6a9b3"},
			pinnedStream{73, "5c963d336ed046ced742f5c821746e5f46c04cf450ea73f7219c6ae3f56ecf84"}},
		{"conflict", func() {
			server.Put(key(7), []byte("server side"))
			client.Put(key(7), []byte("client side"))
		}, whole,
			pinnedStream{3906, "ec582b3ec926f2a394cb6b421c92eab2bfb0c584ae36c43ecac5dde1988d7a67"},
			pinnedStream{1044, "e431237aff59fdbf362dede994b3ae92f5d9401a2ec5574f05fc9b7a7cad3fc4"}},
	}
	for _, r := range rounds {
		r.before()
		sent0, recv0 := streams()
		res, err := r.round()
		if err != nil {
			t.Fatalf("%s round: %v", r.name, err)
		}
		sent, recv := streams()
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

// TestRoundWireBytesPerKey is the counted gate of naming keys by ordinal
// and of answering terms: on a seeded 20 000-key, 8-stripe pair with
// 128-byte values, a round after 1 % and one after 25 % of the keys were
// written (half at each end, a tenth of those at both) must spend at most 8
// bytes per term plus its leaf's count in its tree diffs, ship a leaf key
// whose term matched in at most its id and 1 byte (its share of the term
// bitmap included), spend at most 2 bytes per needed key in its need frame,
// ship an entry whose stamp is still its digest's in at most its value and
// 4 bytes, and restamp in at most the stamp and 2 bytes — so a round that
// ships a key its peer holds under the same update component as more than
// its id, names a key its peer already knows by the key's bytes, or resends
// a stamp its digest carried, fails here. It logs the bytes of each frame
// kind.
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
		terms, matched := 0, 0
		l.before = func(_ int, unread *bytes.Buffer) {
			if unread.Len() == 0 {
				return
			}
			kind, body := frameAt(unread)
			perKind[kind] += unread.Len()
			bodies[kind] = bytes.Clone(body)
			switch kind {
			case kindTreeDiff: // a term list := count, count×8 bytes
				for _, tl := range termLists(t, &l.c, body) {
					k, _ := binary.Uvarint(body[tl.at:])
					if tl.end-tl.at > 8*int(k)+encoding.UvarintLen(k) {
						t.Errorf("%s round: %d terms in %d bytes, budget 8 a term and the count", class.name, k, tl.end-tl.at)
					}
					terms += int(k)
				}
			case kindLeafDigests: // the matched keys' share of each run
				n, used := binary.Uvarint(body)
				rest := body[used:]
				for i := 0; i < int(n); i++ {
					r, used, err := encoding.DecodeLeafRun(rest, l.c.of, l.s.localRun)
					if err != nil {
						t.Fatal(err)
					}
					rest = rest[used:]
					if r.Terms == 0 {
						continue
					}
					match := l.c.match[l.c.leafReqs[i].at:]
					share, budget, shipped := used, 0, 0
					share -= len(encoding.AppendLeafRun(nil, encoding.LeafRun{Stripe: r.Stripe, Level: r.Level, Path: r.Path})) - 1
					for j, d := range r.Digests {
						if match[j] >= 0 {
							budget += d.Stamp.IDHandle().EncodedLen() + 1
							matched++
						} else {
							share -= encoding.DigestLen(d)
							shipped++
						}
					}
					if share -= encoding.UvarintLen(uint64(shipped)); share > budget {
						t.Errorf("%s round: %d matched keys of a run in %d bytes, budget their ids and 1 a key", class.name, len(r.Digests)-shipped, share)
					}
				}
			}
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
		if terms == 0 || matched == 0 || needs == 0 || count != needs || unmoved == 0 || restamps == 0 {
			t.Errorf("%s round: %d terms, %d matched keys, %d needs, %d entries (%d unmoved), %d restamps: the gates measured nothing",
				class.name, terms, matched, needs, count, unmoved, restamps)
		}

		var kinds []int
		total := 0
		for k, n := range perKind {
			kinds, total = append(kinds, int(k)), total+n
		}
		slices.Sort(kinds)
		t.Logf("%s round, %d B: %d terms, %d matched keys, %d needs, %d unmoved entries, %d restamps, %+v",
			class.name, total, terms, matched, needs, unmoved, restamps, res)
		for _, k := range kinds {
			t.Logf("  frame 0x%02x: %7d B", k, perKind[byte(k)])
		}
	}
}
