package antientropy

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"versionstamp/internal/encoding"
	"versionstamp/internal/kvstore"
)

// lockstep is a session with no connection: a client and a server round
// machine stepped in turn over two in-memory byte streams, as Pool.round and
// Server.handle step them over a socket. The server answers every frame as
// soon as it is sent, so the probe a whole-replica round ends with is
// answered before the round returns.
type lockstep struct {
	client   *kvstore.Replica
	c        clientRound
	s        serverRound
	c2s, s2c bytes.Buffer
	closed   bool // the server ended the session, as handle returns

	// before, if set, is called before the n-th frame of a round is
	// received, with unread holding its bytes, which it may change.
	before func(n int, unread *bytes.Buffer)
	frames int // frames received in the current round
}

func newLockstep(server, client *kvstore.Replica, resolve kvstore.Resolver) *lockstep {
	l := &lockstep{client: client}
	l.c.fr.br, l.c.fw.w = bufio.NewReader(&l.s2c), &l.c2s
	l.s = serverRound{replica: server, resolve: resolve,
		fr: frameReader{br: bufio.NewReader(&l.c2s)}, fw: frameWriter{w: &l.s2c}}
	return l
}

// maxRoundFrames bounds a round's frames: a descent takes at most one tree
// level per frame pair, so a round that runs past it loops.
const maxRoundFrames = 64

// round runs one round of the client's stripes (nil: all of them).
func (l *lockstep) round(t testing.TB, stripes []int) (kvstore.SyncResult, error) {
	t.Helper()
	c := &l.c
	defer c.release()
	l.frames = 0
	err := c.load(l.client, stripes)
	if err == nil {
		err = c.start()
	}
	for done := false; err == nil && !done; {
		l.serve(t)
		l.hook(t, &l.s2c)
		var kind byte
		if kind, err = c.fr.next(); err == nil {
			done, err = c.receive(kind)
		}
	}
	if err != nil { // the client drops the session, as Pool.round does
		l.s.reset()
		l.closed = true
	}
	l.serve(t)
	return c.result, err
}

// serve steps the server over every frame the client has sent.
func (l *lockstep) serve(t testing.TB) {
	for !l.closed && (l.s.fr.br.Buffered() > 0 || l.c2s.Len() > 0) {
		l.hook(t, &l.c2s)
		kind, err := l.s.fr.next()
		if err != nil || !l.s.receive(kind) {
			l.s.reset()
			l.closed = true
		}
	}
}

// hook counts a frame about to be received and calls before on it.
func (l *lockstep) hook(t testing.TB, unread *bytes.Buffer) {
	if l.frames++; l.frames > maxRoundFrames {
		t.Fatalf("a round ran past %d frames", maxRoundFrames)
	}
	if l.before != nil {
		l.before(l.frames-1, unread)
	}
}

// roundPair builds a converged pair of 2-stripe replicas, 128 keys per
// stripe: one leaf level, about eight keys a leaf.
func roundPair() (server, client *kvstore.Replica) {
	server = kvstore.NewReplicaShards("server", 2)
	for i := 0; i < 256; i++ {
		server.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	return server, server.Clone("client")
}

// leafMate returns a key named by name(i) for the first i that falls in
// key's stripe and depth-1 leaf of a 2-stripe replica.
func leafMate(key string, name func(i int) string) string {
	for i := 0; ; i++ {
		k := name(i)
		if k != key && kvstore.ShardIndex(k, 2) == kvstore.ShardIndex(key, 2) &&
			kvstore.NodeRange(1, encoding.TreePos(k)>>60).Contains(encoding.TreePos(key)) {
			return k
		}
	}
}

// differs reports how a wire pair differs from an oracle pair, if it does:
// each end must hold the keys, tombstones and values its oracle holds, under
// Equal stamps. The loose key's stamps need only be Equivalent at the two
// wire ends: a round whose reply found the key moved abandons that fork
// (kvstore.Replica.ApplyDeltaReply), so its ends keep less id space than
// the oracle's.
func differs(server, client, oracleServer, oracleClient *kvstore.Replica, loose string) string {
	for _, p := range [][2]*kvstore.Replica{{server, oracleServer}, {client, oracleClient}} {
		a, b := p[0].Digest(), p[1].Digest()
		if len(a) != len(b) {
			return fmt.Sprintf("%s holds %d keys, want %d", p[0].Label(), len(a), len(b))
		}
		for i := range a {
			va, _ := p[0].Stored(a[i].Key)
			vb, _ := p[1].Stored(b[i].Key)
			stamps := a[i].Stamp.Equal(b[i].Stamp)
			if a[i].Key == loose {
				s, _ := server.Stored(loose)
				c, _ := client.Stored(loose)
				stamps = s.Stamp.Equivalent(c.Stamp)
			}
			if a[i].Key != b[i].Key || !stamps || va.Deleted != vb.Deleted || !bytes.Equal(va.Value, vb.Value) {
				return fmt.Sprintf("%s %q %q/%v/%v, want %q %q/%v/%v", p[0].Label(), a[i].Key, va.Value,
					va.Deleted, a[i].Stamp, b[i].Key, vb.Value, vb.Deleted, b[i].Stamp)
			}
		}
	}
	return ""
}

// TestRoundWritesBetweenFrames is a bounded-exhaustive check of a round
// against writes made while it is in flight. From a converged pair that
// then diverges by one key, or by two (one written at each end), every
// schedule runs one round through the lockstep driver with one write made
// before one of its frames is received: a Put or a Delete at either end of a
// divergent key or of a key sharing its leaf, or the first Put at either end
// of a key no replica held. After the round and one quiescent round, both
// ends must hold every acknowledged write (a Delete may lose to a racing
// edit at the other end, as KeepBoth has it), and both ends must
// hold exactly what the in-process kvstore.Sync gives from the same start
// with the write made before the round or after it: values, tombstones and
// stamps (Equal), but for the written key's stamps (see differs).
//
// Left out: a first Put of a key the other end already holds. Both copies
// are then independent creations whose stamps carry equal update
// components, which the digest tree cannot tell apart, so no round
// descends to them; such schedules fail until the tree hashes content too.
func TestRoundWritesBetweenFrames(t *testing.T) {
	keepBoth := kvstore.KeepBoth([]byte("|"))
	const k1, k2 = "key-007", "key-100"
	near1 := leafMate(k1, func(i int) string { return fmt.Sprintf("key-%03d", i) })
	fresh := leafMate(k1, func(i int) string { return fmt.Sprintf("fresh-%d", i) })
	type write struct {
		name     string
		atServer bool
		key      string
		value    []byte // nil: Delete
	}
	bases := []struct {
		name  string
		edits []write // what diverges the pair
		keys  []string
	}{
		{"1 key", []write{{"", false, k1, []byte("client edit")}}, []string{k1, near1}},
		{"2 keys", []write{{"", false, k1, []byte("client edit")}, {"", true, k2, []byte("server edit")}},
			[]string{k1, k2, near1}},
	}
	schedules := 0
	for _, base := range bases {
		var writes []write
		for _, atServer := range []bool{false, true} {
			side := map[bool]string{false: "client", true: "server"}[atServer]
			for _, k := range base.keys {
				writes = append(writes,
					write{"Put " + k + " at " + side, atServer, k, []byte("mid-round " + side)},
					write{"Delete " + k + " at " + side, atServer, k, nil})
			}
			writes = append(writes, write{"first Put " + fresh + " at " + side, atServer, fresh, []byte("created " + side)})
		}
		apply := func(w write, server, client *kvstore.Replica) {
			r := client
			if w.atServer {
				r = server
			}
			if w.value == nil {
				r.Delete(w.key)
			} else {
				r.Put(w.key, w.value)
			}
		}
		build := func() (server, client *kvstore.Replica) {
			server, client = roundPair()
			for _, e := range base.edits {
				apply(e, server, client)
			}
			return server, client
		}
		// racing reports whether w, a Delete, races an edit of its key at the
		// other end, which KeepBoth lets win.
		racing := func(w write) bool {
			for _, e := range base.edits {
				if e.key == w.key && e.atServer != w.atServer {
					return true
				}
			}
			return false
		}
		// The serial outcomes: the write made before the round, or after.
		oracle := func(w write, before bool) (server, client *kvstore.Replica) {
			server, client = build()
			if before {
				apply(w, server, client)
			}
			if _, err := kvstore.Sync(server, client, keepBoth); err != nil {
				t.Fatal(err)
			}
			if !before {
				apply(w, server, client)
				if _, err := kvstore.Sync(server, client, keepBoth); err != nil {
					t.Fatal(err)
				}
			}
			return server, client
		}
		for _, w := range writes {
			beforeS, beforeC := oracle(w, true)
			afterS, afterC := oracle(w, false)
			for at := 0; ; at++ {
				server, client := build()
				l := newLockstep(server, client, keepBoth)
				made := false
				l.before = func(n int, _ *bytes.Buffer) {
					if n == at {
						apply(w, server, client)
						made = true
					}
				}
				if _, err := l.round(t, nil); err != nil {
					t.Fatalf("%s, %s before frame %d: %v", base.name, w.name, at, err)
				}
				if !made {
					break // every frame of the round has had its turn
				}
				schedules++
				l.before = nil
				if _, err := l.round(t, nil); err != nil {
					t.Fatalf("%s, %s before frame %d: quiescent round: %v", base.name, w.name, at, err)
				}
				where := fmt.Sprintf("%s, %s before frame %d", base.name, w.name, at)
				for _, r := range []*kvstore.Replica{server, client} {
					v, _ := r.Stored(w.key)
					switch {
					case w.value == nil && !v.Deleted && !racing(w):
						t.Errorf("%s: %s lost the delete: %q", where, r.Label(), v.Value)
					case w.value != nil && (v.Deleted || !bytes.Contains(v.Value, w.value)):
						t.Errorf("%s: %s lost the write: %q deleted %v", where, r.Label(), v.Value, v.Deleted)
					}
				}
				dBefore := differs(server, client, beforeS, beforeC, w.key)
				dAfter := differs(server, client, afterS, afterC, w.key)
				if dBefore != "" && dAfter != "" {
					t.Errorf("%s: the ends match neither serial outcome: write first: %s; write last: %s",
						where, dBefore, dAfter)
				}
			}
		}
	}
	t.Logf("%d schedules", schedules)
}

// TestRoundChecksMatchedKeysIds guards the id check of a key the client
// ships as its id alone. Both ends create one fresh key, so its two copies
// carry equal update components under overlapping ids, and the client also
// writes a key sharing its leaf, so the round descends to that leaf. The
// fresh key's term then matches the server's, and only its id travels: the
// server must rebuild the client's exact stamp for it, whose overlap with
// its own makes the key's copies independent, so that the round merges the
// key as kvstore.Sync does, and needs no other key than it and the mate:
// the leaf's other keys are equivalent copies, which a stamp of the wrong
// id would make independent. Both ends must hold what Sync gives from the
// same start, every key's stamps Equal.
func TestRoundChecksMatchedKeysIds(t *testing.T) {
	keepBoth := kvstore.KeepBoth([]byte("|"))
	// In key-007's leaf, with a mate and other keys the pair holds.
	fresh := leafMate("key-007", func(i int) string { return fmt.Sprintf("fresh-%d", i) })
	mate := leafMate(fresh, func(i int) string { return fmt.Sprintf("key-%03d", i) })
	build := func() (server, client *kvstore.Replica) {
		server, client = roundPair()
		server.Put(fresh, []byte("from server"))
		client.Put(fresh, []byte("from client"))
		client.Put(mate, []byte("mate edit"))
		return server, client
	}
	oracleS, oracleC := build()
	want, err := kvstore.Sync(oracleS, oracleC, keepBoth)
	if err != nil {
		t.Fatal(err)
	}
	if want.Merged != 1 {
		t.Fatalf("kvstore.Sync merged %d keys, want the fresh one", want.Merged)
	}
	server, client := build()
	l := newLockstep(server, client, keepBoth)
	needs := uint64(0)
	l.before = func(_ int, unread *bytes.Buffer) {
		if unread.Len() > 0 && unread == &l.s2c {
			if kind, body := frameAt(unread); kind == kindNeed {
				needs, _ = binary.Uvarint(body)
			}
		}
	}
	res, err := l.round(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != want.Merged || res.Reconciled != want.Reconciled || res.Transferred != want.Transferred || needs != 2 {
		t.Errorf("round %+v needing %d keys, kvstore.Sync %+v", res, needs, want)
	}
	if d := differs(server, client, oracleS, oracleC, ""); d != "" {
		t.Errorf("the round and kvstore.Sync differ: %s", d)
	}
}

// certified returns value with a checksum of key and value appended, so a
// copy whose bytes changed on the wire shows (intact).
func certified(key, value string) []byte {
	h := fnv.New32a()
	h.Write([]byte(key + "=" + value))
	return fmt.Appendf(nil, "%s#%08x", value, h.Sum32())
}

// intact reports whether every copy r holds is one some replica wrote: each
// value, or each part of a KeepBoth merge, carries its key's checksum, and
// only deleted keys are tombstones.
func intact(r *kvstore.Replica, deleted map[string]bool) bool {
	for _, d := range r.Digest() {
		v, _ := r.Stored(d.Key)
		if v.Deleted {
			if !deleted[d.Key] {
				return false
			}
			continue
		}
		for _, part := range strings.Split(string(v.Value), "|") {
			i := strings.LastIndexByte(part, '#')
			if i < 0 || !bytes.Equal(certified(d.Key, part[:i]), []byte(part)) {
				return false
			}
		}
	}
	return true
}

// fuzzPair builds a seeded 2-stripe pair of 64 keys that then diverges at
// both ends: edits, deletes, creations and a conflict. It returns the keys
// deleted anywhere.
func fuzzPair() (server, client *kvstore.Replica, deleted map[string]bool) {
	rng := rand.New(rand.NewSource(21))
	key := func(i int) string { return fmt.Sprintf("key-%02d", i) }
	server = kvstore.NewReplicaShards("server", 2)
	for i := 0; i < 64; i++ {
		server.Put(key(i), certified(key(i), "v0"))
	}
	client = server.Clone("client")
	deleted = make(map[string]bool)
	for n, r := range []*kvstore.Replica{server, client, server, client, server, client} {
		k := key(rng.Intn(64))
		if n == 4 {
			deleted[k] = r.Delete(k)
			continue
		}
		r.Put(k, certified(k, r.Label()))
	}
	client.Put(key(7), certified(key(7), "conflict client"))
	server.Put(key(7), certified(key(7), "conflict server"))
	client.Put("created", certified("created", "client"))
	return server, client, deleted
}

// FuzzRound runs whole rounds between two small seeded replicas through the
// lockstep driver, the fuzzer's bytes XORed into one frame, in either
// direction, from its length prefix on (bytes past its end are appended).
// Neither machine may panic or loop; the round ends in a valid result or an
// error that is ErrProtocol or a failed receive. A clean round on a fresh
// session then converges the pair, unless the mutation rewrote a copy's
// value or tombstone under a stamp that decodes: no round can tell that from
// a write, so such runs stop at the check that found it (intact).
func FuzzRound(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(2), []byte{0, 0, 1})
	f.Add(uint8(3), []byte{0, 0, 0, 3})
	f.Add(uint8(4), []byte{0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(5), []byte{0, 0, 0, 0xff})
	f.Add(uint8(6), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(7), []byte{0, 0, 0, 0, 0, 2})
	f.Add(uint8(8), []byte{1})
	f.Add(uint8(9), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4})
	f.Add(uint8(10), []byte{0, 0, 9})
	// Frame 5 is the tree diff. Its first term list opens at byte 8 of the
	// frame, length prefix and kind included, with the count: a term that
	// no longer matches (its key goes whole), and a count past the frame.
	f.Add(uint8(5), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0x01})
	f.Add(uint8(5), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0x01})
	keepBoth := kvstore.KeepBoth([]byte("|"))
	f.Fuzz(func(t *testing.T, frame uint8, mut []byte) {
		server, client, deleted := fuzzPair()
		l := newLockstep(server, client, keepBoth)
		l.before = func(n int, unread *bytes.Buffer) {
			if n != int(frame) {
				return
			}
			b := unread.Bytes()
			for i, x := range mut {
				if i < len(b) {
					b[i] ^= x
				} else {
					unread.WriteByte(x)
				}
			}
		}
		if _, err := l.round(t, nil); err != nil && !errors.Is(err, ErrProtocol) && !errors.Is(err, errRecv) {
			t.Fatalf("mutated round: unclassified error %v", err)
		}
		if !intact(server, deleted) || !intact(client, deleted) {
			return
		}
		if _, err := newLockstep(server, client, keepBoth).round(t, nil); err != nil {
			t.Fatalf("clean round after the mutated one: %v", err)
		}
		requireConverged(t, server, client)
	})
}
