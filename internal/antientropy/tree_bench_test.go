package antientropy

import (
	"fmt"
	"testing"

	"versionstamp/internal/kvstore"
)

// The sync-round benchmark: one network sync round between two replicas of
// benchKeys keys at a given divergence. The interesting number is wireB/op,
// which tracks the number of diverged keys, not the keyspace size.

const benchKeys = 1000

// benchPair builds a converged server/client pair with benchKeys keys and a
// listening server.
func benchPair(b *testing.B, resolve kvstore.Resolver) (*kvstore.Replica, *kvstore.Replica, string) {
	b.Helper()
	server := kvstore.NewReplica("server")
	for i := 0; i < benchKeys; i++ {
		server.Put(fmt.Sprintf("key-%05d", i), []byte(fmt.Sprintf("value-%d-with-some-padding", i)))
	}
	client := server.Clone("client")
	srv := NewServer(server, resolve)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatalf("Listen: %v", err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	return server, client, addr
}

// diverge rewrites n keys on the client so the next round must ship them.
func diverge(client *kvstore.Replica, n, round int) {
	for i := 0; i < n; i++ {
		client.Put(fmt.Sprintf("key-%05d", i), []byte(fmt.Sprintf("edit-%d-%d", round, i)))
	}
}

// syncBench runs pooled rounds at a fixed divergence, reporting average wire
// bytes per round.
func syncBench(b *testing.B, diverged int) {
	_, client, addr := benchPair(b, nil)
	p := NewPool()
	b.Cleanup(func() { _ = p.Close() })
	if _, err := p.SyncWith(addr, client); err != nil {
		b.Fatalf("warm-up sync: %v", err)
	}
	var wire int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diverged > 0 {
			b.StopTimer()
			diverge(client, diverged, i)
			b.StartTimer()
		}
		res, err := p.SyncWith(addr, client)
		if err != nil {
			b.Fatalf("sync: %v", err)
		}
		wire += res.BytesSent + res.BytesReceived
	}
	b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
}

// divergences maps sub-benchmark names to diverged key counts out of
// benchKeys: converged, 1%, 50%.
var divergences = []struct {
	name string
	keys int
}{
	{"conv0pct", 0},
	{"div1pct", benchKeys / 100},
	{"div50pct", benchKeys / 2},
}

// BenchmarkTreeSync measures pooled rounds — the steady state of a gossip
// loop: one persistent session, rounds descending the digest trees. At 0%
// divergence wireB/op is a root probe, independent of how many keys the
// replicas hold.
func BenchmarkTreeSync(b *testing.B) {
	for _, d := range divergences {
		b.Run(d.name, func(b *testing.B) { syncBench(b, d.keys) })
	}
}
