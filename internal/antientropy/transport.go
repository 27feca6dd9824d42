package antientropy

import (
	"net"
	"time"
)

// Transport abstracts how this package reaches peers: production code runs
// over TCP, tests and the chaos lab inject an in-memory fabric
// (internal/chaosnet) so the identical protocol code paths — session
// opening, framing, pooling, retry — execute under injected faults.
// Implementations must be safe for concurrent use.
type Transport interface {
	// Dial opens a connection to addr, giving up after timeout (transports
	// without wall-clock time may ignore it).
	Dial(addr string, timeout time.Duration) (net.Conn, error)
	// Listen opens a listener on addr and returns it; the listener's
	// Addr().String() is what peers pass to Dial.
	Listen(addr string) (net.Listener, error)
}

// TCP is the production transport: net.DialTimeout / net.Listen on "tcp".
// It is the default everywhere a Transport is optional.
var TCP Transport = tcpTransport{}

type tcpTransport struct{}

func (tcpTransport) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

func (tcpTransport) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// TransportProvider returns the transport a given node dials and listens
// through. Cluster code uses it instead of a single Transport because
// fault-injecting fabrics are directional: the fabric must know which host
// is dialing to apply per-link faults, so each node needs its own endpoint
// of the shared fabric. A nil provider (or nil result) means TCP.
type TransportProvider func(nodeID string) Transport
