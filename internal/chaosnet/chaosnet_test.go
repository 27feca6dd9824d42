package chaosnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
)

// echoServer accepts connections and echoes everything back until EOF.
func echoServer(t *testing.T, ln net.Listener) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, werr := c.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return &wg
}

func TestPerfectLinkEcho(t *testing.T) {
	f := New(1)
	defer f.Close()
	ln, err := f.Node("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	echoServer(t, ln)
	c, err := f.Node("cli").Dial("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("hello chaosnet "), 200) // multi-segment
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("echo mismatch")
	}
	c.Close()
	ln.Close()
}

func TestDelayAdvancesLogicalClock(t *testing.T) {
	f := New(2)
	defer f.Close()
	f.SetDefaultFaults(Faults{DelayTicks: 10})
	ln, _ := f.Node("srv").Listen(":0")
	echoServer(t, ln)
	c, err := f.Node("cli").Dial("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	// Request took 10 ticks, reply 10 more; the clock moved without timers.
	if f.Tick() < 20 {
		t.Fatalf("tick = %d, want >= 20", f.Tick())
	}
}

func TestFaultySegmentsReassemble(t *testing.T) {
	// Drop + dup + reorder + jitter all at once: the stream must still
	// deliver byte-identical content — faults degrade latency, not data.
	f := New(3)
	defer f.Close()
	f.SetDefaultFaults(Faults{
		DelayTicks: 2, JitterTicks: 5,
		DropProb: 0.2, DupProb: 0.2, ReorderProb: 0.3,
	})
	ln, _ := f.Node("srv").Listen(":0")
	echoServer(t, ln)
	c, err := f.Node("cli").Dial("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 32*1024)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(msg)
		done <- err
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("faulty link corrupted the stream")
	}
	st := f.Stats()
	if st.Drops == 0 || st.Dups == 0 || st.Reorders == 0 {
		t.Fatalf("faults did not fire: %+v", st)
	}
}

func TestDeterministicFaultSchedule(t *testing.T) {
	run := func() Stats {
		f := New(42)
		defer f.Close()
		f.SetDefaultFaults(Faults{DelayTicks: 1, JitterTicks: 3, DropProb: 0.15, DupProb: 0.1, ReorderProb: 0.2})
		ln, _ := f.Node("srv").Listen(":0")
		echoServer(t, ln)
		c, err := f.Node("cli").Dial("srv", 0)
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 16*1024)
		go c.Write(msg)
		io.ReadFull(c, make([]byte, len(msg)))
		c.Close()
		return f.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault schedule:\n%+v\n%+v", a, b)
	}
}

func TestPartitionRefusesAndResets(t *testing.T) {
	f := New(4)
	defer f.Close()
	ln, _ := f.Node("b").Listen(":0")
	echoServer(t, ln)
	c, err := f.Node("a").Dial("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}

	f.Partition(map[string]int{"a": 0, "b": 1})
	if _, err := f.Node("a").Dial("b", 0); err == nil {
		t.Fatal("dial across partition succeeded")
	}
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on partitioned conn succeeded")
	}

	f.Heal()
	c2, err := f.Node("a").Dial("b", 0)
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c2.Write([]byte("y"))
	if _, err := io.ReadFull(c2, make([]byte, 1)); err != nil {
		t.Fatalf("echo after heal: %v", err)
	}
}

func TestAsymmetricBlockTimesOutFast(t *testing.T) {
	f := New(5)
	defer f.Close()
	ln, _ := f.Node("b").Listen(":0")
	echoServer(t, ln)
	c, err := f.Node("a").Dial("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Block only b→a: a's request arrives, b's reply vanishes. The read
	// must fail with a timeout-flavored net.Error, not hang.
	f.SetLinkFaults("b", "a", Faults{Block: true})
	c.Write([]byte("ping"))
	_, err = c.Read(make([]byte, 4))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout net.Error, got %v", err)
	}
}

func TestBlackholedWriteFailsNextRead(t *testing.T) {
	f := New(6)
	defer f.Close()
	ln, _ := f.Node("b").Listen(":0")
	echoServer(t, ln)
	c, err := f.Node("a").Dial("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Block a→b after the dial: the write vanishes silently (like a real
	// socket) and the subsequent read times out instead of hanging.
	f.SetLinkFaults("a", "b", Faults{Block: true})
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatalf("write into black hole should buffer silently, got %v", err)
	}
	_, err = c.Read(make([]byte, 4))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout net.Error, got %v", err)
	}
}

func TestMidStreamCut(t *testing.T) {
	f := New(7)
	defer f.Close()
	f.SetDefaultFaults(Faults{CutAfterBytes: 4096})
	ln, _ := f.Node("srv").Listen(":0")
	echoServer(t, ln)
	c, err := f.Node("cli").Dial("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Stream far more than the cut threshold; the write must fail partway.
	msg := make([]byte, 64*1024)
	n, err := c.Write(msg)
	if err == nil {
		t.Fatalf("write survived a CutAfterBytes link (n=%d)", n)
	}
	if n == 0 || n >= len(msg) {
		t.Fatalf("cut at n=%d, want mid-stream", n)
	}
	if f.Stats().Cuts == 0 {
		t.Fatal("no cut recorded")
	}
}

func TestRetransmissionExhaustionResets(t *testing.T) {
	f := New(8)
	defer f.Close()
	f.SetDefaultFaults(Faults{DropProb: 1})
	ln, _ := f.Node("srv").Listen(":0")
	echoServer(t, ln)
	c, err := f.Node("cli").Dial("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every segment drops; after maxRetrans consecutive drops the conn
	// resets rather than retrying forever.
	_, err = c.Write(make([]byte, maxRetrans*segmentBytes*2))
	if err == nil {
		t.Fatal("write survived 100% loss")
	}
	if f.Stats().Resets == 0 {
		t.Fatal("no reset recorded")
	}
}

func TestBandwidthPacingOrders(t *testing.T) {
	f := New(9)
	defer f.Close()
	f.SetDefaultFaults(Faults{BytesPerTick: 256})
	ln, _ := f.Node("srv").Listen(":0")
	echoServer(t, ln)
	c, err := f.Node("cli").Dial("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 8*1024)
	go c.Write(msg)
	if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
		t.Fatal(err)
	}
	// 8 KiB each way at 256 B/tick is at least ~32 ticks of occupancy.
	if f.Tick() < 30 {
		t.Fatalf("tick = %d after paced transfer, want >= 30", f.Tick())
	}
}

func TestDialFailProb(t *testing.T) {
	f := New(10)
	defer f.Close()
	f.SetDefaultFaults(Faults{DialFailProb: 0.5})
	ln, _ := f.Node("srv").Listen(":0")
	defer ln.Close()
	fails := 0
	for i := 0; i < 100; i++ {
		c, err := f.Node("cli").Dial("srv", 0)
		if err != nil {
			fails++
			continue
		}
		c.Close()
	}
	if fails < 20 || fails > 80 {
		t.Fatalf("dial failures = %d/100 at p=0.5", fails)
	}
}

func TestCleanCloseEOF(t *testing.T) {
	f := New(11)
	defer f.Close()
	ln, _ := f.Node("b").Listen(":0")
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := f.Node("a").Dial("b", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	c.Write([]byte("bye"))
	c.Close()
	got, err := io.ReadAll(srv)
	if err != nil {
		t.Fatalf("read after clean close: %v", err)
	}
	if string(got) != "bye" {
		t.Fatalf("got %q", got)
	}
}

// TestPartitionCountsEachCutConnectionOnce: a partition counts one reset per
// connection it cuts that both ends still held open and nothing had reset,
// so the count does not depend on whether a closed end's peer has closed
// its side yet, and a second partition does not count the same connections
// again.
func TestPartitionCountsEachCutConnectionOnce(t *testing.T) {
	for _, peerClosed := range []bool{false, true} {
		f := New(9)
		ln, err := f.Node("b").Listen(":0")
		if err != nil {
			t.Fatal(err)
		}
		dial := func() (client, server net.Conn) {
			c, err := f.Node("a").Dial("b", 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return c, s
		}
		_, _ = dial() // open at both ends: cut
		closed, peer := dial()
		_ = closed.Close() // closed at one end: not counted
		if peerClosed {
			_ = peer.Close()
		}
		f.Partition(map[string]int{"a": 0, "b": 1})
		if got := f.Stats().Resets; got != 1 {
			t.Errorf("peer closed %v: %d resets after the partition, want 1", peerClosed, got)
		}
		f.Heal()
		f.Partition(map[string]int{"a": 1, "b": 0})
		if got := f.Stats().Resets; got != 1 {
			t.Errorf("peer closed %v: %d resets after a second partition, want still 1", peerClosed, got)
		}
		f.Close()
	}
}
