package rdma

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
)

// tcpConnPair returns both ends of a loopback connection (NewTCPPair),
// for tests that wrap or write the raw connection; both close when the
// test ends.
func tcpConnPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	cli, srv, err := NewTCPPair()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// NewConnQP, bench/'s entry point, hands back the connection itself,
// and a messenger over it works.
func TestNewConnQPIsTCP(t *testing.T) {
	cli, srv := tcpConnPair(t)
	qp, reason, err := NewConnQP(cli, BackendTCP, 1<<16)
	if err != nil || reason != "" || qp != cli {
		t.Fatalf("NewConnQP = %v, reason %q, err %v; want the connection itself", qp, reason, err)
	}
	a, err := NewMessenger(qp, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewMessenger(srv, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send([]byte("hello ring")); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Recv(); err != nil || string(got) != "hello ring" {
		t.Fatalf("recv = %q, %v", got, err)
	}
}

// limitedConn fails every write after the first limit bytes — the shape
// of a connection that dies mid-gather-write.
type limitedConn struct {
	net.Conn
	limit   int
	written int
}

var errConnDied = errors.New("connection died mid-write")

func (c *limitedConn) Write(p []byte) (int, error) {
	if c.written >= c.limit {
		return 0, errConnDied
	}
	n := len(p)
	if c.written+n > c.limit {
		n = c.limit - c.written
		c.written = c.limit
		c.Conn.Write(p[:n])
		return n, errConnDied
	}
	c.written += n
	return c.Conn.Write(p)
}

// A short or failed write fails its send with the cause AND tears the
// link down: the length-prefixed stream has no way to resynchronize a
// half-written frame, so keeping the link alive would corrupt every
// later message. The two tests below check this on each send path; their
// names are those of the queue-pair sends they replaced.

// TestTCPPostSendWriteFailureClosesQP: the encoded path (Send).
func TestTCPPostSendWriteFailureClosesQP(t *testing.T) {
	checkWriteFailureClosesLink(t, func(m *Messenger, payload []byte) error { return m.Send(payload) })
}

// TestTCPPostSendVecWriteFailureClosesQP: the vectored path
// (SendVectored).
func TestTCPPostSendVecWriteFailureClosesQP(t *testing.T) {
	checkWriteFailureClosesLink(t, func(m *Messenger, payload []byte) error {
		return m.SendVectored([][]byte{payload[:8], payload[8:]})
	})
}

func checkWriteFailureClosesLink(t *testing.T, send func(m *Messenger, payload []byte) error) {
	t.Helper()
	cli, _ := tcpConnPair(t)
	// Budget for the 4-byte prefix and a bit of payload, then die.
	m, err := NewMessenger(&limitedConn{Conn: cli, limit: 10}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	payload := bytes.Repeat([]byte("x"), 64)
	if err := send(m, payload); !errors.Is(err, errConnDied) {
		t.Fatalf("send err = %v, want the connection error", err)
	}
	if err := send(m, payload); err != ErrClosed {
		t.Fatalf("send after the write failure = %v, want ErrClosed", err)
	}
	if _, err := m.Recv(); err != ErrClosed {
		t.Fatalf("Recv after the write failure = %v, want ErrClosed", err)
	}
}

// TestCloseFailsBlockedWriteAndWaiters: over a pipe nobody reads, one
// send blocks in its write while the others wait, for the write mutex
// or for a send region, and TrySendEncoded gives up at once on either.
// Close fails the blocked write with the write's own error and every
// waiter with ErrClosed, and every send region comes back.
func TestCloseFailsBlockedWriteAndWaiters(t *testing.T) {
	near, far := net.Pipe() // nobody reads far: the first write blocks
	defer far.Close()
	m, err := NewMessenger(near, 64)
	if err != nil {
		t.Fatal(err)
	}
	regions := cap(m.sendFree)
	// await yields until the messenger has issued writes writes and
	// counted waits waits for its write mutex.
	await := func(writes, waits int64) {
		for w, q := m.WriteStats(); w < writes || q < waits; w, q = m.WriteStats() {
			runtime.Gosched()
		}
	}
	try := func(why string) {
		t.Helper()
		if err := m.TrySendEncoded(1, func([]byte) int { return 1 }); err != ErrQueueFull {
			t.Fatalf("TrySendEncoded with %s = %v, want ErrQueueFull", why, err)
		}
	}

	blocked := make(chan error, 1)
	go func() { blocked <- m.SendVectored([][]byte{{0}}) }()
	await(1, 0)
	try("a write in progress")
	// Every encoded sender past the pool's regions waits for a region;
	// the rest, and the vectored ones, wait for the write mutex.
	const vectored = 2
	encoded := regions + 2
	waiters := make(chan error, vectored+encoded)
	for i := 0; i < vectored; i++ {
		go func() { waiters <- m.SendVectored([][]byte{{1}}) }()
	}
	for i := 0; i < encoded; i++ {
		go func() { waiters <- m.Send([]byte{2}) }()
	}
	await(1, int64(vectored+regions))
	try("no free region")
	if w, q := m.WriteStats(); w != 1 || q != int64(vectored+regions) {
		t.Fatalf("WriteStats = %d writes, %d waits; want 1, %d (a TrySendEncoded that gives up counts as neither)", w, q, vectored+regions)
	}

	m.Close()
	if err := <-blocked; !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("the blocked write failed with %v, want the pipe's io.ErrClosedPipe", err)
	}
	for i := 0; i < vectored+encoded; i++ {
		if err := <-waiters; err != ErrClosed {
			t.Fatalf("a waiting send failed with %v, want ErrClosed", err)
		}
	}
	if len(m.sendFree) != regions {
		t.Fatalf("%d of %d send regions back after Close", len(m.sendFree), regions)
	}
}

// TestTCPWireCounters: a send costs its sender one gather write, and a
// receive at least two reads (prefix, body).
func TestTCPWireCounters(t *testing.T) {
	a, b := tcpMessengerPair(t, 64)
	if err := a.Send([]byte("hello ring")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	if n := a.Syscalls(); n != 1 {
		t.Fatalf("sender syscalls = %d, want 1 gather write", n)
	}
	if n := b.Syscalls(); n < 2 {
		t.Fatalf("receiver syscalls = %d", n)
	}
}
