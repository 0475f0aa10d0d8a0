package rdma

import (
	"bytes"
	"errors"
	"net"
	"sync"
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
// (SendVectoredAsync), whose failure reaches the send's callback.
func TestTCPPostSendVecWriteFailureClosesQP(t *testing.T) {
	checkWriteFailureClosesLink(t, func(m *Messenger, payload []byte) error {
		sent := make(chan error, 1)
		if err := m.SendVectoredAsync([][]byte{payload[:8], payload[8:]}, func(err error) { sent <- err }); err != nil {
			return err
		}
		return <-sent
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

// TestCloseRunsQueuedCallbacksOnce: Close with a full queue — its head
// blocked in its write — fails every send, the queued ones with
// ErrClosed, and runs each callback exactly once before it returns.
// Meanwhile TrySendEncoded, on a busy link, returns at once.
func TestCloseRunsQueuedCallbacksOnce(t *testing.T) {
	near, far := net.Pipe() // nobody reads far: the first write blocks
	defer far.Close()
	m, err := NewMessenger(near, 64)
	if err != nil {
		t.Fatal(err)
	}
	const sends = MessengerSendWindow
	var mu sync.Mutex
	calls, errs := make([]int, sends), make([]error, sends)
	for i := 0; i < sends; i++ {
		i := i
		if err := m.SendVectoredAsync([][]byte{{byte(i)}}, func(err error) {
			mu.Lock()
			calls[i]++
			errs[i] = err
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.TrySendEncoded(1, func([]byte) int { return 1 }); err != ErrQueueFull {
		t.Fatalf("TrySendEncoded on a busy link = %v, want ErrQueueFull", err)
	}
	m.Close()
	mu.Lock()
	defer mu.Unlock()
	for i := range calls {
		if calls[i] != 1 {
			t.Fatalf("send %d's callback ran %d times, want once", i, calls[i])
		}
		if errs[i] == nil || i > 0 && errs[i] != ErrClosed {
			t.Fatalf("send %d completed with %v, want a failure (ErrClosed once queued)", i, errs[i])
		}
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
