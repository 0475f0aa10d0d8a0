package rdma

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// tcpConnPair returns both ends of a loopback connection (loopbackConns),
// for tests that wrap or write the raw connection.
func tcpConnPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	cli, srv, err := loopbackConns()
	if err != nil {
		t.Fatal(err)
	}
	return cli, srv
}

// NewConnQP, bench/'s entry point, is a tcp queue pair.
func TestNewConnQPIsTCP(t *testing.T) {
	cli, srv := tcpConnPair(t)
	qp, reason, err := NewConnQP(cli, BackendTCP, 1<<16)
	if err != nil || reason != "" {
		t.Fatalf("NewConnQP: reason %q, err %v", reason, err)
	}
	defer qp.Close()
	if _, ok := qp.(*tcpQP); !ok {
		t.Fatalf("qp = %T, want *tcpQP", qp)
	}
	b := NewTCP(srv)
	defer b.Close()
	pairExchange(t, qp, b)
}

// ---------------------------------------------------------------------
// tcpQP PostSendVec failure semantics (regression)
// ---------------------------------------------------------------------

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

// A short/failed vectored write must fail the pending send completion
// with the cause AND tear the queue pair down: the length-prefixed
// stream has no way to resynchronize a half-written frame, so keeping
// the pair alive would corrupt every later message.
func TestTCPPostSendVecWriteFailureClosesQP(t *testing.T) {
	cli, srv := tcpConnPair(t)
	defer srv.Close()
	// Enough budget for the 4-byte header and a bit of payload, then die.
	qp := NewTCP(&limitedConn{Conn: cli, limit: 10}).(*tcpQP)
	payload := bytes.Repeat([]byte("x"), 64)
	if err := qp.PostSendVec(net.Buffers{payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-qp.SendCompletions():
		if c.Err == nil {
			t.Fatal("send completion must carry the write error")
		}
		if !errors.Is(c.Err, errConnDied) {
			t.Fatalf("completion err = %v, want the connection error", c.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no send completion after write failure")
	}
	select {
	case <-qp.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("queue pair not torn down after write failure")
	}
	var d Device
	mr := d.RegisterMemory(8)
	if err := qp.PostSend(mr, 1); err != ErrClosed {
		t.Fatalf("PostSend after wire failure = %v, want ErrClosed", err)
	}
	if err := qp.Close(); err == nil {
		// Close surfaces the conn teardown result; either way it must
		// not hang or double-close.
		_ = err
	}
}

// Same teardown contract for the plain PostSend path.
func TestTCPPostSendWriteFailureClosesQP(t *testing.T) {
	cli, srv := tcpConnPair(t)
	defer srv.Close()
	qp := NewTCP(&limitedConn{Conn: cli, limit: 2}).(*tcpQP)
	var d Device
	mr := d.RegisterMemory(64)
	if err := qp.PostSend(mr, 64); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-qp.SendCompletions():
		if c.Err == nil {
			t.Fatal("send completion must carry the write error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no send completion after write failure")
	}
	select {
	case <-qp.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("queue pair not torn down after write failure")
	}
	qp.Close()
}

func TestTCPWireCounters(t *testing.T) {
	a, b := tcpPair(t)
	pairExchange(t, a, b)
	ca, cb := a.WireCounters(), b.WireCounters()
	if ca.Syscalls < 1 {
		t.Fatalf("sender counters = %+v", ca)
	}
	// Receiver pays two reads per message (header + payload).
	if cb.Syscalls < 2 {
		t.Fatalf("receiver counters = %+v", cb)
	}
}
