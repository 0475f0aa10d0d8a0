package rdma

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

func tcpConnPair(t testing.TB) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return cli, <-accepted
}

func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendTCP, true},
		{"tcp", BackendTCP, true},
		{"auto", BackendAuto, true},
		{"uring", BackendUring, true},
		{"verbs", BackendTCP, false},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("ParseBackend(%q) = %v, %v", c.in, got, err)
		}
	}
	for _, b := range []Backend{BackendTCP, BackendAuto, BackendUring} {
		if b.String() == "" {
			t.Fatal("empty backend name")
		}
	}
}

// Auto on an unsupported kernel must fall back to tcp and say why.
func TestResolveBackendAutoFallback(t *testing.T) {
	restore := ForceUringUnsupported("test kernel says no")
	defer restore()
	b, reason, err := ResolveBackend("auto")
	if err != nil {
		t.Fatal(err)
	}
	if b != BackendTCP {
		t.Fatalf("backend = %v, want tcp fallback", b)
	}
	if reason != "test kernel says no" {
		t.Fatalf("fallback reason = %q", reason)
	}
}

// Explicit uring on an unsupported kernel is a clear error, not a panic
// and not a silent downgrade.
func TestResolveBackendExplicitUringUnsupported(t *testing.T) {
	restore := ForceUringUnsupported("test kernel says no")
	defer restore()
	_, _, err := ResolveBackend("uring")
	if err == nil {
		t.Fatal("want error for explicit uring on unsupported kernel")
	}
	if !strings.Contains(err.Error(), "test kernel says no") {
		t.Fatalf("error %q does not carry the probe reason", err)
	}
}

func TestNewConnQPAutoFallsBackToTCP(t *testing.T) {
	restore := ForceUringUnsupported("forced off")
	defer restore()
	cli, srv := tcpConnPair(t)
	qp, reason, err := NewConnQP(cli, BackendAuto, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer qp.Close()
	if reason != "forced off" {
		t.Fatalf("fallback reason = %q", reason)
	}
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
	cli, srv := tcpConnPair(t)
	a := NewTCP(cli)
	b := NewTCP(srv)
	defer a.Close()
	defer b.Close()
	pairExchange(t, a, b)
	ca := a.(WireStatter).WireCounters()
	cb := b.(WireStatter).WireCounters()
	if ca.Submits != 1 || ca.Syscalls < 1 {
		t.Fatalf("sender counters = %+v", ca)
	}
	// Receiver pays two reads per message (header + payload).
	if cb.Syscalls < 2 {
		t.Fatalf("receiver counters = %+v", cb)
	}
}

// ---------------------------------------------------------------------
// uring backend (skipped when the kernel lacks support)
// ---------------------------------------------------------------------

func uringPair(t *testing.T, maxMsg int) (QueuePair, QueuePair) {
	t.Helper()
	if ok, reason := UringSupported(); !ok {
		t.Skipf("io_uring unavailable: %s", reason)
	}
	cli, srv := tcpConnPair(t)
	a, err := NewUring(cli, maxMsg)
	if err != nil {
		cli.Close()
		srv.Close()
		t.Fatal(err)
	}
	b, err := NewUring(srv, maxMsg)
	if err != nil {
		a.Close()
		srv.Close()
		t.Fatal(err)
	}
	return a, b
}

func TestUringExchange(t *testing.T) {
	a, b := uringPair(t, 1<<16)
	defer a.Close()
	defer b.Close()
	pairExchange(t, a, b)
}

// One end uring, one end tcp: the frame format is shared, so mixed
// links (per-connection fallback on one side only) keep working.
func TestUringTCPInterop(t *testing.T) {
	if ok, reason := UringSupported(); !ok {
		t.Skipf("io_uring unavailable: %s", reason)
	}
	cli, srv := tcpConnPair(t)
	a, err := NewUring(cli, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	b := NewTCP(srv)
	defer a.Close()
	defer b.Close()
	pairExchange(t, a, b)
	pairExchange(t, b, a)
}

func TestUringLargeTransfer(t *testing.T) {
	const size = 4 << 20
	a, b := uringPair(t, size)
	defer a.Close()
	defer b.Close()
	var d Device
	send := d.RegisterMemory(size)
	for i := range send.Bytes() {
		send.Bytes()[i] = byte(i * 31)
	}
	if err := b.PostRecv(size); err != nil {
		t.Fatal(err)
	}
	if err := a.PostSend(send, size); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-b.RecvCompletions():
		if c.Err != nil || c.Bytes != size {
			t.Fatalf("recv = %+v", c.Err)
		}
		if !bytes.Equal(send.Bytes(), c.Data) {
			t.Fatal("payload corrupted")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("large recv timeout")
	}
}

// Registered-buffer fixed writes: the Messenger pool path end to end,
// many messages, byte-for-byte integrity, and live wire counters.
func TestUringMessengerRoundTrip(t *testing.T) {
	const maxMsg = 1 << 16
	a, b := uringPair(t, maxMsg)
	ma, err := NewMessenger(a, maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMessenger(b, maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	defer mb.Close()

	done := make(chan error, 1)
	const n = 64
	go func() {
		for i := 0; i < n; i++ {
			msg, err := mb.Recv()
			if err != nil {
				done <- err
				return
			}
			if len(msg) != 1000 || msg[0] != byte(i) {
				done <- errors.New("payload mismatch")
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		i := i
		if err := ma.SendEncoded(1000, func(dst []byte) int {
			for j := range dst {
				dst[j] = byte(i)
			}
			return 1000
		}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("round trip timeout")
	}
	c, ok := ma.WireCounters()
	if !ok {
		t.Fatal("uring messenger must expose wire counters")
	}
	if c.Syscalls == 0 || c.Submits == 0 {
		t.Fatalf("sender wire counters empty: %+v", c)
	}
}

// SendVectored over uring: a batch envelope assembled from many parts
// must arrive as one contiguous message (linked-SQE-chain gather).
func TestUringVectoredSend(t *testing.T) {
	const maxMsg = 1 << 18
	a, b := uringPair(t, maxMsg)
	ma, err := NewMessenger(a, maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMessenger(b, maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	defer mb.Close()

	// 80 parts exceeds the per-chain fragment bound the hop scheduler
	// uses and exercises chunked chain submission.
	var parts [][]byte
	var want []byte
	for i := 0; i < 80; i++ {
		p := bytes.Repeat([]byte{byte(i + 1)}, 257)
		parts = append(parts, p)
		want = append(want, p...)
	}
	done := make(chan error, 1)
	var got []byte
	go func() {
		msg, err := mb.Recv()
		got = msg
		done <- err
	}()
	if err := ma.SendVectored(parts); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("vectored recv timeout")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("vectored payload mismatch: got %d bytes, want %d", len(got), len(want))
	}
}

// Heartbeats multiplexed onto a data link use TrySendEncoded; on the
// uring backend it must keep returning (success or ErrQueueFull) without
// ever blocking behind bulk traffic.
func TestUringTrySendEncoded(t *testing.T) {
	const maxMsg = 1 << 12
	a, b := uringPair(t, maxMsg)
	ma, err := NewMessenger(a, maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMessenger(b, maxMsg)
	if err != nil {
		t.Fatal(err)
	}
	defer ma.Close()
	defer mb.Close()
	recvd := make(chan struct{})
	go func() {
		defer close(recvd)
		for {
			if _, err := mb.Recv(); err != nil {
				return
			}
		}
	}()
	sent := 0
	for i := 0; i < 50; i++ {
		err := ma.TrySendEncoded(16, func(dst []byte) int {
			return copy(dst, "beat")
		})
		switch err {
		case nil:
			sent++
		case ErrQueueFull:
		default:
			t.Fatal(err)
		}
	}
	if sent == 0 {
		t.Fatal("no heartbeat ever got through")
	}
	ma.Close()
	mb.Close()
	<-recvd
}

func TestUringCloseUnblocks(t *testing.T) {
	a, b := uringPair(t, 1<<12)
	defer b.Close()
	if err := a.PostRecv(64); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		a.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on an idle pinned receive loop")
	}
}
