package live

import (
	"fmt"
	"net"

	"repro/internal/rdma"
)

// newQueuePair creates one connected neighbour link of the chosen
// transport kind.
func newQueuePair(t Transport) (rdma.QueuePair, rdma.QueuePair, error) {
	switch t {
	case InProc:
		a, b := rdma.NewPair(rdma.MessengerDepth)
		return a, b, nil
	case TCP:
		return newTCPPair()
	}
	return nil, nil, fmt.Errorf("live: unknown transport %d", t)
}

// newTCPPair dials a loopback connection to itself and wraps both ends
// in the rdma tcp provider, so every ring message really crosses the
// kernel socket layer.
func newTCPPair() (rdma.QueuePair, rdma.QueuePair, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("live: listen: %w", err)
	}
	defer ln.Close()

	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		ch <- accepted{conn, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, fmt.Errorf("live: dial: %w", err)
	}
	acc := <-ch
	if acc.err != nil {
		dial.Close()
		return nil, nil, fmt.Errorf("live: accept: %w", acc.err)
	}
	setNoDelay(dial)
	setNoDelay(acc.conn)
	return rdma.NewTCP(dial), rdma.NewTCP(acc.conn), nil
}

// setNoDelay disables Nagle's algorithm explicitly on a ring data/req
// connection. Ring hops and request messages are latency-critical and
// already batched at the application layer (the hop scheduler coalesces
// co-resident fragments into one envelope), so delaying small segments
// to coalesce them again in the kernel only adds up to an RTT of queuing
// per hop. Go enables TCP_NODELAY by default, but the ring's latency
// gates depend on it — set it explicitly rather than inheriting a
// platform default.
func setNoDelay(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}
