package rdma

import "net"

// Backend names the wire engine of a socket-backed queue pair. tcp is
// the only one.
type Backend int

// BackendTCP is the netpoller-based provider (tcpQP).
const BackendTCP Backend = 0

// NewConnQP wraps an established connection in a tcp queue pair. It
// exists only for bench/, which calls it with BackendTCP; everything
// else calls NewTCP.
func NewConnQP(conn net.Conn, _ Backend, _ int) (QueuePair, string, error) {
	return NewTCP(conn), "", nil
}
