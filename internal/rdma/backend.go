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

// WireCounters reports transport work at the syscall layer of one queue
// pair endpoint: Syscalls counts the write and read calls the tcp
// provider issues (a lower bound on true kernel crossings: the Go
// netpoller's epoll and futex traffic comes on top).
type WireCounters struct {
	Syscalls int64
}
