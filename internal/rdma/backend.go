package rdma

import "net"

// QueuePair is what a Messenger wraps: a connection.
//
// Deprecated: a link endpoint is a Messenger over a net.Conn; the name
// remains only for bench/.
type QueuePair = net.Conn

// Backend names the wire engine of a link. tcp is the only one.
type Backend int

// BackendTCP is the netpoller-based tcp provider.
const BackendTCP Backend = 0

// NewConnQP returns conn itself, ready for NewMessenger. It exists only
// for bench/, which calls it with BackendTCP.
func NewConnQP(conn net.Conn, _ Backend, _ int) (QueuePair, string, error) {
	return conn, "", nil
}
