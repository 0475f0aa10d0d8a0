//go:build unix

package rdma

import "syscall"

// reuseAddr sets SO_REUSEADDR on the dialing end of a loopback link
// before it connects. Whichever end of a link closes first holds its
// port in TIME_WAIT for a minute; the accepted end inherits the flag
// from its listener, and with the flag on the dialing end too, neither
// end's TIME_WAIT keeps a listener (which sets the flag as well) off
// that port. Without it every ring torn down leaves ephemeral ports
// that a server binding a concrete port may find taken.
func reuseAddr(_, _ string, c syscall.RawConn) error {
	var serr error
	if err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1)
	}); err != nil {
		return err
	}
	return serr
}
