//go:build !unix

package rdma

import "syscall"

// reuseAddr leaves the socket as it is where SO_REUSEADDR does not have
// the Unix meaning (see reuse_unix.go).
func reuseAddr(_, _ string, _ syscall.RawConn) error { return nil }
