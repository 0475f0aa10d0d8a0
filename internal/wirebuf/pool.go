// Package wirebuf is a pool of wire-encode buffers. The query service
// encodes a result frame per query, often megabytes of it; recycling the
// buffers through one sync.Pool keeps that encode path allocation-free
// in steady state.
package wirebuf

import "sync"

// maxPooled bounds the capacity of a buffer the pool will retain;
// larger one-off buffers (giant result sets) are left to the GC so a
// single monster query does not pin memory forever.
const maxPooled = 8 << 20

// pool holds *[]byte (boxed slice headers): storing a bare []byte in a
// sync.Pool re-boxes it into an interface on every Put — one heap
// allocation per recycle, exactly what this package exists to avoid
// (staticcheck SA6002). boxes recycles the emptied boxes themselves so
// steady state allocates nothing at all.
var (
	pool  = sync.Pool{New: func() any { return new([]byte) }}
	boxes = sync.Pool{New: func() any { return new([]byte) }}
)

// Get returns a zero-length buffer to append an encoding into. The
// returned slice may carry capacity from a previous encode.
func Get() []byte {
	p := pool.Get().(*[]byte)
	b := *p
	*p = nil
	boxes.Put(p)
	return b[:0]
}

// Put returns a buffer obtained from Get (after its bytes have been
// consumed — written to a socket or copied into a registered region).
// The caller must not touch the slice afterwards.
func Put(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooled {
		return
	}
	p := boxes.Get().(*[]byte)
	*p = b[:0]
	pool.Put(p)
}
