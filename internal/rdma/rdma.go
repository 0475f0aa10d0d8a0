// Package rdma emulates the Remote Direct Memory Access facilities the
// Data Cyclotron targets (§2). Real RDMA hardware is not available in
// this environment, so the package provides:
//
//   - an RDMA-shaped transport API — memory regions that must be
//     registered before use, queue pairs with asynchronous post-send /
//     post-receive and completion polling — implemented over TCP;
//   - the analytical CPU-load model behind Figure 1, quantifying why
//     only full RDMA (not mere NIC offload) removes the local I/O
//     bottleneck.
//
// The Data Cyclotron protocols only rely on asynchronous, ordered,
// point-to-point delivery between ring neighbours, which this emulation
// provides with the same API shape real verbs would.
package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Errors returned by the transport.
var (
	ErrNotRegistered = errors.New("rdma: memory region not registered")
	ErrClosed        = errors.New("rdma: queue pair closed")
	ErrTooLarge      = errors.New("rdma: message exceeds region size")
	ErrQueueFull     = errors.New("rdma: receive queue full")
)

// MemoryRegion is a registered send buffer. Registration pins the
// memory with the (emulated) NIC and yields a steering key, mirroring
// §2.1. Receives need no region: a receive completion hands over a
// slab of the endpoint's receive memory (Completion.Data), which the
// receiver returns with Recycle when it is done with it.
type MemoryRegion struct {
	buf        []byte
	key        uint32
	registered bool
}

// Bytes exposes the region's buffer.
func (mr *MemoryRegion) Bytes() []byte { return mr.buf }

// Key returns the registration key.
func (mr *MemoryRegion) Key() uint32 { return mr.key }

// Registered reports registration state.
func (mr *MemoryRegion) Registered() bool { return mr.registered }

// Device is the emulated RNIC: it registers memory and opens queue
// pairs. A zero Device is ready to use.
type Device struct {
	nextKey uint32
}

// RegisterMemory pins a buffer of the given size. This is the expensive
// operation §2.3 warns about, so callers should register long-lived
// buffers once and reuse them.
func (d *Device) RegisterMemory(size int) *MemoryRegion {
	key := atomic.AddUint32(&d.nextKey, 1)
	return &MemoryRegion{buf: make([]byte, size), key: key, registered: true}
}

// Deregister unpins the region.
func (d *Device) Deregister(mr *MemoryRegion) { mr.registered = false }

// Completion reports the outcome of an asynchronous work request.
type Completion struct {
	// Bytes transferred.
	Bytes int
	// Data is a receive completion's message, in a slab that now
	// belongs to the receiver: the transport neither reads nor writes it
	// until the receiver hands it back with Recycle (or never, if the
	// receiver keeps it). Nil on send completions and on failed receives.
	Data []byte
	// Err is non-nil when the work request failed.
	Err error
}

// QueuePair is a point-to-point asynchronous channel between two ring
// neighbours: sends and receives are posted, completions are polled —
// the RDMA execution model that lets computation overlap communication
// (§2.3). The one implementation is the tcp provider (NewTCP,
// NewTCPPair).
type QueuePair interface {
	// PostSend queues the first n bytes of mr for transmission and
	// returns immediately; the completion arrives on SendCompletions.
	// The transport may read those bytes straight from mr at any point
	// until then, so the caller leaves them untouched from post to
	// completion (verbs semantics) — which is what lets the provider
	// hand them to the kernel without a copy.
	PostSend(mr *MemoryRegion, n int) error
	// PostSendVec queues one message gathered from bufs — one vectored
	// write — and returns immediately, under PostSend's rule: the
	// buffers stay untouched until the completion. The receiver sees the
	// concatenation of the buffers.
	PostSendVec(bufs net.Buffers) error
	// PostRecv grants one receive credit: the next message of at most
	// limit bytes completes on RecvCompletions with its bytes in
	// Completion.Data; a longer one completes with ErrTooLarge, refused
	// before anything is allocated for it. Like real verbs the receive
	// queue has finite depth: ErrQueueFull when exceeded.
	PostRecv(limit int) error
	// Recycle returns a receive completion's Data, whole, to the
	// endpoint's free list: a later message of the same size is received
	// into it instead of into fresh memory. The caller gives up every
	// view of it. Data that is never recycled is left to the GC.
	Recycle(data []byte)
	// SendCompletions returns the send completion queue.
	SendCompletions() <-chan Completion
	// RecvCompletions returns the receive completion queue. The channel
	// is closed when the queue pair shuts down.
	RecvCompletions() <-chan Completion
	// Done is closed when the queue pair shuts down.
	Done() <-chan struct{}
	// WireCounters reports the endpoint's syscall-layer work.
	WireCounters() WireCounters
	// Close tears the pair down; posted requests complete with ErrClosed.
	Close() error
}

// ---------------------------------------------------------------------
// TCP provider
// ---------------------------------------------------------------------

// tcpQP frames messages over a TCP connection: 4-byte length prefix +
// payload. It keeps the same post/poll API shape. Sends are gathered:
// the frame header and every payload part go to the kernel as one
// vectored write (net.Buffers → writev), so a message is one syscall
// whether it was posted from a region or from a batch of buffers.
// Neither direction copies in user space: the kernel reads a send from
// the caller's buffers and writes a receive into one of the endpoint's
// recycled slabs.
type tcpQP struct {
	conn  net.Conn
	slabs slabPool

	mu     sync.Mutex
	closed bool
	sendCQ chan Completion
	recvCQ chan Completion

	sendQ    chan net.Buffers
	recvPend chan int // receive credits: the size limit of each
	done     chan struct{}
	wg       sync.WaitGroup

	closeOnce sync.Once
	closeErr  error

	syscalls int64 // atomic: write/read calls issued (lower bound, see WireCounters)
}

// NewTCP wraps an established connection in a queue pair.
func NewTCP(conn net.Conn) QueuePair {
	qp := &tcpQP{
		conn:     conn,
		sendCQ:   make(chan Completion, 64),
		recvCQ:   make(chan Completion, 64),
		sendQ:    make(chan net.Buffers, 64),
		recvPend: make(chan int, 64),
		done:     make(chan struct{}),
	}
	qp.wg.Add(2)
	go qp.sendLoop()
	go qp.recvLoop()
	return qp
}

// NewTCPPair connects two queue pairs over a fresh loopback TCP
// connection, so every message really crosses the kernel socket layer.
// It is the one way a ring link is built.
func NewTCPPair() (QueuePair, QueuePair, error) {
	a, b, err := loopbackConns()
	if err != nil {
		return nil, nil, err
	}
	return NewTCP(a), NewTCP(b), nil
}

// loopbackConns dials a loopback listener of its own and returns both
// ends of the connection, Nagle's algorithm off on each.
func loopbackConns() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("rdma: listen: %w", err)
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
	d := net.Dialer{Control: reuseAddr}
	dial, err := d.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, fmt.Errorf("rdma: dial: %w", err)
	}
	acc := <-ch
	if acc.err != nil {
		dial.Close()
		return nil, nil, fmt.Errorf("rdma: accept: %w", acc.err)
	}
	setNoDelay(dial)
	setNoDelay(acc.conn)
	return dial, acc.conn, nil
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

func (qp *tcpQP) sendLoop() {
	defer qp.wg.Done()
	var hdr [4]byte
	for {
		select {
		case <-qp.done:
			return
		case parts := <-qp.sendQ:
			total := 0
			for _, p := range parts {
				total += len(p)
			}
			binary.BigEndian.PutUint32(hdr[:], uint32(total))
			// One gather write for header + all parts. WriteTo drains
			// the Buffers slice in place, which is fine: it was built
			// for this send and hdr is rewritten next iteration.
			bufs := make(net.Buffers, 0, len(parts)+1)
			bufs = append(bufs, hdr[:])
			bufs = append(bufs, parts...)
			atomic.AddInt64(&qp.syscalls, 1) // ≥1 writev; WriteTo loops on short writes
			if _, err := bufs.WriteTo(qp.conn); err != nil {
				// A short or failed gather write leaves the peer mid-frame
				// with no way to resynchronize the length-prefixed stream:
				// fail the pending completion with the cause and tear the
				// pair down rather than carry on corrupting it.
				qp.sendCQ <- Completion{Err: err}
				qp.abort()
				return
			}
			qp.sendCQ <- Completion{Bytes: total}
		}
	}
}

// countingReader counts every Read call on the wire — each one is a
// kernel read — so frames assembled by io.ReadFull report their true
// syscall cost instead of a flat one-per-ReadFull guess. (Still a lower
// bound overall: reads that park on the netpoller retry after an epoll
// wake this layer cannot see.)
type countingReader struct{ qp *tcpQP }

func (r countingReader) Read(p []byte) (int, error) {
	atomic.AddInt64(&r.qp.syscalls, 1)
	return r.qp.conn.Read(p)
}

func (qp *tcpQP) recvLoop() {
	defer qp.wg.Done()
	cr := countingReader{qp}
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(cr, hdr[:]); err != nil {
			qp.failPendingRecv(err)
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		var limit int
		select {
		case limit = <-qp.recvPend:
		case <-qp.done:
			return
		}
		if n > limit {
			// Refused on the prefix alone, so a corrupt length can never
			// buy a 4 GiB buffer: report, then discard the body as it
			// streams in.
			qp.recvCQ <- Completion{Err: ErrTooLarge}
			io.CopyN(io.Discard, cr, int64(n))
			continue
		}
		// The body is read straight into a slab the receiver will own
		// until it recycles it: the kernel's copy out of the socket is
		// the only one, and a recycled slab is not even zeroed first.
		data := qp.slabs.get(n)
		if _, err := io.ReadFull(cr, data); err != nil {
			qp.recvCQ <- Completion{Err: err}
			return
		}
		qp.recvCQ <- Completion{Bytes: n, Data: data}
	}
}

func (qp *tcpQP) failPendingRecv(err error) {
	select {
	case <-qp.recvPend:
		select {
		case qp.recvCQ <- Completion{Err: err}:
		default:
		}
	default:
	}
}

func (qp *tcpQP) PostSend(mr *MemoryRegion, n int) error {
	if !mr.registered {
		return ErrNotRegistered
	}
	if n > len(mr.buf) {
		return ErrTooLarge
	}
	qp.mu.Lock()
	if qp.closed {
		qp.mu.Unlock()
		return ErrClosed
	}
	qp.mu.Unlock()
	select {
	case qp.sendQ <- net.Buffers{mr.buf[:n]}:
		return nil
	case <-qp.done:
		return ErrClosed
	}
}

// PostSendVec hands the parts to the send loop as they are, to be
// written with the frame header in one gather write.
func (qp *tcpQP) PostSendVec(bufs net.Buffers) error {
	qp.mu.Lock()
	if qp.closed {
		qp.mu.Unlock()
		return ErrClosed
	}
	qp.mu.Unlock()
	select {
	case qp.sendQ <- bufs:
		return nil
	case <-qp.done:
		return ErrClosed
	}
}

func (qp *tcpQP) PostRecv(limit int) error {
	qp.mu.Lock()
	if qp.closed {
		qp.mu.Unlock()
		return ErrClosed
	}
	qp.mu.Unlock()
	select {
	case qp.recvPend <- limit:
		return nil
	default:
		return ErrQueueFull
	}
}

func (qp *tcpQP) Recycle(data []byte) { qp.slabs.put(data) }

func (qp *tcpQP) SendCompletions() <-chan Completion { return qp.sendCQ }
func (qp *tcpQP) RecvCompletions() <-chan Completion { return qp.recvCQ }
func (qp *tcpQP) Done() <-chan struct{}              { return qp.done }

// WireCounters reports the write/read calls this layer issues, a lower
// bound on true kernel crossings: the netpoller's epoll_pwait and futex
// wakeups under each blocking read come on top and are not visible from
// here.
func (qp *tcpQP) WireCounters() WireCounters {
	return WireCounters{Syscalls: atomic.LoadInt64(&qp.syscalls)}
}

// abort tears the wire down without waiting for the loops, so the send
// loop can invoke it on a write failure (waiting there would deadlock on
// its own exit). Idempotent; Close finishes the teardown.
func (qp *tcpQP) abort() {
	qp.mu.Lock()
	if qp.closed {
		qp.mu.Unlock()
		return
	}
	qp.closed = true
	qp.mu.Unlock()
	close(qp.done)
	qp.closeErr = qp.conn.Close() // unblocks the receive loop
}

func (qp *tcpQP) Close() error {
	qp.abort()
	qp.closeOnce.Do(func() {
		qp.wg.Wait()
		close(qp.recvCQ)
	})
	return qp.closeErr
}

// ---------------------------------------------------------------------
// Figure 1: CPU-load model
// ---------------------------------------------------------------------

// Stack identifies the network processing architecture of Figure 1.
type Stack int

// The three compared configurations.
const (
	// LegacyStack does everything on the CPU: kernel TCP/IP, driver,
	// context switches, and intermediate data copies.
	LegacyStack Stack = iota
	// NICOffload moves TCP processing to the NIC but still copies data
	// between network buffers and application memory.
	NICOffload
	// RDMA places data directly in application memory: no copies, no
	// kernel involvement.
	RDMA
)

func (s Stack) String() string {
	switch s {
	case LegacyStack:
		return "everything-on-cpu"
	case NICOffload:
		return "network-stack-on-nic"
	case RDMA:
		return "rdma"
	}
	return fmt.Sprintf("stack(%d)", int(s))
}

// CPUBreakdown is the per-component CPU load (fraction of one core) for
// a given stack at a given throughput.
type CPUBreakdown struct {
	Stack           Stack
	NetworkStack    float64
	Driver          float64
	ContextSwitches float64
	DataCopying     float64
}

// Total sums the components.
func (b CPUBreakdown) Total() float64 {
	return b.NetworkStack + b.Driver + b.ContextSwitches + b.DataCopying
}

// CPUModel computes Figure 1's breakdown. It encodes the rule of thumb
// of §2.2 — about 1 GHz of CPU per 1 Gb/s of network throughput on a
// legacy stack — split over the cost components shown in the figure
// (data copying dominates), and the observation that offloading the
// stack alone does not remove the copy cost, while RDMA reduces local
// I/O overhead to nearly zero.
func CPUModel(stack Stack, gbps, cpuGHz float64) CPUBreakdown {
	if gbps < 0 || cpuGHz <= 0 {
		panic("rdma: invalid CPU model parameters")
	}
	// Legacy total load: 1 GHz per 1 Gb/s.
	legacyTotal := gbps / cpuGHz
	// Component shares of the legacy cost (after Figure 1 / [13]):
	const (
		copyShare   = 0.50
		stackShare  = 0.25
		driverShare = 0.15
		ctxShare    = 0.10
	)
	switch stack {
	case LegacyStack:
		return CPUBreakdown{
			Stack:           stack,
			NetworkStack:    legacyTotal * stackShare,
			Driver:          legacyTotal * driverShare,
			ContextSwitches: legacyTotal * ctxShare,
			DataCopying:     legacyTotal * copyShare,
		}
	case NICOffload:
		// Stack processing moves to the NIC; copies and (reduced)
		// driver/context costs remain.
		return CPUBreakdown{
			Stack:           stack,
			Driver:          legacyTotal * driverShare * 0.5,
			ContextSwitches: legacyTotal * ctxShare * 0.5,
			DataCopying:     legacyTotal * copyShare,
		}
	case RDMA:
		// Direct data placement: one DMA pass, no kernel, no copies.
		return CPUBreakdown{
			Stack:       stack,
			DataCopying: legacyTotal * 0.02, // residual completion handling
		}
	}
	panic("rdma: unknown stack")
}

// MemoryBusCrossings reports how many times a transferred byte crosses
// the memory bus under each stack (§2.2: the kernel stack crosses
// several times; RDMA exactly once).
func MemoryBusCrossings(stack Stack) int {
	switch stack {
	case LegacyStack:
		return 3
	case NICOffload:
		return 2
	case RDMA:
		return 1
	}
	return 0
}
