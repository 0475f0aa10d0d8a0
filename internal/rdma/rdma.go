// Package rdma is the Data Cyclotron's ring transport and the model
// behind Figure 1. Real RDMA hardware is not available in this
// environment, so the package provides:
//
//   - Messenger, the one link endpoint: an asynchronous, ordered,
//     point-to-point message stream between ring neighbours over a
//     loopback tcp connection (NewTCPPair), which is all the Data
//     Cyclotron protocols rely on. It keeps what §2.3 asks of RDMA
//     where tcp allows: send memory is allocated once and reused, a
//     message goes to the kernel straight from the sender's memory and
//     comes back straight into recycled receive memory, with no copy
//     in user space on either side;
//   - the analytical CPU-load model behind Figure 1, quantifying why
//     only full RDMA (not mere NIC offload) removes the local I/O
//     bottleneck.
package rdma

import (
	"errors"
	"fmt"
	"net"
)

// Errors returned by the transport.
var (
	ErrClosed    = errors.New("rdma: link closed")
	ErrTooLarge  = errors.New("rdma: message exceeds the link's size bound")
	ErrQueueFull = errors.New("rdma: send queue busy")
)

// NewTCPPair returns both ends of a fresh loopback tcp connection, so
// every message really crosses the kernel socket layer; NewMessenger
// turns each into a link endpoint. It is the one way a ring link is
// built. The dialing end sets SO_REUSEADDR before it connects, and
// Nagle's algorithm is off on both.
func NewTCPPair() (net.Conn, net.Conn, error) {
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
