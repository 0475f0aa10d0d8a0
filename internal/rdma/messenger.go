package rdma

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// Messenger is one end of a ring link: a reliable, ordered stream of
// whole messages over a connection, each framed by a 4-byte big-endian
// length prefix. It runs no goroutine. A send writes its message —
// prefix and every part — to the kernel as one gather write
// (net.Buffers → writev) on the sender's own goroutine, straight from
// the sender's memory, under the write mutex, and returns once the
// message is written. Recv reads on the caller's goroutine, straight
// into a slab of the endpoint's receive memory, so neither direction
// copies in user space. One goroutine at a time may call Recv; the
// socket buffer is the receive window.
type Messenger struct {
	conn   net.Conn
	maxMsg int

	// sendFree is the pool of send regions SendEncoded encodes into; a
	// region comes back as soon as its message's write returns.
	sendFree chan []byte

	// wmu serializes writes, so messages never interleave on the wire.
	// prefix and bufs, the length prefix and the gather array of the
	// message being written, are only touched under it.
	wmu    sync.Mutex
	prefix [4]byte
	bufs   net.Buffers

	closed atomic.Bool

	slabs slabPool
	// hdr and skip are Recv's: the length prefix being read, and the
	// body bytes of a refused message still to discard.
	hdr  [4]byte
	skip int64

	writes   atomic.Int64 // writes issued under wmu
	waits    atomic.Int64 // sends that found wmu held and waited for it
	syscalls atomic.Int64 // write/read calls issued (lower bound, see Syscalls)
}

// MessengerSendRegions bounds the send-region pool size; the pool is
// additionally capped so total send-region bytes stay bounded
// (maxSendPoolBytes) when messages are large.
const MessengerSendRegions = 4

// maxSendPoolBytes caps the total send-region bytes per messenger, so
// large-message links get fewer regions rather than more memory.
const maxSendPoolBytes = 8 << 20

// NewMessenger makes conn a link endpoint whose messages are at most
// maxMsg bytes. The messenger owns conn from here on: Close closes it.
// The send regions are allocated here, once, and reused by every
// SendEncoded (the amortization §2.3 advises).
func NewMessenger(conn net.Conn, maxMsg int) (*Messenger, error) {
	if maxMsg <= 0 {
		return nil, fmt.Errorf("rdma: non-positive max message size")
	}
	regions := max(1, min(MessengerSendRegions, maxSendPoolBytes/maxMsg))
	m := &Messenger{
		conn:     conn,
		maxMsg:   maxMsg,
		sendFree: make(chan []byte, regions),
	}
	for i := 0; i < regions; i++ {
		m.sendFree <- make([]byte, maxMsg)
	}
	return m, nil
}

// write sends one message of total bytes gathered from parts, under
// wmu. With try it returns ErrQueueFull rather than wait for a held
// wmu. A closed messenger refuses with ErrClosed.
func (m *Messenger) write(parts [][]byte, total int, try bool) error {
	if !m.wmu.TryLock() {
		if try {
			return ErrQueueFull
		}
		m.waits.Add(1)
		m.wmu.Lock()
	}
	defer m.wmu.Unlock()
	if m.closed.Load() {
		return ErrClosed
	}
	m.writes.Add(1)
	m.syscalls.Add(1)
	binary.BigEndian.PutUint32(m.prefix[:], uint32(total))
	// WriteTo consumes bufs and loops on short writes; m.bufs keeps the
	// array for the next message.
	bufs := append(append(m.bufs[:0], m.prefix[:]), parts...)
	m.bufs = bufs[:0]
	_, err := bufs.WriteTo(m.conn)
	clear(m.bufs[:len(parts)+1])
	if err != nil {
		// A short or failed write leaves the peer mid-frame with no way
		// to resynchronize the length-prefixed stream: tear the link
		// down, before the sender hears of it, rather than carry on
		// corrupting it.
		m.Close()
	}
	return err
}

// MaxMessage reports the configured message size bound.
func (m *Messenger) MaxMessage() int { return m.maxMsg }

// WriteStats reports write pressure: how many writes the endpoint
// issued, and how many sends found the write mutex held and waited for
// it. A TrySendEncoded that gives up counts as neither.
func (m *Messenger) WriteStats() (writes, waits int64) {
	return m.writes.Load(), m.waits.Load()
}

// Syscalls reports the write and read calls the endpoint has issued:
// one per gather write and one per conn.Read. It is a lower bound on
// kernel crossings, since the netpoller's epoll and futex traffic
// under each blocking call comes on top and is not visible here.
func (m *Messenger) Syscalls() int64 { return m.syscalls.Load() }

// Send transmits one message, blocking until it is written.
func (m *Messenger) Send(data []byte) error {
	return m.SendEncoded(len(data), func(dst []byte) int {
		return copy(dst, data)
	})
}

// SendEncoded transmits one message of at most size bytes, letting the
// caller encode it directly into a send region — no intermediate
// buffer, no per-send allocation. encode receives a size-byte window of
// the region and returns how many bytes it actually wrote. Concurrent
// senders encode into distinct regions in parallel and serialize only
// on the wire. It returns once the message is written.
func (m *Messenger) SendEncoded(size int, encode func(dst []byte) int) error {
	return m.sendEncoded(size, encode, false)
}

// TrySendEncoded is SendEncoded without any blocking wait: if no send
// region is free right now, or another send holds the write mutex, it
// returns ErrQueueFull immediately. Control traffic that must never
// stall behind bulk data — the membership heartbeat multiplexed onto
// the data link — uses this; a pulse that cannot get through is simply
// dropped (the next interval sends another, and the failure detector
// tolerates missed beats by design). The mutex check matters as much as
// the region check: a heartbeat written behind megabytes of hop
// envelopes would inherit their latency — long enough, on a loaded
// single-core box, for the silent sender to be declared dead.
func (m *Messenger) TrySendEncoded(size int, encode func(dst []byte) int) error {
	return m.sendEncoded(size, encode, true)
}

func (m *Messenger) sendEncoded(size int, encode func(dst []byte) int, try bool) error {
	if size > m.maxMsg {
		return ErrTooLarge
	}
	if size < 0 {
		return fmt.Errorf("rdma: negative message size %d", size)
	}
	var region []byte
	select {
	case region = <-m.sendFree:
	default:
		if try {
			return ErrQueueFull
		}
		// Every region comes back once its write returns, and Close
		// makes a write in progress return, so this wait ends.
		region = <-m.sendFree
	}
	defer func() { m.sendFree <- region }()
	n := encode(region[:size])
	if n < 0 || n > size {
		return fmt.Errorf("rdma: encoder wrote %d bytes into a %d-byte window", n, size)
	}
	return m.write([][]byte{region[:n]}, n, try)
}

// SendVectored transmits one message gathered from parts — the
// ring-hop path — and returns once it is written: the parts go to the
// kernel as they are (one gather write, no assembly copy), and are the
// caller's again when it returns. The receiver sees the concatenation
// of the parts. A send waits for the write mutex while another send
// is being written (backpressure).
func (m *Messenger) SendVectored(parts [][]byte) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > m.maxMsg {
		return ErrTooLarge
	}
	return m.write(parts, total, false)
}

// countingReader counts every Read call on the connection — each one
// is a kernel read — so a message assembled by io.ReadFull reports its
// true syscall cost.
type countingReader struct{ m *Messenger }

func (r countingReader) Read(p []byte) (int, error) {
	r.m.syscalls.Add(1)
	return r.m.conn.Read(p)
}

// Recv reads the next message and returns it in a slab of the
// endpoint's receive memory, without a copy: the caller owns it, and
// may hand it back with Recycle once nothing reads it any more. A
// message longer than MaxMessage is refused with ErrTooLarge on its
// length prefix, before any slab is taken; the next Recv discards its
// body. After a peer's hang-up Recv returns the connection's error
// (io.EOF) every time; after Close, ErrClosed. Only one goroutine may
// call Recv at a time.
func (m *Messenger) Recv() ([]byte, error) {
	r := countingReader{m}
	if m.skip > 0 {
		n, err := io.CopyN(io.Discard, r, m.skip)
		m.skip -= n
		if err != nil {
			return nil, m.recvErr(err)
		}
	}
	if _, err := io.ReadFull(r, m.hdr[:]); err != nil {
		return nil, m.recvErr(err)
	}
	n := int64(binary.BigEndian.Uint32(m.hdr[:]))
	if n > int64(m.maxMsg) {
		m.skip = n
		return nil, ErrTooLarge
	}
	// The kernel's copy out of the socket is the only one, and a
	// recycled slab is not even zeroed first.
	data := m.slabs.get(int(n))
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, m.recvErr(err)
	}
	return data, nil
}

// recvErr reports a failed read as ErrClosed once the messenger is
// closed, and as the connection's own error (io.EOF on a hang-up)
// before that.
func (m *Messenger) recvErr(err error) error {
	if m.closed.Load() {
		return ErrClosed
	}
	return err
}

// Recycle returns a message Recv handed out, whole, to the endpoint's
// free list, so a later message of a fitting size lands in it instead
// of in fresh memory. The caller gives up every view of it. A message
// that is never recycled is left to the GC.
func (m *Messenger) Recycle(data []byte) { m.slabs.put(data) }

// Close closes the connection and returns: a Recv in progress fails
// with ErrClosed, a write in progress with the write's error, and every
// send still waiting for the write mutex or a send region with
// ErrClosed. It reports the connection's Close error the first time
// and nil after.
func (m *Messenger) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	return m.conn.Close()
}
