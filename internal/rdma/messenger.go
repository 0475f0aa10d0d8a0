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
// length prefix. It runs one goroutine, the send loop, which drains a
// bounded queue of accepted sends: each message — prefix and every
// part — goes to the kernel as one gather write (net.Buffers → writev)
// straight from the sender's memory, and then its callback runs, in
// send order. Recv reads on the caller's goroutine, straight into a
// slab of the endpoint's receive memory, so neither direction copies
// in user space. One goroutine at a time may call Recv; the socket
// buffer is the receive window.
type Messenger struct {
	conn   net.Conn
	maxMsg int

	// sendFree is the pool of send regions SendEncoded encodes into;
	// the send loop returns a region once its message is written.
	sendFree chan []byte

	mu   sync.Mutex
	cond sync.Cond // broadcast when queue or closed change
	// queue holds the accepted sends, oldest first, at most
	// MessengerSendWindow; the send loop leaves the one it is writing
	// at its head until the write returns.
	queue  []sendReq
	closed bool
	// loopDone is closed when the send loop has run its last callback.
	loopDone chan struct{}

	slabs slabPool
	// hdr and skip are Recv's: the length prefix being read, and the
	// body bytes of a refused message still to discard.
	hdr  [4]byte
	skip int64

	slotTakes atomic.Int64 // sends accepted onto the queue
	slotWaits atomic.Int64 // of those, the ones that found it full
	syscalls  atomic.Int64 // write/read calls issued (lower bound, see Syscalls)
}

// sendReq is one accepted send: the parts of its message, the send
// region to return to the pool once written (nil for a vectored send),
// and the callback to run with the outcome.
type sendReq struct {
	parts  [][]byte
	region []byte
	done   func(error)
}

// MessengerSendRegions bounds the send-region pool size; the pool is
// additionally capped so total send-region bytes stay bounded
// (maxSendPoolBytes) when messages are large.
const MessengerSendRegions = 4

// MessengerSendWindow is how many accepted sends may be in flight,
// queued or being written. Deeper than one so back-to-back hop
// envelopes pipeline; bounded so a slow link applies backpressure
// before unbounded memory queues behind it.
const MessengerSendWindow = 8

// maxSendPoolBytes caps the total send-region bytes per messenger, so
// large-message links get fewer regions rather than more memory.
const maxSendPoolBytes = 8 << 20

// NewMessenger makes conn a link endpoint whose messages are at most
// maxMsg bytes, and starts its send loop. The messenger owns conn from
// here on: Close closes it. The send regions are allocated here, once,
// and reused by every SendEncoded (the amortization §2.3 advises).
func NewMessenger(conn net.Conn, maxMsg int) (*Messenger, error) {
	if maxMsg <= 0 {
		return nil, fmt.Errorf("rdma: non-positive max message size")
	}
	regions := max(1, min(MessengerSendRegions, maxSendPoolBytes/maxMsg))
	m := &Messenger{
		conn:     conn,
		maxMsg:   maxMsg,
		sendFree: make(chan []byte, regions),
		queue:    make([]sendReq, 0, MessengerSendWindow),
		loopDone: make(chan struct{}),
	}
	for i := 0; i < regions; i++ {
		m.sendFree <- make([]byte, maxMsg)
	}
	m.cond.L = &m.mu
	go m.sendLoop()
	return m, nil
}

// sendLoop writes the queued sends in order until the messenger
// closes, then fails whatever is still queued with ErrClosed: every
// accepted send's callback runs exactly once.
func (m *Messenger) sendLoop() {
	defer close(m.loopDone)
	var hdr [4]byte
	var scratch net.Buffers
	m.mu.Lock()
	for {
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			break
		}
		req := m.queue[0]
		m.mu.Unlock()

		total := 0
		for _, p := range req.parts {
			total += len(p)
		}
		binary.BigEndian.PutUint32(hdr[:], uint32(total))
		// WriteTo consumes bufs and loops on short writes; scratch keeps
		// the array for the next message.
		bufs := append(append(scratch[:0], hdr[:]), req.parts...)
		scratch = bufs[:0]
		m.syscalls.Add(1)
		_, err := bufs.WriteTo(m.conn)
		clear(scratch[:len(req.parts)+1])

		m.mu.Lock()
		n := copy(m.queue, m.queue[1:])
		m.queue[n] = sendReq{}
		m.queue = m.queue[:n]
		m.cond.Broadcast() // a slot is free
		if err != nil {
			// A short or failed write leaves the peer mid-frame with no
			// way to resynchronize the length-prefixed stream: tear the
			// link down, before the sender hears of it, rather than
			// carry on corrupting it.
			m.abortLocked()
		}
		m.mu.Unlock()
		m.complete(req, err)
		m.mu.Lock()
	}
	queued := m.queue
	m.queue = nil
	m.mu.Unlock()
	for _, req := range queued {
		m.complete(req, ErrClosed)
	}
}

// complete returns a send's region to the pool and runs its callback.
func (m *Messenger) complete(req sendReq, err error) {
	if req.region != nil {
		m.sendFree <- req.region
	}
	if req.done != nil {
		req.done(err)
	}
}

// enqueue accepts a send for the send loop, which from then on owns
// its parts and region and runs its callback. A full queue makes it
// wait for a slot; with try it only accepts onto an idle link (nothing
// queued, nothing being written) and otherwise returns ErrQueueFull.
// On error nothing was accepted and the caller keeps ownership.
func (m *Messenger) enqueue(req sendReq, try bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed && try && len(m.queue) > 0 {
		return ErrQueueFull
	}
	if !m.closed && len(m.queue) == MessengerSendWindow {
		m.slotWaits.Add(1)
		for !m.closed && len(m.queue) == MessengerSendWindow {
			m.cond.Wait()
		}
	}
	if m.closed {
		return ErrClosed
	}
	m.slotTakes.Add(1)
	m.queue = append(m.queue, req)
	m.cond.Broadcast()
	return nil
}

// abortLocked marks the messenger closed, wakes the send loop and every
// waiting sender, and closes the connection, which unblocks a write in
// progress and a Recv. It reports the connection's Close error the
// first time and nil after.
func (m *Messenger) abortLocked() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.cond.Broadcast()
	return m.conn.Close()
}

// MaxMessage reports the configured message size bound.
func (m *Messenger) MaxMessage() int { return m.maxMsg }

// QueueStats reports send-queue pressure: how many sends the queue
// accepted, and how many of those found it full and had to wait.
func (m *Messenger) QueueStats() (takes, waits int64) {
	return m.slotTakes.Load(), m.slotWaits.Load()
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

// TrySendEncoded is SendEncoded without any blocking wait to start: if
// no send region is free right now, or any send is queued or being
// written, it returns ErrQueueFull immediately. Control traffic that
// must never stall behind bulk data — the membership heartbeat
// multiplexed onto the data link — uses this; a pulse that cannot get
// through is simply dropped (the next interval sends another, and the
// failure detector tolerates missed beats by design). The idle-link
// check matters as much as the region check: a heartbeat queued behind
// megabytes of hop envelopes would inherit their latency — long enough,
// on a loaded single-core box, for the silent sender to be declared
// dead.
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
		select {
		case region = <-m.sendFree:
		case <-m.loopDone:
			return ErrClosed
		}
	}
	n := encode(region[:size])
	if n < 0 || n > size {
		m.sendFree <- region
		return fmt.Errorf("rdma: encoder wrote %d bytes into a %d-byte window", n, size)
	}
	sent := make(chan error, 1)
	req := sendReq{parts: [][]byte{region[:n]}, region: region, done: func(err error) { sent <- err }}
	if err := m.enqueue(req, try); err != nil {
		m.sendFree <- region
		return err
	}
	return <-sent
}

// SendVectoredAsync transmits one message gathered from parts — the
// ring-hop path — and returns once the send is accepted. The parts go
// to the kernel as they are (one gather write, no assembly copy), so
// they must stay valid and unmodified until done(err) runs, from the
// send loop, in send order; done may be nil. The receiver sees the
// concatenation of the parts. When MessengerSendWindow sends are
// already in flight the call waits for a slot (backpressure). On error
// the send was not accepted and done does not run.
func (m *Messenger) SendVectoredAsync(parts [][]byte, done func(error)) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > m.maxMsg {
		return ErrTooLarge
	}
	return m.enqueue(sendReq{parts: parts, done: done}, false)
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
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	return err
}

// Recycle returns a message Recv handed out, whole, to the endpoint's
// free list, so a later message of a fitting size lands in it instead
// of in fresh memory. The caller gives up every view of it. A message
// that is never recycled is left to the GC.
func (m *Messenger) Recycle(data []byte) { m.slabs.put(data) }

// Close closes the connection, which unblocks a Recv in progress, and
// waits for the send loop to exit: a send being written fails with the
// write's error, every queued one with ErrClosed, each callback run
// exactly once. Close must not be called from a send callback.
func (m *Messenger) Close() error {
	m.mu.Lock()
	err := m.abortLocked()
	m.mu.Unlock()
	<-m.loopDone
	return err
}
