package rdma

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// Messenger turns a QueuePair into a reliable message stream: it owns a
// pool of registered send buffers, keeps the receive credits
// replenished, and exposes blocking Send/Recv over whole messages. This
// is the layer the live Data Cyclotron ring uses to move BATs and
// requests between neighbours, mirroring how the prototype would sit on
// RDMA verbs.
type Messenger struct {
	qp  QueuePair
	dev *Device

	maxMsg int

	// sendFree is the ring of registered send regions. Encoding happens
	// into a region with no lock held, so concurrent SendEncoded calls
	// only serialize on the post itself (sendMu orders PostSend against
	// the ticket FIFO — the completion queue is shared FIFO).
	sendFree chan *MemoryRegion
	sendMu   sync.Mutex

	// sendWindow bounds in-flight posted sends; sendPend carries one
	// ticket per posted send, in post order, for the dispatcher to pair
	// with wire completions (pendMu guards it: post pushes under sendMu
	// before the wire can complete the send, the dispatcher pops). The
	// window lets a sender post its next message while the transport is
	// still writing the previous ones, instead of waiting out a
	// post-complete round trip per message.
	sendWindow chan struct{}
	pendMu     sync.Mutex
	sendPend   []sendTicket

	poolAcquires int64 // atomic: send-region acquisitions
	poolWaits    int64 // atomic: acquisitions that had to block

	closeOnce sync.Once
}

// MessengerDepth is the default number of receive credits kept posted.
// With hop batching, one receive credit admits a whole multi-fragment
// batch, so a batching link can run a shallower queue (NewMessengerDepth)
// at the same fragment-level concurrency.
const MessengerDepth = 8

// MessengerSendRegions bounds the send-region pool size; the pool is
// additionally capped so total registered send bytes stay bounded
// (maxSendPoolBytes) when messages are large.
const MessengerSendRegions = 4

// MessengerSendWindow is how many posted sends may be in flight on the
// wire at once. Deeper than one so back-to-back hop envelopes pipeline;
// bounded so a slow link applies backpressure before unbounded memory
// queues behind it. Must not exceed a provider's internal send queue
// capacity, or a post could block while holding the order lock.
const MessengerSendWindow = 8

// sendTicket is one in-flight posted send: the dispatcher runs cleanup
// (send-region recycling) and then done when the send's wire completion
// arrives. The provider delivers send completions in post order, so a
// FIFO of tickets pairs them correctly.
type sendTicket struct {
	cleanup func()
	done    func(error)
}

// maxSendPoolBytes caps the total registered send-buffer bytes per
// messenger: registration is the expensive, pinned resource (§2.3), so
// large-message links get fewer regions rather than more pinned memory.
const maxSendPoolBytes = 8 << 20

// NewMessenger wraps qp with the default receive depth. maxMsg bounds
// the size of a single message; send buffers are registered once up
// front (the expensive operation §2.3 advises amortizing).
func NewMessenger(qp QueuePair, maxMsg int) (*Messenger, error) {
	return NewMessengerDepth(qp, maxMsg, MessengerDepth)
}

// NewMessengerDepth wraps qp keeping depth receive credits posted.
func NewMessengerDepth(qp QueuePair, maxMsg, depth int) (*Messenger, error) {
	if maxMsg <= 0 {
		return nil, fmt.Errorf("rdma: non-positive max message size")
	}
	if depth <= 0 {
		depth = MessengerDepth
	}
	m := &Messenger{qp: qp, dev: &Device{}, maxMsg: maxMsg}
	regions := MessengerSendRegions
	if cap := maxSendPoolBytes / maxMsg; cap < regions {
		regions = cap
	}
	if regions < 1 {
		regions = 1
	}
	pool := make([]*MemoryRegion, regions)
	for i := range pool {
		pool[i] = m.dev.RegisterMemory(maxMsg)
	}
	m.sendFree = make(chan *MemoryRegion, regions)
	for _, mr := range pool {
		m.sendFree <- mr
	}
	for i := 0; i < depth; i++ {
		if err := qp.PostRecv(maxMsg); err != nil {
			return nil, err
		}
	}
	m.sendWindow = make(chan struct{}, MessengerSendWindow)
	m.sendPend = make([]sendTicket, 0, MessengerSendWindow)
	go m.sendDispatch()
	return m, nil
}

// post acquires a window slot and posts the send (postSlot).
func (m *Messenger) post(send func() error, cleanup func(), done func(error)) error {
	select {
	case m.sendWindow <- struct{}{}:
	case <-m.qp.Done():
		return ErrClosed
	}
	return m.postSlot(send, cleanup, done)
}

// postSlot posts a send whose window slot the caller already holds,
// under the order lock. The ticket is enqueued before the send is
// posted — the wire may complete a send the instant it is accepted, and
// a completion that found no ticket would be dropped, leaving the sender
// waiting forever — and retired here if the post fails. On success the
// ticket owns cleanup/done: they run from the dispatcher when the
// completion lands. On error nothing was posted, the slot is released,
// and the caller keeps ownership of its buffers.
func (m *Messenger) postSlot(send func() error, cleanup func(), done func(error)) error {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	select {
	case <-m.qp.Done():
		// Checked under sendMu: the dispatcher's post-close drain also
		// takes sendMu, so a ticket enqueued here could be orphaned.
		<-m.sendWindow
		return ErrClosed
	default:
	}
	m.pendMu.Lock()
	m.sendPend = append(m.sendPend, sendTicket{cleanup: cleanup, done: done})
	m.pendMu.Unlock()
	if err := send(); err != nil {
		// Posts are serialized by sendMu and a rejected send produces no
		// completion, so the ticket is still there, and still the newest.
		m.pendMu.Lock()
		m.sendPend = m.sendPend[:len(m.sendPend)-1]
		m.pendMu.Unlock()
		<-m.sendWindow
		return err
	}
	return nil
}

// sendDispatch pairs wire completions with posted tickets, in order. It
// exits when the queue pair shuts down, first draining any completions
// that raced with the close and then failing leftover tickets so no
// caller waits forever and no refcounted buffer leaks.
func (m *Messenger) sendDispatch() {
	for {
		select {
		case c, ok := <-m.qp.SendCompletions():
			if !ok {
				m.failPending()
				return
			}
			m.finish(c.Err)
		case <-m.qp.Done():
			for {
				select {
				case c, ok := <-m.qp.SendCompletions():
					if ok {
						m.finish(c.Err)
						continue
					}
				default:
				}
				m.failPending()
				return
			}
		}
	}
}

// finish retires the oldest in-flight send with the given wire error;
// false means no send was in flight.
func (m *Messenger) finish(err error) bool {
	m.pendMu.Lock()
	if len(m.sendPend) == 0 {
		m.pendMu.Unlock()
		return false
	}
	t := m.sendPend[0]
	m.sendPend = append(m.sendPend[:0], m.sendPend[1:]...)
	m.pendMu.Unlock()
	<-m.sendWindow
	if t.cleanup != nil {
		t.cleanup()
	}
	if t.done != nil {
		t.done(err)
	}
	return true
}

// failPending retires every remaining ticket with ErrClosed. Runs after
// Done is closed; taking sendMu orders it against postSlot, which
// rejects new sends once Done is observable, so nothing is enqueued
// after the drain.
func (m *Messenger) failPending() {
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	for m.finish(ErrClosed) {
	}
}

// MaxMessage reports the configured message size bound.
func (m *Messenger) MaxMessage() int { return m.maxMsg }

// PoolStats reports send-region pool pressure: total acquisitions and
// how many of them found every region busy and had to block.
func (m *Messenger) PoolStats() (acquires, waits int64) {
	return atomic.LoadInt64(&m.poolAcquires), atomic.LoadInt64(&m.poolWaits)
}

// WireCounters reports the underlying queue pair's syscall-layer
// counters.
func (m *Messenger) WireCounters() WireCounters { return m.qp.WireCounters() }

// acquireRegion takes a free send region, counting contention.
func (m *Messenger) acquireRegion() (*MemoryRegion, error) {
	atomic.AddInt64(&m.poolAcquires, 1)
	select {
	case mr := <-m.sendFree:
		return mr, nil
	default:
	}
	atomic.AddInt64(&m.poolWaits, 1)
	select {
	case mr := <-m.sendFree:
		return mr, nil
	case <-m.qp.Done():
		return nil, ErrClosed
	}
}

// Send transmits one message, blocking until the NIC (emulated) has
// taken it.
func (m *Messenger) Send(data []byte) error {
	return m.SendEncoded(len(data), func(dst []byte) int {
		return copy(dst, data)
	})
}

// SendEncoded transmits one message of at most size bytes, letting the
// caller encode it directly into a registered send region — no
// intermediate buffer, no per-send allocation, and the region's
// registration cost stays amortized over every message (§2.3). encode
// receives a size-byte window of the region and returns how many bytes
// it actually wrote. Concurrent senders encode into distinct pool
// regions in parallel and serialize only on the wire.
func (m *Messenger) SendEncoded(size int, encode func(dst []byte) int) error {
	ch := make(chan error, 1)
	if err := m.SendEncodedAsync(size, encode, func(err error) { ch <- err }); err != nil {
		return err
	}
	select {
	case err := <-ch:
		return err
	case <-m.qp.Done():
		return ErrClosed
	}
}

// SendEncodedAsync is SendEncoded that returns once the message is
// posted to the wire instead of waiting for its completion: done(err)
// runs later, from the completion dispatcher, in send order. Up to
// MessengerSendWindow posts may be in flight, so a burst of messages
// pipelines onto the wire; when the window is full the call blocks
// (backpressure), preserving the bounded-memory property of the
// blocking path.
func (m *Messenger) SendEncodedAsync(size int, encode func(dst []byte) int, done func(error)) error {
	if size > m.maxMsg {
		return ErrTooLarge
	}
	if size < 0 {
		return fmt.Errorf("rdma: negative message size %d", size)
	}
	mr, err := m.acquireRegion()
	if err != nil {
		return err
	}
	n := encode(mr.Bytes()[:size])
	if n < 0 || n > size {
		m.sendFree <- mr
		return fmt.Errorf("rdma: encoder wrote %d bytes into a %d-byte window", n, size)
	}
	err = m.post(
		func() error { return m.qp.PostSend(mr, n) },
		func() { m.sendFree <- mr },
		done,
	)
	if err != nil {
		m.sendFree <- mr
	}
	return err
}

// TrySendEncoded is SendEncoded without any blocking wait to start: if
// no send region is free right now, or any send is already in flight
// on the wire, it returns ErrQueueFull immediately. Control traffic
// that must never stall behind bulk data — the membership heartbeat
// multiplexed onto the data link — uses this; a pulse that cannot get
// through is simply dropped (the next interval sends another, and the
// failure detector tolerates missed beats by design). The idle-wire
// check matters as much as the region check: with the pipelined send
// window, a heartbeat that queued behind megabytes of in-flight hop
// envelopes would inherit their latency — long enough, on a loaded
// single-core box, for the silent sender to be declared dead.
func (m *Messenger) TrySendEncoded(size int, encode func(dst []byte) int) error {
	if size > m.maxMsg {
		return ErrTooLarge
	}
	if size < 0 {
		return fmt.Errorf("rdma: negative message size %d", size)
	}
	var mr *MemoryRegion
	select {
	case mr = <-m.sendFree:
		atomic.AddInt64(&m.poolAcquires, 1)
	default:
		return ErrQueueFull
	}
	n := encode(mr.Bytes()[:size])
	if n < 0 || n > size {
		m.sendFree <- mr
		return fmt.Errorf("rdma: encoder wrote %d bytes into a %d-byte window", n, size)
	}
	// Claim a window slot without blocking, then insist it is the only
	// one: a lone slot means the wire was idle, so this pulse's
	// completion is the next one due. The len check races with
	// concurrent posts, but a dropped pulse is the designed outcome of
	// a busy wire either way.
	select {
	case m.sendWindow <- struct{}{}:
	default:
		m.sendFree <- mr
		return ErrQueueFull
	}
	if len(m.sendWindow) > 1 {
		<-m.sendWindow
		m.sendFree <- mr
		return ErrQueueFull
	}
	ch := make(chan error, 1)
	err := m.postSlot(
		func() error { return m.qp.PostSend(mr, n) },
		func() { m.sendFree <- mr },
		func(err error) { ch <- err },
	)
	if err != nil {
		m.sendFree <- mr
		return err
	}
	select {
	case err := <-ch:
		return err
	case <-m.qp.Done():
		return ErrClosed
	}
}

// SendVectored transmits one message gathered from several byte slices
// — the ring-hop path. The parts go to the transport as they are (one
// gather write, no assembly copy), so they must stay valid and
// unmodified until SendVectored returns (the live ring sends a fragment
// version's own immutable wire bytes, holding the slab they sit in
// until the send completes — its pre-registered buffers). The receiver
// sees a single contiguous message equal to the concatenation of the
// parts.
func (m *Messenger) SendVectored(parts [][]byte) error {
	ch := make(chan error, 1)
	if err := m.SendVectoredAsync(parts, func(err error) { ch <- err }); err != nil {
		return err
	}
	select {
	case err := <-ch:
		return err
	case <-m.qp.Done():
		return ErrClosed
	}
}

// SendVectoredAsync is SendVectored that returns once the message is
// posted: the parts must stay valid and unmodified until done(err)
// runs, from the completion dispatcher, in send order. The hop flush
// loop uses this so a revolution's worth of envelopes pipelines onto
// the wire instead of paying a full post-complete round trip per
// envelope.
func (m *Messenger) SendVectoredAsync(parts [][]byte, done func(error)) error {
	total := 0
	bufs := make(net.Buffers, 0, len(parts))
	for _, p := range parts {
		total += len(p)
		if len(p) > 0 {
			bufs = append(bufs, p)
		}
	}
	if total > m.maxMsg {
		return ErrTooLarge
	}
	return m.post(func() error { return m.qp.PostSendVec(bufs) }, nil, done)
}

// Recv blocks for the next message and returns it in the slab the
// transport received it into, without a copy: the caller owns it, and
// may hand it back with Recycle once nothing reads it any more.
func (m *Messenger) Recv() ([]byte, error) {
	c, ok := <-m.qp.RecvCompletions()
	if !ok {
		return nil, ErrClosed
	}
	err := m.qp.PostRecv(m.maxMsg) // replenish the credit c spent
	if c.Err != nil {
		return nil, c.Err
	}
	if err != nil && err != ErrClosed {
		return c.Data, err
	}
	return c.Data, nil
}

// Recycle returns a message Recv handed out, whole, to the receiving
// endpoint's free list, so a later message of the same size lands in it
// instead of in fresh memory (QueuePair.Recycle). The caller gives up
// every view of it.
func (m *Messenger) Recycle(data []byte) { m.qp.Recycle(data) }

// Close tears down the underlying queue pair.
func (m *Messenger) Close() error {
	var err error
	m.closeOnce.Do(func() { err = m.qp.Close() })
	return err
}
