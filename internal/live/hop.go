package live

// The hop scheduler batches outbound ring traffic. Without it, every
// fragment the runtime forwards costs one messenger send — one wire
// message, one receiver wakeup — and fragmentation multiplied that
// count 16-64×. The scheduler instead parks outbound fragments in
// a per-node queue for a very short window and flushes them as one v3
// batch envelope per neighbour hop:
// the interconnect sees few, large transfers (the regime the Data
// Cyclotron paper says the ring needs) while per-fragment latency pays
// at most the linger.
//
// Every data hop goes through it: at HopBatchBytes 0 a batch is one
// entry and the loop does not linger, so each fragment travels alone.
//
// The queue is an unbounded mutex-guarded slice, not a channel: the
// node applies the runtime's sends with its lock held, so an enqueue
// that could block would deadlock against the flush loop. Backpressure
// exists anyway — queued bytes count into outBytes, which feeds
// QueueLoad and thus the runtime's LOIT adaptation.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rdma"
)

// HopStats counts ring-hop transport work on one node (or summed over a
// ring): how many wire messages the node's forwards cost, how well
// batches filled, and how much circulation the LOI pacing suppressed.
type HopStats struct {
	// Msgs is the number of data wire messages sent (singles + batches).
	Msgs int64
	// Singles counts one-fragment messages (exact v2 envelopes).
	Singles int64
	// Batches counts multi-fragment v3 envelopes.
	Batches int64
	// Frags is the number of fragments forwarded (each batch counts its
	// entries), so Frags/Msgs is the mean hop fill.
	Frags int64
	// Fill is the batch fill histogram: messages carrying 1, 2, 3-4,
	// 5-8, 9-16, 17-32, 33-64, >64 fragments.
	Fill [8]int64
	// Bytes is the total data bytes sent; MaxMsg the largest single
	// message.
	Bytes  int64
	MaxMsg int64
	// Parked is the number of fragments currently held at their owner by
	// LOI pacing; ParkedTotal/Unparked count park and re-admit events.
	Parked      int
	ParkedTotal int64
	Unparked    int64
	// PoolAcquires/PoolWaits count the data messenger's writes, and the
	// sends that found its write mutex held and waited for it — every
	// hop send is one write, so waits > 0 means the node's senders
	// contended for its link (rdma.Messenger.WriteStats).
	PoolAcquires int64
	PoolWaits    int64
	// WireSyscalls counts the write/read calls on the node's data-link
	// endpoints (out + in) — a lower bound, netpoller wakeups come on
	// top; WireSyscalls/Msgs is the syscalls-per-hop figure.
	WireSyscalls int64
}

// Merge folds another node's snapshot into s. Every field sums except
// MaxMsg, which takes the max.
func (s *HopStats) Merge(o HopStats) {
	s.Msgs += o.Msgs
	s.Singles += o.Singles
	s.Batches += o.Batches
	s.Frags += o.Frags
	for i := range s.Fill {
		s.Fill[i] += o.Fill[i]
	}
	s.Bytes += o.Bytes
	s.MaxMsg = max(s.MaxMsg, o.MaxMsg)
	s.Parked += o.Parked
	s.ParkedTotal += o.ParkedTotal
	s.Unparked += o.Unparked
	s.PoolAcquires += o.PoolAcquires
	s.PoolWaits += o.PoolWaits
	s.WireSyscalls += o.WireSyscalls
}

// fillBucket maps a batch entry count onto a Fill histogram index.
func fillBucket(frags int) int {
	switch {
	case frags <= 1:
		return 0
	case frags == 2:
		return 1
	case frags <= 4:
		return 2
	case frags <= 8:
		return 3
	case frags <= 16:
		return 4
	case frags <= 32:
		return 5
	case frags <= 64:
		return 6
	}
	return 7
}

// hopEntry is one queued outbound fragment version and its ring header.
// The entry holds the fragment's slab from the enqueue until its write
// returns, which is what makes handing its wire bytes to a vectored
// write safe.
type hopEntry struct {
	m core.BATMsg
	f *fragment
}

// hopLinger is how long the flush loop waits for more co-resident
// fragments before it flushes a partial batch. Only the first fragment
// of a batch pays it, so it stays well under the query latencies it
// protects.
const hopLinger = 200 * time.Microsecond

// outQueue is an unbounded FIFO its producers never block on: they
// enqueue with n.mu held, and a queue that could fill would deadlock
// against the goroutine that drains it. wake (capacity 1) tells that
// goroutine the queue went non-empty.
type outQueue[T any] struct {
	mu    sync.Mutex
	items []T
	wake  chan struct{}
}

func (q *outQueue[T]) enqueue(v T) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// take pops the first fit(items) items, or every item when fit is nil;
// nil when the queue is empty.
func (q *outQueue[T]) take(fit func([]T) int) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return nil
	}
	n := len(q.items)
	if fit != nil {
		n = fit(q.items)
	}
	out := make([]T, n)
	copy(out, q.items[:n])
	// Slide the remainder down; the backing array is reused.
	rest := copy(q.items, q.items[n:])
	clear(q.items[rest:])
	q.items = q.items[:rest]
	return out
}

// hopScheduler owns one node's outbound data queue and flush policy.
type hopScheduler struct {
	budget int // flush when a batch would exceed this many wire bytes
	outQueue[hopEntry]
}

func newHopScheduler(budget int) *hopScheduler {
	return &hopScheduler{budget: budget, outQueue: outQueue[hopEntry]{wake: make(chan struct{}, 1)}}
}

// take pops the next batch off the queue: up to maxHopBatchFrags
// entries whose combined batch wire size stays within budget. The first
// entry is always taken — an oversized fragment still has to travel,
// and it goes as a v2 single.
func (hs *hopScheduler) take() []hopEntry {
	return hs.outQueue.take(func(queue []hopEntry) int {
		wire := batchHdrSize + batchEntryWire(len(queue[0].f.wire()))
		n := 1
		for n < len(queue) && n < maxHopBatchFrags {
			next := batchEntryWire(len(queue[n].f.wire()))
			if wire+next > hs.budget {
				break
			}
			wire += next
			n++
		}
		return n
	})
}

// hopLoop is the node's flush goroutine: it sleeps until fragments are
// queued, lingers briefly so co-resident fragments coalesce (when it
// batches), and sends the queue as batch envelopes. On shutdown it
// drops the queue, releasing the slab holds the enqueues took.
func (n *Node) hopLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	hs := n.hop
	for {
		select {
		case <-n.closed:
			n.releaseHops(hs.outQueue.take(nil))
			return
		case <-hs.wake:
		}
		if hs.budget > 0 {
			time.Sleep(hopLinger)
		}
		for batch := hs.take(); len(batch) > 0; batch = hs.take() {
			n.flushHopBatch(batch)
		}
	}
}

// releaseHops drops the slab holds and queued bytes of entries that
// were sent or will not be.
func (n *Node) releaseHops(batch []hopEntry) {
	for _, e := range batch {
		atomic.AddInt64(&n.outBytes, -int64(e.m.Size))
		e.f.slab.release()
	}
}

// flushHopBatch writes one batch to the data link and then releases its
// entries' slab holds, whatever the outcome. A one-entry batch goes out
// as the exact v2 single-fragment message — the batched and unbatched
// configurations differ only when batching actually coalesced
// something, so HopBatchBytes=0 sends exactly the pre-batching ring's
// messages.
//
// Either way the message is a vectored send of freshly encoded headers
// and each fragment's own wire bytes: no user-space copy, the kernel
// reads the payload where the version keeps it — the slab it arrived
// in, or the owner's marshalled bytes. The send returns once the
// message is written, so the holds keep the payload slices valid for
// exactly as long as the write reads them. Its caller, the flush loop,
// never holds n.mu: a write that blocks on a slow link cannot close a
// lock cycle around the ring.
func (n *Node) flushHopBatch(batch []hopEntry) {
	defer n.releaseHops(batch)
	select {
	case <-n.closed:
		return
	default:
	}
	var parts [][]byte
	if len(batch) == 1 {
		e := batch[0]
		raw := e.f.wire()
		hdr := make([]byte, dataHdrSize)
		encodeDataHdr(hdr, e.m, e.f.ver, len(raw))
		parts = [][]byte{hdr, raw}
	} else {
		hdr := make([]byte, batchHdrSize+len(batch)*dataHdrSize)
		hdr[0], hdr[1], hdr[2], hdr[3] = envMagic0, envMagic1, envVersionBatch, envKindBatch
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(batch)))
		var zeros [8]byte
		parts = make([][]byte, 0, 1+2*len(batch))
		parts = append(parts, hdr)
		for i, e := range batch {
			raw := e.f.wire()
			encodeDataHdr(hdr[batchHdrSize+i*dataHdrSize:], e.m, e.f.ver, len(raw))
			parts = append(parts, raw)
			if pad := pad8(len(raw)) - len(raw); pad > 0 {
				parts = append(parts, zeros[:pad])
			}
		}
	}
	var wire int64
	for _, p := range parts {
		wire += int64(len(p))
	}
	n.countHopMsg(wire, len(batch))
	n.link(&n.dataOut).SendVectored(parts)
}

// countHopMsg records one outbound data message of the given wire size
// carrying frags fragments.
func (n *Node) countHopMsg(wire int64, frags int) {
	atomic.AddInt64(&n.hopMsgs, 1)
	atomic.AddInt64(&n.hopFrags, int64(frags))
	if frags > 1 {
		atomic.AddInt64(&n.hopBatchesSent, 1)
	} else {
		atomic.AddInt64(&n.hopSingles, 1)
	}
	atomic.AddInt64(&n.hopFill[fillBucket(frags)], 1)
	atomic.AddInt64(&n.hopBytes, wire)
	for {
		cur := atomic.LoadInt64(&n.maxHopBytes)
		if wire <= cur || atomic.CompareAndSwapInt64(&n.maxHopBytes, cur, wire) {
			break
		}
	}
}

// HopStats snapshots the node's hop-transport counters.
func (n *Node) HopStats() HopStats {
	var s HopStats
	s.Msgs = atomic.LoadInt64(&n.hopMsgs)
	s.Singles = atomic.LoadInt64(&n.hopSingles)
	s.Batches = atomic.LoadInt64(&n.hopBatchesSent)
	s.Frags = atomic.LoadInt64(&n.hopFrags)
	for i := range s.Fill {
		s.Fill[i] = atomic.LoadInt64(&n.hopFill[i])
	}
	s.Bytes = atomic.LoadInt64(&n.hopBytes)
	s.MaxMsg = atomic.LoadInt64(&n.maxHopBytes)
	n.mu.Lock()
	st := n.rt.Stats()
	s.Parked = n.rt.ParkedBATs()
	n.mu.Unlock()
	s.ParkedTotal = int64(st.BATsParked)
	s.Unparked = int64(st.BATsUnparked)
	s.PoolAcquires, s.PoolWaits = n.link(&n.dataOut).WriteStats()
	// Each endpoint is counted at exactly one node (out at the sender,
	// in at the receiver), so the ring-wide sum has no double counting.
	for _, m := range []*rdma.Messenger{n.link(&n.dataOut), n.link(&n.dataIn)} {
		s.WireSyscalls += m.Syscalls()
	}
	return s
}
