package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
)

// ---------------------------------------------------------------------
// receive loops
// ---------------------------------------------------------------------

func (n *Node) dataLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		in := n.link(&n.dataIn)
		atomic.StoreInt32(&n.recvParked, 1)
		data, err := in.Recv()
		if err != nil {
			// Failover or join splices a new predecessor link in, and
			// may already have: resume receiving from it. Until then the
			// node listens to a silent link, and recvParked stays 1, so
			// the detector counts the silence exactly as on a parked
			// Recv.
			if !n.awaitLink(&n.dataIn, in) {
				return
			}
			continue
		}
		atomic.StoreInt32(&n.recvParked, 0)
		if isBeatMsg(data) {
			n.onBeat(data) // decodes into memory of its own
			in.Recycle(data)
			continue
		}
		if n.memb != nil {
			// Any message on the data link is implicit proof that the
			// predecessor lives: a node pushing bulk data is not dead,
			// even when its explicit beats are queued behind that data.
			n.memb.Pulse()
		}
		// The loop holds the message's slab while it handles it; the
		// payloads decoded from it take holds of their own.
		s := n.receive(in, data)
		if isBatchMsg(data) {
			// A batch envelope is several v2 messages that shared one
			// hop: handle each entry exactly as if it had arrived alone.
			// Entry payloads are zero-copy views over the message
			// slab, same aliasing rules as a single.
			if entries, err := decodeBatchMsg(data); err == nil {
				for _, e := range entries {
					n.handleData(e.m, e.ver, e.payload, s)
				}
			}
		} else if hdr, ver, rawPayload, err := decodeDataMsg(data); err == nil {
			n.handleData(hdr, ver, rawPayload, s)
		}
		s.release()
	}
}

// handleData processes one arrived data message (or one batch entry)
// whose payload bytes are a view of slab s: decode, the table's hot
// role, runtime delivery.
func (n *Node) handleData(hdr core.BATMsg, ver int, rawPayload []byte, s *slab) {
	if n.memb != nil && hdr.Owner != n.id && n.ring.isDead(hdr.Owner) {
		// An envelope orphaned by its owner's death. If failover has
		// promoted this node to owner, adopt the envelope as our own
		// circulating copy (hot-set management then runs as usual); the
		// dead node's first live successor retires any other orphan so
		// it cannot orbit forever — re-owned fragments re-enter the
		// ring from the heir's owned entry with the catalog version.
		n.mu.Lock()
		owns, mine := n.rt.Owns(hdr.BAT), n.tab.owned(hdr.BAT)
		n.mu.Unlock()
		if owns {
			if mine != nil && ver < mine.ver {
				// A stale orbit copy outlived by the promotion: the heir
				// already owns a newer version, so adopting this envelope
				// would put superseded bytes back into circulation. Retire
				// it; the owned version re-enters the ring through the
				// next load.
				return
			}
			hdr.Owner = n.id
		} else if n.ring.nextAlive(hdr.Owner) == n.id {
			return
		}
	}
	var f *fragment
	if len(rawPayload) > 0 {
		// Zero-copy decode: the BAT's fixed-width columns alias
		// rawPayload, and thus the slab the transport received the
		// message into. Nothing here writes it, and everything that
		// keeps the fragment holds the slab (slab.go), so the views stay
		// valid for as long as they are held. The received bytes are the
		// version's wire bytes: a forward sends them as they are.
		b, err := bat.UnmarshalView(rawPayload)
		if err != nil {
			return
		}
		f = newFragment(b, ver, rawPayload, s)
	}
	n.mu.Lock()
	if f != nil && hdr.Owner != n.id {
		// Keep the passing traffic hot, labelled with the version the
		// owner sent it under. Own fragments are skipped: the owner's
		// pins are served from its owned entry already.
		n.tab.admit(hdr.BAT, f)
	}
	if e := n.tab.m[hdr.BAT]; e != nil {
		if hdr.Owner == n.id && e.owned {
			// One of our own fragments came full circle: the gap since its
			// previous return is one measured ring revolution. EWMA with a
			// 1/4 step — smooth enough to read, fresh enough to follow a
			// linger change within a few revolutions.
			now := time.Now().UnixNano()
			if last := e.seen; last != 0 && now > last {
				d := now - last
				if old := atomic.LoadInt64(&n.revNanos); old == 0 {
					atomic.StoreInt64(&n.revNanos, d)
				} else {
					atomic.StoreInt64(&n.revNanos, old+(d-old)/4)
				}
			}
			e.seen = now
		}
		if e.replica {
			// Replica-aware LOI accounting: remember the interest the
			// fragment shows while circulating, so a promotion after the
			// owner's death re-admits it at its earned heat (§6.3).
			e.loi = hdr.LOI
		}
	}
	n.arrivingID, n.arriving = hdr.BAT, f
	n.rt.OnBAT(hdr)
	n.applyLocked()
	n.arriving = nil
	n.mu.Unlock()
}

func (n *Node) reqLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		in := n.link(&n.reqIn)
		data, err := in.Recv()
		if err != nil {
			if !n.awaitLink(&n.reqIn, in) {
				return
			}
			continue // spliced: receive from the new link
		}
		req, err := decodeReqMsg(data)
		in.Recycle(data) // a request decodes into fields: nothing views it
		if err != nil {
			continue
		}
		if n.memb != nil && n.ring.isDead(req.Origin) {
			// A dead origin can never receive the answer; absorbing the
			// request here stops it orbiting the repaired ring.
			continue
		}
		if n.memb != nil && req.Origin == n.id && n.ring.fragKnown(req.BAT) {
			// Full circle, but the catalog still lists the fragment: no
			// live owner absorbed the request because ownership is mid-
			// promotion (or the re-owned fragment has not re-entered
			// orbit yet). The stable-ring conclusion — returned request
			// means the BAT does not exist — would error every blocked
			// pin with a false negative. Swallow it instead: the resend
			// timer keeps the interest alive until the new owner answers.
			continue
		}
		n.mu.Lock()
		n.rt.OnRequest(req)
		n.applyLocked()
		n.mu.Unlock()
	}
}

// sendLoop is the node's request sender: it writes the requests the
// runtime emits to the predecessor, in emission order, off n.mu.
func (n *Node) sendLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-n.closed:
			return
		case <-n.reqs.wake:
		}
		for _, m := range n.reqs.take(nil) {
			n.link(&n.reqOut).SendEncoded(reqMsgSize, func(dst []byte) int {
				encodeReqMsg(dst, m)
				return reqMsgSize
			})
		}
	}
}

// ---------------------------------------------------------------------
// core.Env implementation and effects
// ---------------------------------------------------------------------

type liveEnv Node

func (e *liveEnv) Now() time.Duration { return time.Since(e.start) }

func (e *liveEnv) QueueLoad() (int, int) {
	return int(atomic.LoadInt64(&e.outBytes)), e.cfg.QueueCap
}

type liveTimer struct{ t *time.Timer }

func (t liveTimer) Cancel() { t.t.Stop() }

func (e *liveEnv) After(d time.Duration, fn func()) core.TimerHandle {
	n := (*Node)(e)
	return liveTimer{t: time.AfterFunc(d, func() {
		select {
		case <-n.closed:
			return
		default:
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		fn()
		n.applyLocked()
	})}
}

// applyLocked carries out the effects the runtime emitted, in order.
// Called with n.mu held, after every runtime call that can emit and
// before the lock is released: a delivery reads n.arriving, which holds
// an arrival only during its OnBAT, and an owner's pin is delivered
// before it returns (acquireLocked). Nothing here writes to a socket:
// sends queue for the hop scheduler and the request sender. The one
// runtime call it makes, deliverLocked's Unpin, emits nothing.
func (n *Node) applyLocked() {
	var buf [8]core.Effect
	for _, e := range n.rt.Effects(buf[:0]) {
		switch e.Kind {
		case core.SendData:
			n.forwardLocked(e.Data)
		case core.SendRequest:
			n.reqs.enqueue(e.Req)
		case core.Deliver:
			n.deliverLocked(e.Query, e.BAT)
		case core.QueryError:
			n.failQueryLocked(e.Query, e.BAT, "BAT does not exist")
		case core.Unloaded:
			// The BAT left the ring's hot set: the owner serves its own
			// pins from its owned entry, so resident bytes are better spent.
			n.tab.cool(e.BAT)
		}
	}
}

// forwardLocked queues a BAT (with payload) for the successor.
func (n *Node) forwardLocked(m core.BATMsg) {
	e := n.tab.m[m.BAT]
	var f *fragment
	switch {
	case m.Owner == n.id && e != nil && e.owned:
		// Forwarding our own fragment: send the owned version rather than
		// the circulating copy, so an UpdateColumn reaches the ring within
		// one owner pass and the superseded bytes die here instead of
		// rotating until the LOI decays — what bounds a pin's
		// stale-version retry (fragMap.settle) to one revolution.
		f = e.f
		m.Size = f.b.Bytes()
	case n.arriving != nil && n.arrivingID == m.BAT:
		f = n.arriving
	case e != nil && (e.owned || e.pinned):
		f = e.f
	default:
		return // nothing to forward; drop (should not happen)
	}
	f.wire() // a version installed from a BAT marshals on its first send
	// The hold keeps the fragment's slab, and so its wire bytes, stable
	// until the vectored send that carries them completes.
	f.slab.retain()
	atomic.AddInt64(&n.outBytes, int64(m.Size))
	n.hop.enqueue(hopEntry{m: m, f: f})
}

// deliverLocked resolves the payload of b and ends every ring wait
// query q has on it (endWaitsLocked).
func (n *Node) deliverLocked(q core.QueryID, b core.BATID) {
	key := waitKey{q, b}
	a := n.waiters[key]
	if a == nil {
		// Nobody waits: failQueryLocked ended the query's waits before
		// this pass reached its pin. The delivery counted a runtime pin:
		// release it, or the stale count would short-circuit every later
		// pin of this BAT into a nil delivery.
		n.unpinLocked(q, b)
		return
	}
	delete(n.waiters, key)
	e := n.tab.m[b]
	var f *fragment
	switch {
	case e != nil && e.owned:
		// Owner: always serve the owned version, never a circulating copy.
		// It is the authoritative latest version (UpdateColumn installs it
		// under the column lock before the catalog advances), while a copy
		// returning from a full orbit carries whatever version the
		// fragment had when it was last sent — under update pressure that
		// can be arbitrarily far behind. Serving it keeps owner pins on
		// the cache contract: never older than the catalog read before
		// the pin.
		f = e.f
	case n.arriving != nil && n.arrivingID == b:
		// The query holds the BAT pinned: the table keeps its newest
		// version, and with it the slab it is a view of, while the runtime
		// counts a pin (unpinLocked).
		e = n.tab.hold(b, n.arriving)
		e.pinned = true
		f = e.f
	case e != nil && e.pinned:
		f = e.f
	}
	var err error
	if f == nil {
		err = errNoBAT(b)
	} else {
		f.slab.lend()
	}
	if k := n.endWaitsLocked(a, f, err); k > 1 && f != nil {
		n.sharedPins[key] += k - 1 // one runtime pin for k acquisitions
	}
}

// unpinLocked releases one runtime pin of query q on b, and with the
// node's last pin the table's pinned role on it. Called with n.mu held.
func (n *Node) unpinLocked(q core.QueryID, b core.BATID) {
	n.rt.Unpin(q, b)
	if e := n.tab.m[b]; e != nil && e.pinned && n.rt.CachePins(b) == 0 {
		e.pinned = false
		n.tab.tidy(b, e)
	}
}

// endWaitsLocked ends the ring wait of a and of every acquisition
// chained after it, with f — a delivery each then holds (viaRing) — or
// with err, counting each into its part. It reports how many it ended.
func (n *Node) endWaitsLocked(a *fragAcq, f *fragment, err error) (k int) {
	for next := a; next != nil; k++ {
		a, next = next, next.next
		a.next, a.waiting, a.err = nil, false, err
		if f != nil {
			a.f, a.viaRing = f, true
			if !a.since.IsZero() {
				atomic.AddInt64(&n.ringWaits, 1)
				atomic.AddInt64(&n.ringWaitNanos, time.Since(a.since).Nanoseconds())
			}
		}
		a.p.inLocked()
	}
	return k
}

// errNoBAT is the runtime's verdict that b does not exist.
func errNoBAT(b core.BATID) error { return fmt.Errorf("live: BAT %d does not exist", b) }

// failQueryLocked aborts query q: its ring waits fail, ExecPlan
// returns the error, and an interpreter that is computing stops.
func (n *Node) failQueryLocked(q core.QueryID, b core.BATID, reason string) {
	for key, a := range n.waiters {
		if key.q == q {
			delete(n.waiters, key)
			n.endWaitsLocked(a, nil, errNoBAT(key.b))
		}
	}
	if qe, ok := n.errs[q]; ok {
		select {
		case qe.ch <- fmt.Errorf("live: query %d: %s (BAT %d)", q, reason, b):
		default:
		}
		// Stop an interpreter that is computing, not pinning, at its
		// next instruction.
		qe.abort()
	}
}
