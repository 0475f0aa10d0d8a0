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
		in := n.linkDataIn()
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
// whose payload bytes are a view of slab s: decode, hot-cache
// population, runtime delivery.
func (n *Node) handleData(hdr core.BATMsg, ver int, rawPayload []byte, s *slab) {
	if n.memb != nil && hdr.Owner != n.id && n.ring.isDead(hdr.Owner) {
		// An envelope orphaned by its owner's death. If failover has
		// promoted this node to owner, adopt the envelope as our own
		// circulating copy (hot-set management then runs as usual); the
		// dead node's first live successor retires any other orphan so
		// it cannot orbit forever — re-owned fragments re-enter the
		// ring from the heir's store with the catalog version.
		n.mu.Lock()
		owns, myVer := n.rt.Owns(hdr.BAT), n.storeVer(hdr.BAT)
		n.mu.Unlock()
		if owns {
			if ver < myVer {
				// A stale orbit copy outlived by the promotion: the heir's
				// store already holds a newer version, so adopting this
				// envelope would put superseded bytes back into
				// circulation. Retire it; the store copy re-enters the
				// ring through the next load.
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
	if f != nil && n.hot != nil && hdr.Owner != n.id {
		// Populate the hot-set cache from the passing traffic,
		// labelled with the version the owner sent it under. Own
		// fragments are skipped: the owner's pins are served from
		// the store already. Inserted before OnBAT so a pin
		// coalesced behind this delivery finds the entry resident.
		n.hot.put(hdr.BAT, f)
	}
	n.mu.Lock()
	if hdr.Owner == n.id {
		// One of our own fragments came full circle: the gap since its
		// previous return is one measured ring revolution. EWMA with a
		// 1/4 step — smooth enough to read, fresh enough to follow a
		// linger change within a few revolutions.
		now := time.Now().UnixNano()
		if n.lastSelfSeen == nil {
			n.lastSelfSeen = map[core.BATID]int64{}
		}
		if last, ok := n.lastSelfSeen[hdr.BAT]; ok && now > last {
			d := now - last
			if old := atomic.LoadInt64(&n.revNanos); old == 0 {
				atomic.StoreInt64(&n.revNanos, d)
			} else {
				atomic.StoreInt64(&n.revNanos, old+(d-old)/4)
			}
		}
		n.lastSelfSeen[hdr.BAT] = now
	}
	if rp, ok := n.replicas[hdr.BAT]; ok {
		// Replica-aware LOI accounting: remember the interest the
		// fragment shows while circulating, so a promotion after the
		// owner's death re-admits it at its earned heat (§6.3).
		rp.loi = hdr.LOI
	}
	if f != nil {
		n.transit[hdr.BAT] = f
	}
	n.rt.OnBAT(hdr)
	delete(n.transit, hdr.BAT)
	n.mu.Unlock()
}

func (n *Node) reqLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		in := n.linkReqIn()
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
		n.mu.Unlock()
	}
}

// ---------------------------------------------------------------------
// core.Env implementation
// ---------------------------------------------------------------------

type liveEnv Node

func (e *liveEnv) node() *Node { return (*Node)(e) }

func (e *liveEnv) Now() time.Duration { return time.Since(e.start) }

// SendData forwards a BAT (with payload) to the successor. Called with
// n.mu held; the actual network send happens asynchronously so the
// runtime never blocks on the wire.
func (e *liveEnv) SendData(m core.BATMsg) {
	n := e.node()
	var f *fragment
	if m.Owner == n.id {
		// Forwarding our own fragment: send the store's current version
		// rather than the circulating copy, so an UpdateColumn reaches
		// the ring within one owner pass and the superseded bytes die
		// here instead of rotating until the LOI decays — what bounds a
		// pin's stale-version retry (acquireFrag) to one revolution.
		if f = n.store[m.BAT]; f != nil {
			m.Size = f.b.Bytes()
		}
	}
	if f == nil {
		if t, ok := n.transit[m.BAT]; ok {
			f = t
		} else if st, ok := n.store[m.BAT]; ok {
			f = st
		} else if c, ok := n.cached[m.BAT]; ok {
			f = c.f
		}
	}
	if f == nil {
		return // nothing to forward; drop (should not happen)
	}
	f.wire() // a version installed from a BAT marshals on its first send
	// The hold keeps the fragment's slab, and so its wire bytes, stable
	// until the vectored send that carries them completes.
	f.slab.retain()
	atomic.AddInt64(&n.outBytes, int64(m.Size))
	he := hopEntry{m: m, f: f}
	if n.hop != nil {
		// Batched transport: queue the fragment for the hop scheduler,
		// which coalesces co-resident outbound fragments into one batch
		// envelope per neighbour hop.
		n.hop.enqueue(he)
		return
	}
	go n.flushHopBatch([]hopEntry{he})
}

func (e *liveEnv) SendRequest(m core.RequestMsg) bool {
	n := e.node()
	go func() {
		select {
		case <-n.closed:
			return
		default:
		}
		n.linkReqOut().SendEncoded(reqMsgSize, func(dst []byte) int {
			encodeReqMsg(dst, m)
			return reqMsgSize
		})
	}()
	return true
}

func (e *liveEnv) QueueLoad() (int, int) {
	return int(atomic.LoadInt64(&e.node().outBytes)), e.cfg.QueueCap
}

type liveTimer struct{ t *time.Timer }

func (t liveTimer) Cancel() { t.t.Stop() }

func (e *liveEnv) After(d time.Duration, fn func()) core.TimerHandle {
	n := e.node()
	return liveTimer{t: time.AfterFunc(d, func() {
		select {
		case <-n.closed:
			return
		default:
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		fn()
	})}
}

// Deliver resolves the payload and wakes the blocked pin. Called with
// n.mu held. The waiter lookup gates the refcount: a delivery whose pin
// was abandoned (query cancelled between abandonPin and CancelQuery)
// must not count a cached-payload reference nobody will ever release.
func (e *liveEnv) Deliver(q core.QueryID, b core.BATID) {
	n := e.node()
	key := waitKey{q, b}
	ch, ok := n.waiters[key]
	if !ok {
		// Pin abandoned; no one left to hand the payload to. The only
		// path that can reach a missing waiter is an asynchronous ring
		// arrival (synchronous deliveries run in the same critical
		// section that registers the waiter), and that path counted one
		// runtime cache ref (batPropagation's cacheRef) just before
		// delivering — release it, or the stale rt.cache entry would
		// short-circuit every later pin of this BAT into a nil delivery.
		n.rt.Unpin(q, b)
		return
	}
	delete(n.waiters, key)
	var f *fragment
	if st, ok := n.store[b]; ok {
		// Owner: always serve the store, never a circulating copy. The
		// store is the authoritative latest version (UpdateColumn bumps
		// it under the column lock before the catalog advances), while a
		// transit copy returning from a full orbit carries whatever
		// version the fragment had when it was last sent — under update
		// pressure that can be arbitrarily far behind. Serving the store
		// keeps owner pins on the cache contract: never older than the
		// catalog read before the pin.
		f = st
	} else if t, ok := n.transit[b]; ok {
		f = t
		f.slab.lend()
		// The query will hold the BAT pinned: keep the fragment cached,
		// and with it the slab it is a view of.
		c := n.cached[b]
		if c == nil {
			c = &cachedBAT{f: f}
			f.slab.retain()
			n.cached[b] = c
		}
		c.refs++
	} else if c, ok := n.cached[b]; ok {
		f = c.f // lent when the entry was made
		c.refs++
	}
	ch <- f // buffered
}

func (e *liveEnv) QueryError(q core.QueryID, b core.BATID, reason string) {
	n := e.node()
	// Fail any blocked pin of this query.
	for key, ch := range n.waiters {
		if key.q == q {
			delete(n.waiters, key)
			ch <- nil
		}
	}
	if ec, ok := n.errs[q]; ok {
		select {
		case ec <- fmt.Errorf("live: query %d: %s (BAT %d)", q, reason, b):
		default:
		}
	}
}

func (e *liveEnv) OnLoad(b core.BATID, size int) {}

// OnUnload drops the fragment's hot-set cache entry once the BAT
// leaves the ring's hot set: the owner serves its own pins from the
// store, so resident bytes are better spent. Called with n.mu held.
func (e *liveEnv) OnUnload(b core.BATID, size int) {
	if n := e.node(); n.hot != nil {
		n.hot.drop(b)
	}
}
