package live

// Elastic ring membership: the live-ring half of internal/membership.
// Each node multiplexes small heartbeat pulses onto its outbound data
// link (beatLoop) and times out its current predecessor (the node whose
// pulses it should be seeing). A death verdict — reached locally by
// timeout or learned from a gossiped view — triggers failover: the dead
// node is cut off, every survivor's view is updated, the ring links are
// spliced around the hole, and the dead node's fragments are re-owned
// from their replicas with the version catalog intact. All of it is
// nil-gated on Config.Replicas: Replicas=0 leaves the single-owner ring
// byte-identical. A replica copy is a role of the holder's table entry
// (table.go), with the last LOI seen on the circulating original.
// Promotion is one caller of the install steps in move.go, where the
// lock order and the staleness argument live.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rdma"
)

// ---------------------------------------------------------------------
// link accessors (the pointers are swapped by splice at runtime)
// ---------------------------------------------------------------------

// link reads the node's link *at (one of its four link fields).
func (n *Node) link(at **rdma.Messenger) *rdma.Messenger {
	n.linkMu.RLock()
	defer n.linkMu.RUnlock()
	return *at
}

// relink installs m as the node's link *at (one of its four link
// fields), wakes any receive loop waiting for a new link (awaitLink),
// and closes the link it replaces. On a node kill has already stopped
// it closes m instead: nothing would ever close a link installed there.
func (n *Node) relink(at **rdma.Messenger, m *rdma.Messenger) {
	n.linkMu.Lock()
	loser := m
	if !n.linksClosed {
		loser, *at = *at, m
		close(n.relinked)
		n.relinked = make(chan struct{})
	}
	n.linkMu.Unlock()
	loser.Close()
}

// awaitLink is where a receive loop goes when a Recv on in, its link
// at *at, fails. A killed or replaced neighbour's hang-up reaches this
// end as EOF before failover or join relinks around it, so a failed
// link that is still installed is waited out, not given up: awaitLink
// returns true once *at holds another link, false once the node is
// closed.
func (n *Node) awaitLink(at **rdma.Messenger, in *rdma.Messenger) bool {
	for {
		n.linkMu.RLock()
		cur, relinked := *at, n.relinked
		n.linkMu.RUnlock()
		if cur != in {
			return true
		}
		select {
		case <-n.closed:
			return false
		case <-relinked:
		}
	}
}

// ---------------------------------------------------------------------
// heartbeats
// ---------------------------------------------------------------------

// beatLoop sends one heartbeat pulse per interval to the ring successor
// over the data link and drives the failure detector's timeout clock.
// The pulse is sent non-blocking (TrySendEncoded): liveness traffic
// must never queue behind bulk data, and a dropped pulse is harmless —
// the detector tolerates SuspectAfter missed intervals by design.
func (n *Node) beatLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	ticker := time.NewTicker(n.memb.Interval())
	defer ticker.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-ticker.C:
		}
		view := n.memb.View()
		size := beatMsgSize(len(view.Status))
		if err := n.link(&n.dataOut).TrySendEncoded(size, func(dst []byte) int {
			return encodeBeatMsg(dst, int(n.id), view)
		}); err == nil {
			atomic.AddInt64(&n.beatsSent, 1)
		}
		// Silence is evidence only while this node is actually listening:
		// the tick is skipped unless dataLoop is parked in Recv. A parked
		// receiver on an empty link that still hears nothing has a truly
		// silent predecessor; a receiver that is busy processing — or
		// blocked on its own locks behind a fragment-load storm — has
		// manufactured the silence itself, and counting it would let a
		// stalled node kill a healthy neighbour (observed as cascading
		// false deaths on a 1M-row ring under client load).
		if atomic.LoadInt32(&n.recvParked) == 0 {
			continue
		}
		for _, dead := range n.memb.Tick() {
			go n.ring.failover(core.NodeID(dead))
		}
	}
}

// onBeat handles an arrived heartbeat: merge the sender's view, reset
// the predecessor timeout, and fail over anything the merge newly
// declared dead.
func (n *Node) onBeat(data []byte) {
	if n.memb == nil {
		return
	}
	from, view, err := decodeBeatMsg(data)
	if err != nil {
		return
	}
	atomic.AddInt64(&n.beatsRecv, 1)
	for _, dead := range n.memb.OnBeat(from, view) {
		go n.ring.failover(core.NodeID(dead))
	}
}

// ---------------------------------------------------------------------
// death and failover
// ---------------------------------------------------------------------

// kill stops this node: runtime, goroutines, links. Idempotent.
// Closing the node's own messengers is what unblocks its receive loops
// — the same shape as the old Ring.Close body.
func (n *Node) kill() {
	n.killOnce.Do(func() {
		n.mu.Lock()
		n.rt.Stop()
		n.mu.Unlock()
		close(n.closed)
		n.linkMu.Lock()
		defer n.linkMu.Unlock()
		n.linksClosed = true
		for _, m := range []*rdma.Messenger{n.dataOut, n.reqOut, n.dataIn, n.reqIn} {
			m.Close()
		}
	})
}

// KillNode simulates the crash of node i: its runtime stops, its links
// close, its goroutines exit. Nothing is announced — survivors must
// notice through missed heartbeats, exactly as with a real crash.
func (r *Ring) KillNode(i int) {
	r.node(i).kill()
}

// isDead reports whether the ring has declared id dead.
func (r *Ring) isDead(id core.NodeID) bool {
	if r.cfg.Replicas <= 0 {
		return false
	}
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	return r.deadNodes[id]
}

// Alive reports whether node i is currently part of the live ring.
func (r *Ring) Alive(i int) bool {
	return !r.isDead(core.NodeID(i))
}

// AliveNodes reports per-node liveness in ring order — the membership
// view the server layer hands to clients as a routing cache.
func (r *Ring) AliveNodes() []bool {
	nodes := r.nodeList()
	out := make([]bool, len(nodes))
	r.memMu.RLock()
	for i := range nodes {
		out[i] = !r.deadNodes[core.NodeID(i)]
	}
	r.memMu.RUnlock()
	return out
}

// nextAlive returns the first live ring successor of id (id itself if
// everyone else is dead). Callers must not hold a node's mu.
func (r *Ring) nextAlive(id core.NodeID) core.NodeID {
	n := len(r.nodeList())
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	for k := 1; k <= n; k++ {
		cand := core.NodeID((int(id) + k) % n)
		if !r.deadNodes[cand] {
			return cand
		}
	}
	return id
}

// prevAlive returns the first live ring predecessor of id.
func (r *Ring) prevAlive(id core.NodeID) core.NodeID {
	n := len(r.nodeList())
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	for k := 1; k <= n; k++ {
		cand := core.NodeID((int(id) - k + n*n) % n)
		if !r.deadNodes[cand] {
			return cand
		}
	}
	return id
}

// failover declares node dead and repairs the ring around it: cut the
// node off, update every survivor's view, splice the neighbour links,
// and promote replicas so every fragment has a live owner again. Any
// survivor's detector may initiate it (directly or via gossip);
// failMu + the deadNodes check make it run exactly once per death.
func (r *Ring) failover(dead core.NodeID) {
	if r.cfg.Replicas <= 0 {
		return
	}
	r.failMu.Lock()
	defer r.failMu.Unlock()
	r.memMu.Lock()
	if r.deadNodes[dead] {
		r.memMu.Unlock()
		return
	}
	survivors := 0
	for _, n := range r.nodeList() {
		if !r.deadNodes[n.id] && n.id != dead {
			survivors++
		}
	}
	if survivors == 0 {
		// Never declare the last live node dead: with nobody left to
		// promote its fragments, cutting it off only destroys data.
		r.memMu.Unlock()
		return
	}
	r.deadNodes[dead] = true
	r.memMu.Unlock()
	atomic.AddInt64(&r.failovers, 1)

	// The verdict makes itself true: a node declared dead is cut off
	// even if it was merely slow (there is no rejoin — a restarted
	// process joins as a new ring), so the catalog can never end up
	// with two live owners of one fragment.
	r.node(int(dead)).kill()

	// Authoritative view update on every survivor; the gossiped beats
	// then only confirm it. This also bumps every view version past the
	// pre-death view, which is what client routing caches key on.
	for _, s := range r.nodeList() {
		if s.id != dead && s.memb != nil {
			s.memb.MarkDead(int(dead))
		}
	}

	r.splice(dead)
	r.promote(dead)

	// Envelopes that were sitting in the dead node's queues died with
	// it, and their owners have no way to tell: the owner's books say
	// "circulating", so interest signals are absorbed forever and the
	// fragment never re-enters orbit. Every survivor assumes the worst
	// for its in-flight fragments; outstanding requests re-admit them
	// within one resend timeout (see Runtime.SuspectOrbit).
	for _, s := range r.nodeList() {
		if s.id == dead {
			continue
		}
		r.memMu.RLock()
		deadToo := r.deadNodes[s.id]
		r.memMu.RUnlock()
		if deadToo {
			continue
		}
		s.mu.Lock()
		s.rt.SuspectOrbit()
		s.applyLocked()
		s.mu.Unlock()
	}
}

// splice reroutes the ring around the dead node: a fresh data link from
// its live predecessor to its live successor, and a fresh request link
// the other way. New messengers are installed before the old ones are
// closed — a receive loop whose Recv fails re-checks the current link
// pointer and resumes on the replacement (dataLoop/reqLoop).
func (r *Ring) splice(dead core.NodeID) {
	p := r.node(int(r.prevAlive(dead)))
	s := r.node(int(r.nextAlive(dead)))

	if links, err := r.newLinks(1, 1); err == nil {
		data, req := links[0], links[1]
		p.relink(&p.dataOut, data.a)
		s.relink(&s.dataIn, data.b)
		s.relink(&s.reqOut, req.a)
		p.relink(&p.reqIn, req.b)
	}
	if s.memb != nil {
		// The successor now times out its new predecessor, with a full
		// timeout budget from the splice instant.
		s.memb.SetPredecessor(int(p.id))
	}
}

// promote re-owns every fragment the dead node owned from its surviving
// replicas, column by column under the column lock (move.go). Fragments
// whose replicas all died with the owner are counted lost (k deaths
// within one detection window exceed a k-replica budget by
// construction).
func (r *Ring) promote(dead core.NodeID) {
	var owned []core.BATID
	r.memMu.RLock()
	for id, owner := range r.fragOwner {
		if owner == dead {
			owned = append(owned, id)
		}
	}
	r.memMu.RUnlock()
	byCol := map[string][]core.BATID{}
	r.idsMu.RLock()
	for _, id := range owned {
		byCol[r.fragCol[id]] = append(byCol[r.fragCol[id]], id)
	}
	r.idsMu.RUnlock()

	for name, ids := range byCol {
		mu := r.columnLock(name)
		mu.Lock()
		for _, id := range ids {
			r.promoteFrag(dead, id)
		}
		mu.Unlock()
	}
}

// promoteFrag re-owns one fragment at its first live replica holder:
// installOwner from the heir's replica, then the placement flip. Called
// with the fragment's column lock held and no node mu held.
func (r *Ring) promoteFrag(dead core.NodeID, id core.BATID) {
	if owner := r.ownerOf(id); owner == nil || owner.id != dead {
		// Ownership moved while promote waited on the column lock — a
		// join migration re-owned the fragment toward a live node.
		return
	}
	reps := r.replicaNodes(id)
	if len(reps) == 0 {
		atomic.AddInt64(&r.lostFrags, 1)
		return
	}
	heir := reps[0]
	heir.mu.Lock()
	e := heir.tab.m[id]
	if e == nil || !e.replica || e.f.ver != r.fragVersion(id) {
		// Can't happen while the column lock is honored (invariant 2);
		// refuse to serve a stale payload regardless.
		heir.mu.Unlock()
		atomic.AddInt64(&r.lostFrags, 1)
		return
	}
	installOwner(heir, id, e.f, e.loi, nil)
	heir.mu.Unlock()
	// Counted before the flip, so whoever sees the fragment owned again
	// (UnownedFragments) also sees its promotion.
	atomic.AddInt64(&r.promotions, 1)
	r.setPlacement(id, heir, reps[1:])
}

// ---------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------

// MembershipStats is the membership/failover snapshot, shaped like
// HopStats/CacheStats: per node, or ring-wide via Ring.MembershipStats.
// Merge folds node snapshots by one rule per field kind: the view
// fields (ViewVersion, Alive, Suspect, Dead) come from the highest
// ViewVersion; the per-node counters (Replicas, ReplicaLag, BeatsSent,
// BeatsRecv) sum; the ring-wide counters every node reports alike
// (Failovers, Promotions, LostFrags) take the max, so a fold over N
// nodes does not count them N times.
type MembershipStats struct {
	Enabled     bool  // Replicas > 0
	ViewVersion int64 // membership view version
	Alive       int   // nodes alive in that view
	Suspect     int   // nodes under suspicion
	Dead        int   // nodes declared dead
	Replicas    int64 // replica copies held
	ReplicaLag  int64 // replicas behind the catalog version
	Failovers   int64 // deaths failed over, ring-wide
	Promotions  int64 // fragments re-owned from replicas, ring-wide
	LostFrags   int64 // fragments lost (all replicas dead), ring-wide
	BeatsSent   int64 // heartbeat pulses sent
	BeatsRecv   int64 // heartbeat pulses received
}

// Merge folds another node's snapshot into s by the rules on the type.
// A snapshot with membership off is skipped.
func (s *MembershipStats) Merge(o MembershipStats) {
	if !o.Enabled {
		return
	}
	if !s.Enabled || o.ViewVersion > s.ViewVersion {
		s.ViewVersion = o.ViewVersion
		s.Alive, s.Suspect, s.Dead = o.Alive, o.Suspect, o.Dead
	}
	s.Enabled = true
	s.Replicas += o.Replicas
	s.ReplicaLag += o.ReplicaLag
	s.BeatsSent += o.BeatsSent
	s.BeatsRecv += o.BeatsRecv
	s.Failovers = max(s.Failovers, o.Failovers)
	s.Promotions = max(s.Promotions, o.Promotions)
	s.LostFrags = max(s.LostFrags, o.LostFrags)
}

// MembershipStats snapshots this node's membership state.
func (n *Node) MembershipStats() MembershipStats {
	var s MembershipStats
	if n.memb == nil {
		return s
	}
	s.Enabled = true
	v := n.memb.View()
	s.ViewVersion = v.Version
	s.Alive, s.Suspect, s.Dead = v.Counts()
	var ids []core.BATID
	var vers []int
	n.mu.Lock()
	for id, e := range n.tab.m {
		if e.replica {
			ids = append(ids, id)
			vers = append(vers, e.f.ver)
		}
	}
	n.mu.Unlock()
	s.Replicas = int64(len(ids))
	for i, id := range ids {
		if vers[i] < n.ring.fragVersion(id) {
			s.ReplicaLag++
		}
	}
	s.Failovers = atomic.LoadInt64(&n.ring.failovers)
	s.Promotions = atomic.LoadInt64(&n.ring.promotions)
	s.LostFrags = atomic.LoadInt64(&n.ring.lostFrags)
	s.BeatsSent = atomic.LoadInt64(&n.beatsSent)
	s.BeatsRecv = atomic.LoadInt64(&n.beatsRecv)
	return s
}

// MembershipStats merges the snapshots of the live nodes.
func (r *Ring) MembershipStats() MembershipStats {
	var total MembershipStats
	for _, n := range r.nodeList() {
		if !r.isDead(n.id) {
			total.Merge(n.MembershipStats())
		}
	}
	return total
}

// UnownedFragments counts fragments whose recorded owner is dead and
// that failover has not yet re-owned — the quantity the recovery-time
// experiments watch going to zero.
func (r *Ring) UnownedFragments() int {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	c := 0
	for _, owner := range r.fragOwner {
		if r.deadNodes[owner] {
			c++
		}
	}
	return c
}
