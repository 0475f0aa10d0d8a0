package live

// Runtime ring growth: the join half of elastic membership (the inverse
// of member.go's failover). A new node enters a *serving* ring in two
// phases:
//
//  Phase A — admission (under failMu, the same lock that serializes
//  failover): a sponsor (any live node) hands the newcomer its current
//  versioned membership view; every live detector's view is grown
//  monotonically to the new ring size (gossip then only confirms, the
//  mirror image of failover's MarkDead broadcast); the neighbour links
//  are spliced *in* — new messengers installed before the superseded
//  ones close, so the receive loops re-check and resume exactly as they
//  do for splice-around — and the newcomer's loops start. Envelopes
//  that were queued on the two replaced link pairs died with them;
//  SuspectOrbit on every live node re-admits them within one resend
//  timeout, the same recovery contract failover relies on.
//
//  Phase B — rebalancing (NOT under failMu, so a concurrent death still
//  fails over; per-column locks serialize against UpdateColumn and
//  promote): the newcomer is streamed its fair share of fragments
//  through the wire codec, most-loaded donors first. Each migration
//  is the transfer → install → release → flip sequence of move.go,
//  which is also where the never-stale argument lives.
//
// Fault model: killing the joiner mid-transfer strands at most the
// fragments already migrated, every one of which has a live replica
// chain for failover to promote; killing a donor mid-transfer leaves
// its unmigrated fragments to ordinary failover; dropped or delayed
// join traffic (Config.JoinFaults) skips fragments, which simply stay
// at their donors. In every case the catalog converges to one live
// owner per fragment.

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// JoinReport describes one completed admission.
type JoinReport struct {
	Node        int   `json:"node"`         // ring position assigned to the newcomer
	Sponsor     int   `json:"sponsor"`      // live node whose view seeded the handshake
	Pred        int   `json:"pred"`         // ring predecessor spliced to the newcomer
	Succ        int   `json:"succ"`         // ring successor spliced to the newcomer
	ViewVersion int64 `json:"view_version"` // newcomer's membership view version after admission
	Share       int   `json:"share"`        // fragments planned toward the newcomer
	Migrated    int   `json:"migrated"`     // fragments actually re-owned
	Skipped     int   `json:"skipped"`      // planned migrations skipped (fault, death, ownership moved)
	SpliceMs    int64 `json:"splice_ms"`    // phase A wall time
	TransferMs  int64 `json:"transfer_ms"`  // phase B wall time
	TotalMs     int64 `json:"total_ms"`
}

// Join admits one new node into the running ring: handshake, view
// growth, link splice-in, loop start (phase A), then live rebalancing
// of the newcomer's fragment share (phase B). It returns once the
// newcomer serves its share. The ring keeps answering queries
// throughout; a concurrent death fails over normally. Requires
// Config.Replicas > 0 — the membership subsystem is the join's
// substrate, and Replicas=0 keeps the fixed-size ring byte-identical.
func (r *Ring) Join() (JoinReport, error) {
	start := time.Now()
	if r.cfg.Replicas <= 0 {
		return JoinReport{}, fmt.Errorf("live: join requires Replicas > 0 (elastic membership disabled)")
	}
	newNode, rep, err := r.admit()
	if err != nil {
		return rep, err
	}
	rep.SpliceMs = time.Since(start).Milliseconds()

	transferStart := time.Now()
	err = r.rebalance(newNode, &rep)
	rep.TransferMs = time.Since(transferStart).Milliseconds()
	rep.TotalMs = time.Since(start).Milliseconds()
	return rep, err
}

// admit runs phase A under failMu: no death can be declared while the
// ring is being re-shaped, and no two admissions interleave.
func (r *Ring) admit() (*Node, JoinReport, error) {
	r.failMu.Lock()
	defer r.failMu.Unlock()

	nodes := r.nodeList()
	oldN := len(nodes)
	newID := oldN // ring positions are stable slice indices; the newcomer extends the slice
	var rep JoinReport
	rep.Node = newID

	if bs := beatMsgSize(oldN + 1); bs > r.maxMsgBytes {
		return nil, rep, fmt.Errorf("live: grown beat message (%d bytes) exceeds ring message limit %d", bs, r.maxMsgBytes)
	}

	// The sponsor is the first live node — in a real deployment the
	// newcomer dials any address it knows; here "dialing" is reading the
	// sponsor's versioned view as the handshake seed.
	sponsor := -1
	for i := 0; i < oldN; i++ {
		if !r.isDead(core.NodeID(i)) {
			sponsor = i
			break
		}
	}
	if sponsor < 0 {
		return nil, rep, fmt.Errorf("live: no live node to sponsor a join")
	}
	rep.Sponsor = sponsor

	// The newcomer sits between the highest live position and the lowest
	// (ring order is index order): its predecessor feeds it data, its
	// successor receives from it.
	pred, succ := -1, -1
	for k := oldN - 1; k >= 0; k-- {
		if !r.isDead(core.NodeID(k)) {
			pred = k
			break
		}
	}
	for k := 0; k < oldN; k++ {
		if !r.isDead(core.NodeID(k)) {
			succ = k
			break
		}
	}
	rep.Pred, rep.Succ = pred, succ
	predNode, succNode := nodes[pred], nodes[succ]

	// All fallible work first: four fresh links. Nothing ring-visible
	// mutates until they all exist.
	links, err := r.newLinks(2, 2)
	if err != nil {
		return nil, rep, err
	}
	dataIn, dataOut := links[0], links[1] // pred -> newcomer, newcomer -> succ
	reqIn, reqOut := links[2], links[3]   // succ -> newcomer, newcomer -> pred

	// Handshake: grow the sponsor's view first, then seed the newcomer
	// from it — the seed already contains the newcomer's own position,
	// so the very first beat it sends gossips the grown ring.
	sponsorNode := nodes[sponsor]
	sponsorNode.memb.Grow(oldN + 1)
	seed := sponsorNode.memb.View()

	node := r.newNode(newID, oldN+1, pred, sponsorNode.schema)
	node.memb.Adopt(seed)
	rep.ViewVersion = node.memb.View().Version

	// Authoritative view growth on every live node, mirroring failover's
	// MarkDead broadcast; beats carrying the wider view bring any
	// straggler along (membership.OnBeat grows on longer remotes).
	for _, s := range nodes {
		if s.memb != nil && !r.isDead(s.id) {
			s.memb.Grow(oldN + 1)
		}
	}

	// Splice in: install the newcomer's links, then close the superseded
	// pred->succ pair. Receive loops whose Recv fails re-check the
	// current link pointer and resume — identical to splice-around.
	node.dataIn = dataIn.b
	node.dataOut = dataOut.a
	node.reqIn = reqIn.b
	node.reqOut = reqOut.a
	predNode.relink(&predNode.dataOut, dataIn.a)
	succNode.relink(&succNode.dataIn, dataOut.b)
	succNode.relink(&succNode.reqOut, reqIn.a)
	predNode.relink(&predNode.reqIn, reqOut.b)
	// The successor now times out the newcomer; the newcomer was built
	// monitoring pred from the start.
	succNode.memb.SetPredecessor(newID)

	// Publish the grown node list before the loops start, so everything
	// the newcomer's goroutines read (nextAlive scans, stats fan-outs)
	// already sees the new size.
	grown := make([]*Node, oldN, oldN+1)
	copy(grown, nodes)
	grown = append(grown, node)
	r.nodes.Store(&grown)

	node.startLoops()
	atomic.AddInt64(&r.joins, 1)

	// Envelopes queued on the two closed link pairs are gone, and their
	// owners' books still say "circulating". Same recovery as failover:
	// every live node suspects its orbiting fragments, and outstanding
	// requests re-admit them within one resend timeout.
	for _, s := range grown {
		if s == node || r.isDead(s.id) {
			continue
		}
		s.mu.Lock()
		s.rt.SuspectOrbit()
		s.applyLocked()
		s.mu.Unlock()
	}
	return node, rep, nil
}

// rebalance runs phase B: plan the newcomer's fair share from the
// most-loaded live donors and migrate fragment by fragment, column by
// column under the column lock. Planned migrations that can no longer
// proceed (fault-dropped, donor dead, ownership moved) are skipped —
// the fragment stays where the catalog says it is. A joiner declared
// dead aborts the remainder; its already-migrated fragments have live
// replica chains for failover to promote.
func (r *Ring) rebalance(j *Node, rep *JoinReport) error {
	// Fragment census per live owner.
	r.memMu.RLock()
	loads := map[core.NodeID]int{}
	donorFrags := map[core.NodeID][]core.BATID{}
	total := 0
	live := 1 // the joiner
	for _, n := range r.nodeList() {
		if n != j && !r.deadNodes[n.id] {
			live++
		}
	}
	for id, owner := range r.fragOwner {
		if r.deadNodes[owner] || owner == j.id {
			continue
		}
		loads[owner]++
		donorFrags[owner] = append(donorFrags[owner], id)
		total++
	}
	r.memMu.RUnlock()

	target := total / live
	rep.Share = target
	if target == 0 {
		return nil
	}
	for _, ids := range donorFrags {
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	}

	// Plan: repeatedly draft one fragment from the currently most-loaded
	// donor (lowest id breaks ties — deterministic plans make fault
	// tests reproducible).
	type migration struct {
		id    core.BATID
		donor core.NodeID
	}
	taken := map[core.NodeID]int{}
	plan := make([]migration, 0, target)
	for len(plan) < target {
		best := core.NodeID(-1)
		bestLoad := 0
		for owner, load := range loads {
			remaining := load - taken[owner]
			if remaining > bestLoad || (remaining == bestLoad && best >= 0 && owner < best) {
				if remaining > 0 {
					best, bestLoad = owner, remaining
				}
			}
		}
		if best < 0 {
			break
		}
		plan = append(plan, migration{donorFrags[best][taken[best]], best})
		taken[best]++
	}

	// Group by column so each column's migrations hold its update lock
	// exactly once, serialized against UpdateColumn and promote.
	r.idsMu.RLock()
	byCol := map[string][]migration{}
	for _, m := range plan {
		byCol[r.fragCol[m.id]] = append(byCol[r.fragCol[m.id]], m)
	}
	r.idsMu.RUnlock()
	names := make([]string, 0, len(byCol))
	for name := range byCol {
		names = append(names, name)
	}
	sort.Strings(names)

	dead := false
	for _, name := range names {
		mu := r.columnLock(name)
		mu.Lock()
		for _, m := range byCol[name] {
			if r.isDead(j.id) {
				dead = true
				break
			}
			if r.migrateFrag(j, m.donor, m.id) {
				rep.Migrated++
			} else {
				rep.Skipped++
			}
		}
		mu.Unlock()
		if dead {
			break
		}
	}
	if dead || r.isDead(j.id) {
		// The joiner died mid-transfer. Failover's own promotion pass may
		// have scanned the catalog before the last migrations flipped it,
		// so sweep once more: every fragment the dead joiner holds is
		// re-owned from the replica chain the migration installed at the
		// catalog version (promoteFrag re-checks ownership per fragment —
		// re-running promotion is idempotent).
		r.promote(j.id)
		return fmt.Errorf("live: joiner %d declared dead mid-transfer after %d migrations", j.id, rep.Migrated)
	}
	return nil
}

// migrateFrag moves one fragment from donor to the joiner: transfer →
// lock → recheck → installOwner + releaseOwner → flip (move.go). Called
// with the fragment's column lock held (no UpdateColumn, no promote) and
// no node mu held; false leaves the fragment where the catalog says.
func (r *Ring) migrateFrag(j *Node, donorID core.NodeID, id core.BATID) bool {
	donor := r.node(int(donorID))
	if r.isDead(donor.id) || r.isDead(j.id) || r.ownerOf(id) != donor {
		return false
	}
	donor.mu.Lock()
	f := donor.store[id]
	donor.mu.Unlock()
	if f == nil {
		return false
	}
	nf, ok := transfer(f, r.cfg.JoinFaults, r.maxMsgBytes)
	if !ok {
		return false
	}
	// The donor may legitimately be one of the joiner's successors.
	oldReps, chain := r.replicaNodes(id), replicaChain(r, j.id)
	unlock := lockNodes(append(append([]*Node{donor, j}, oldReps...), chain...)...)
	if r.isDead(donor.id) || r.isDead(j.id) || !donor.rt.Owns(id) || donor.store[id] != f {
		// A kill landed in the transfer window, or the fragment moved or
		// re-versioned since the unlocked read (only possible through a
		// path that held this column's lock before us).
		unlock()
		return false
	}
	// Interest travels with the fragment: the joiner re-admits it at the
	// heat the donor's replica holders recorded, not stone cold.
	installOwner(j, id, nf, heldLOI(id, oldReps), chain)
	releaseOwner(donor, id, without(oldReps, chain))
	unlock()
	// From here on requests are absorbed by the joiner, and a failover
	// of the donor skips this fragment.
	r.setPlacement(id, j, chain)
	atomic.AddInt64(&r.migrations, 1)
	return true
}

// Joins reports how many nodes have been admitted at runtime.
func (r *Ring) Joins() int64 { return atomic.LoadInt64(&r.joins) }

// Migrations reports how many fragments have been re-owned toward
// joiners.
func (r *Ring) Migrations() int64 { return atomic.LoadInt64(&r.migrations) }
