package live

// Fragment install and move — the one implementation of the paper's
// §6.3 ownership handover and §6.4 version install. Every operation
// that changes where a fragment lives or which bytes its owner holds
// (UpdateColumn, failover promotion, join rebalancing, Publish, ring
// construction) is a sequence of the steps in this file:
//
//	transfer      codec round trip of the fragment (join moves)
//	lockNodes     ordered critical section over every node touched
//	installOwner  fragment version and replica copies at the new owner;
//	              pins already blocked there are delivered from them
//	(flip)        the caller's catalog write: version or placement
//	releaseOwner  the previous owner and its replica holders forget
//
// Lock order: failMu > column lock > node mu in node order; memMu,
// idsMu and a hot cache's mutex are leaves — they may be taken under a
// node mu, and nothing is acquired while holding one.
// Every caller holds the fragment's column lock from its first read of
// the fragment to its last write, so no two of them interleave on one
// column, and only lockNodes ever holds two node locks at once.
//
// Invariants (TestInstallMoveInvariants checks them under load):
//
//  1. The node the placement catalog names as owner holds the bytes of
//     the catalog's version: installOwner runs before the flip, and the
//     version catalog advances inside the critical section that wrote
//     the store. A pin therefore never sees a version below the
//     catalog's at acquisition.
//  2. Replica copies are written in the owner's critical section,
//     before the catalog moves: a promotion always finds its replica at
//     the catalog version.
//  3. A fragment has at most one live owner, and exactly one once any
//     failover of its owner has promoted a replica.
//  4. A source copy is released only after the flip.

import (
	"sort"
	"sync"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/netsim"
)

// lockNodes locks every distinct non-nil node of set in node order —
// the only way two node locks are ever held together — and returns the
// function that unlocks them.
func lockNodes(set ...*Node) (unlock func()) {
	nodes := without(set, nil)
	sort.Slice(nodes, func(a, b int) bool { return nodes[a].id < nodes[b].id })
	for _, n := range nodes {
		n.mu.Lock()
	}
	return func() {
		for _, n := range nodes {
			n.mu.Unlock()
		}
	}
}

// without returns the distinct non-nil nodes of set that are not in
// drop, in order.
func without(set, drop []*Node) []*Node {
	out := make([]*Node, 0, len(set))
next:
	for _, n := range set {
		if n == nil {
			continue
		}
		for _, seen := range out {
			if seen == n {
				continue next
			}
		}
		for _, d := range drop {
			if d == n {
				continue next
			}
		}
		out = append(out, n)
	}
	return out
}

// replicaChain is the placement rule (chained declustering): a
// fragment's replicas sit on the first Replicas live ring successors of
// its owner, the chain any survivor can recompute from the owner alone.
func replicaChain(r *Ring, owner core.NodeID) []*Node {
	nodes := r.nodeList()
	var chain []*Node
	for k := 1; k < len(nodes) && len(chain) < r.cfg.Replicas; k++ {
		if cand := nodes[(int(owner)+k)%len(nodes)]; !r.isDead(cand.id) {
			chain = append(chain, cand)
		}
	}
	return chain
}

// fragment is one version of one fragment, the value every holder on a
// node keeps: the store, replicas, transit, pinned deliveries, the hot
// cache and the hop queue. b is its view, capped to its length so no
// Append grows into another holder's rows; raw is the wire bytes it
// travels as, and slab the receive slab raw is a view of (nil: GC
// memory). A version is never rewritten — an update installs a new
// fragment — so its bytes never need invalidating.
type fragment struct {
	b    *bat.BAT
	ver  int
	raw  []byte
	slab *slab
	once sync.Once // guards raw's lazy marshal
}

// newFragment wraps b at version ver. raw is its wire bytes, a view of
// slab s, for a received or transferred version, which arrives in the
// width its sender chose; nil for one installed from a BAT, which is
// stored in the narrowest width its own values allow (bat.Narrow) and
// marshalled on its first send. Every version is narrowed from its own
// data, so an update that outgrows a width installs a wider version.
func newFragment(b *bat.BAT, ver int, raw []byte, s *slab) *fragment {
	if raw == nil {
		b = bat.Narrow(b)
	}
	return &fragment{b: b.Slice(0, b.Len()), ver: ver, raw: raw, slab: s}
}

// wire returns the version's wire bytes, marshalling them into GC
// memory the first time a version installed from a BAT is sent. Safe
// from any node.
func (f *fragment) wire() []byte {
	f.once.Do(func() {
		if f.raw == nil {
			f.raw = bat.AppendMarshal(nil, f.b)
		}
	})
	return f.raw
}

// transfer streams a fragment through the wire codec — the bytes a hop
// would carry — and consults the fault injector with their size: a drop
// (or a payload over limit) abandons the move, a delay stretches the
// window in which kills land. The copy keeps the marshalled bytes as its
// own, so the joiner never marshals it again. The caller re-checks both
// ends under lockNodes before installing the copy.
func transfer(f *fragment, faults *netsim.Faults, limit int) (*fragment, bool) {
	raw := bat.AppendMarshal(nil, f.b)
	if dataHdrSize+len(raw) > limit {
		return nil, false
	}
	if faults != nil {
		delay, drop := faults.Apply(dataHdrSize + len(raw))
		if delay > 0 {
			time.Sleep(delay)
		}
		if drop {
			return nil, false
		}
	}
	nb, err := bat.UnmarshalView(raw)
	if err != nil {
		return nil, false
	}
	return newFragment(nb, f.ver, raw, nil), true
}

// installOwner makes n the holder of fragment version f and writes the
// same version to the replica holders in chain. A superseded cached copy
// is dropped so every serve path agrees with the store; pins already
// blocked at n are delivered from it here, before the caller flips any
// catalog. A fragment new to n enters its hot set cold at interest loi;
// one n already owns keeps its place in it. Called with n and chain
// locked (lockNodes).
func installOwner(n *Node, id core.BATID, f *fragment, loi float64, chain []*Node) {
	n.store[id] = f
	if n.hot != nil {
		n.hot.drop(id) // the owner serves its store, never a cached copy
	}
	delete(n.replicas, id)
	n.rt.PromoteOwned(id, f.b.Bytes(), loi)
	n.applyLocked()
	for _, rep := range chain {
		rep.replicas[id] = &replicaFrag{f: f, loi: loi}
	}
}

// storeVer is the version of fragment id in n's store (0 when n holds
// none). Called with n.mu held.
func (n *Node) storeVer(id core.BATID) int {
	if f := n.store[id]; f != nil {
		return f.ver
	}
	return 0
}

// releaseOwner makes owner and the replica holders in reps forget
// fragment id. Readers that pinned the payload continue on it —
// fragments are immutable per version. Called with all of them locked.
func releaseOwner(owner *Node, id core.BATID, reps []*Node) {
	owner.rt.RemoveOwned(id)
	delete(owner.store, id)
	for _, rep := range reps {
		delete(rep.replicas, id)
	}
}

// heldLOI is the interest a fragment last showed while circulating, as
// its replica holders recorded it: what it is re-admitted with. Called
// with reps locked.
func heldLOI(id core.BATID, reps []*Node) float64 {
	loi := 0.0
	for _, n := range reps {
		if rp := n.replicas[id]; rp != nil && rp.loi > loi {
			loi = rp.loi
		}
	}
	return loi
}

// ---------------------------------------------------------------------
// the placement catalog: fragment → (owner, replica chain)
// ---------------------------------------------------------------------

// ownerOf returns the node the placement catalog names as id's owner
// (nil for an id the catalog does not place). Between a node's death
// and its fragments' promotion that is the dead node; updating through
// it is still correct — the surviving replicas are written in the same
// critical section, and the promotion (serialized on the column lock)
// installs exactly the catalog version.
func (r *Ring) ownerOf(id core.BATID) *Node {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	if owner, ok := r.fragOwner[id]; ok {
		return r.node(int(owner))
	}
	return nil
}

// replicaNodes lists the live holders of id's replica chain, in chain
// order.
func (r *Ring) replicaNodes(id core.BATID) []*Node {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	var reps []*Node
	for _, nid := range r.fragReplicas[id] {
		if !r.deadNodes[nid] {
			reps = append(reps, r.node(int(nid)))
		}
	}
	return reps
}

// setPlacement is the ownership flip: from here on requests for id are
// absorbed by owner, and a failover promotes from chain.
func (r *Ring) setPlacement(id core.BATID, owner *Node, chain []*Node) {
	ids := make([]core.NodeID, len(chain))
	for i, n := range chain {
		ids[i] = n.id
	}
	r.memMu.Lock()
	r.fragOwner[id] = owner.id
	r.fragReplicas[id] = ids
	r.memMu.Unlock()
}

// columnLock returns the per-column mutex every install and move of the
// column's fragments holds, creating it lazily.
func (r *Ring) columnLock(name string) *sync.Mutex {
	l, _ := r.colLocks.LoadOrStore(name, &sync.Mutex{})
	return l.(*sync.Mutex)
}
