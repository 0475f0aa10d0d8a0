package live

// Receive slabs. A ring message lands in a slab of the receiving
// endpoint's memory (rdma's per-size free list), and every fixed-width
// column decoded from it is a view over that memory (bat.UnmarshalView).
// A slab goes back to the free list — where the next message of its
// size overwrites it — only once nothing can read it any more:
//
//  1. Holders count. A slab is retained by the receive loop while it
//     handles the message, and by every holder of a fragment decoded
//     from it: each hot-cache entry, each n.cached delivery, and each
//     hop entry forwarding it — the forward sends the slab's own bytes,
//     so that hold lasts from the enqueue until the send completes.
//  2. Views wait. Query code holds views without counting: the parts of
//     an aligned map and pinMerged's fragments after their unpin. Such
//     a view only ever comes from a cache hit or a delivery, which mark
//     the slab lent. A lent slab whose count reaches zero waits out a
//     grace period: it returns to the free list only after every query
//     that was running on the node at that moment has returned. ExecPlan and Fetch register for it
//     (enterQuery / exitQuery). A slab no query ever saw — a pass-through
//     envelope, a copy the cache already held — returns at once.
//  3. Results are copied. ExecPlan's result set and Fetch's BAT outlive
//     the query, so a fixed-width column of theirs that aliases a slab —
//     narrow codes included — is copied before they are returned
//     (ownResult). A dictionary string column's codes are such a column;
//     its strings, like a plain column's, never alias: UnmarshalView
//     copies every string heap.
//
// Every slab a view can reach is one this node received: fragments
// cross nodes only as bytes on the wire, and owner stores, replicas and
// join transfers hold GC memory.

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/bat"
	"repro/internal/rdma"
)

// slab is one received data message's buffer and its holder count.
type slab struct {
	buf  []byte
	home *rdma.Messenger // the endpoint whose free list it returns to
	node *Node
	refs atomic.Int32
	lent atomic.Bool // a view of it reached query code
}

// retain adds a holder. Every retain happens while the receive loop
// still holds the slab, so a count never climbs back from zero. A nil
// slab (a payload in GC memory) ignores both calls.
func (s *slab) retain() {
	if s != nil {
		s.refs.Add(1)
	}
}

// release drops a holder; the last one retires the slab.
func (s *slab) release() {
	if s != nil && s.refs.Add(-1) == 0 {
		s.node.slabs.retire(s)
	}
}

// lend marks that a view of the slab goes to query code; called while
// a holder still holds it. A nil slab ignores it.
func (s *slab) lend() {
	if s != nil {
		s.lent.Store(true)
	}
}

// slabSet is one node's receive slabs that are off the free list (held,
// or waiting out their grace period) and the grace-period bookkeeping.
type slabSet struct {
	mu sync.Mutex
	// out holds those slabs by the address of their first byte: what
	// ownResult checks a result against.
	out map[*byte]*slab
	// epoch advances with every retirement that has to wait; a query
	// running since epoch e holds back every slab retired at e or later.
	epoch  uint64
	active map[uint64]int // running queries by the epoch they entered in
	limbo  []retired      // waiting slabs, oldest first
}

type retired struct {
	s     *slab
	epoch uint64
}

// receive wraps a data message home's Recv just returned: the receive
// loop's hold, to be released once the message is handled.
func (n *Node) receive(home *rdma.Messenger, buf []byte) *slab {
	s := &slab{buf: buf, home: home, node: n}
	s.refs.Store(1)
	set := &n.slabs
	set.mu.Lock()
	if set.out == nil {
		set.out = map[*byte]*slab{}
	}
	set.out[unsafe.SliceData(buf)] = s
	set.mu.Unlock()
	return s
}

// retire recycles a slab nobody holds: after every query running now
// has returned when one of them may hold a view of it, at once when not.
func (set *slabSet) retire(s *slab) {
	set.mu.Lock()
	if s.lent.Load() && len(set.active) > 0 {
		set.limbo = append(set.limbo, retired{s, set.epoch})
		set.epoch++
		set.mu.Unlock()
		return
	}
	delete(set.out, unsafe.SliceData(s.buf))
	set.mu.Unlock()
	s.home.Recycle(s.buf)
}

// enterQuery registers a query for the grace period; the query passes
// the result to exitQuery when it returns.
func (n *Node) enterQuery() uint64 {
	set := &n.slabs
	set.mu.Lock()
	defer set.mu.Unlock()
	if set.active == nil {
		set.active = map[uint64]int{}
	}
	e := set.epoch
	set.active[e]++
	return e
}

// exitQuery ends a query's grace period and recycles every slab no
// running query can still hold a view of.
func (n *Node) exitQuery(e uint64) {
	set := &n.slabs
	set.mu.Lock()
	if set.active[e]--; set.active[e] == 0 {
		delete(set.active, e)
	}
	oldest := set.epoch
	for a := range set.active {
		oldest = min(oldest, a)
	}
	k := 0
	for k < len(set.limbo) && set.limbo[k].epoch < oldest {
		delete(set.out, unsafe.SliceData(set.limbo[k].s.buf))
		k++
	}
	free := set.limbo[:k:k]
	set.limbo = set.limbo[k:]
	set.mu.Unlock()
	for _, r := range free {
		r.s.home.Recycle(r.s.buf)
	}
}

// ownResult returns b as it leaves a query, and so outlives its grace
// period: owning its memory, in the form the kernels computed it —
// narrow columns keep their codes. b is copied, codes and all, when a
// column still aliases one of this node's slabs. Called while the query
// is still registered, so every slab it could alias is still off the
// free list.
func (n *Node) ownResult(b *bat.BAT) *bat.BAT {
	if n.slabs.aliased(b.Head()) || n.slabs.aliased(b.Tail()) {
		return b.Copy()
	}
	return b
}

// aliased reports whether c's values lie in a slab off the free list.
func (set *slabSet) aliased(c *bat.Column) bool {
	clo, chi := c.Span()
	set.mu.Lock()
	defer set.mu.Unlock()
	for _, s := range set.out {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(s.buf)))
		if clo < lo+uintptr(len(s.buf)) && lo < chi {
			return true
		}
	}
	return false
}
