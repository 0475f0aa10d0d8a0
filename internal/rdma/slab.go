package rdma

import (
	"runtime"
	"sync"
	"testing"
)

// slabPool is one receiving endpoint's free list of receive buffers
// (slabs), keyed by slab size: the emulation's registered receive
// memory, reused instead of allocated per message (§2.3 — registration
// is the costly step, so real verbs register once and recycle). A
// message takes the smallest free slab that holds it and is less than
// twice its size, so a ring in steady state allocates nothing even when
// its messages differ in size — fragments of differently narrowed
// columns, and the batches they pair into — and a held message pins at
// most twice its bytes. A slab is allocated, at the message's exact
// size, only when no free one fits, so the number of slabs never
// exceeds the peak held at once and the list needs no bound of its own.
//
// What the list does not keep is a slab no message needed for a whole
// garbage-collection cycle: a burst of traffic — a ring warming up —
// would otherwise leave idle slabs behind that raise the heap goal of
// a ring that has gone quiet. sync.Pool has that policy, but its
// per-P caches can hold a free slab back from the receive loop's P;
// this list is one stack per size, trimmed from the bottom at each
// collection (trim).
type slabPool struct {
	mu   sync.Mutex
	free map[int][][]byte // per size, a stack: the newest slab on top
	// unused is, per size, how many slabs at the bottom of the stack no
	// get has reached since the last collection — the stack's low-water
	// mark over the cycle.
	unused map[int]int
	armed  bool // a collection will trim the lists (gcTick)
}

// slabPoison is what a recycled slab is overwritten with in test
// binaries: a view that outlived every holder of its slab reads this
// pattern instead of the bytes it was decoded from, so lifetime bugs
// fail answer checks instead of passing by luck.
const slabPoison = 0xdb

// get returns an n-byte slab: the first n bytes of the smallest free
// slab of size [n, 2n), or a fresh allocation when none is free. The
// sizes are few (one per message shape), so they are searched linearly.
func (p *slabPool) get(n int) []byte {
	p.mu.Lock()
	fit := 0
	for size, list := range p.free {
		if len(list) > 0 && size >= n && size < 2*n && (fit == 0 || size < fit) {
			fit = size
		}
	}
	if list := p.free[fit]; fit > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[fit] = list[:len(list)-1]
		p.unused[fit] = min(p.unused[fit], len(list)-1)
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]byte, n)
}

// put returns a slab that get handed out, whole (to its capacity);
// nothing may read or write it afterwards.
func (p *slabPool) put(b []byte) {
	if b = b[:cap(b)]; len(b) == 0 {
		return
	}
	if testing.Testing() {
		for i := range b {
			b[i] = slabPoison
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free, p.unused = map[int][][]byte{}, map[int]int{}
	}
	p.free[len(b)] = append(p.free[len(b)], b)
	if !p.armed {
		p.armed = true
		armGCTick(p)
	}
}

// trim runs after each garbage collection while the pool holds free
// slabs: it drops the slabs no get reached during the cycle that just
// ended and starts watching the next one. It reports whether any slab
// is left to watch.
func (p *slabPool) trim() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for n, list := range p.free {
		k := p.unused[n]
		rest := copy(list, list[k:])
		clear(list[rest:])
		if rest == 0 {
			delete(p.free, n)
			delete(p.unused, n)
			continue
		}
		p.free[n], p.unused[n] = list[:rest], rest
	}
	p.armed = len(p.free) > 0
	return p.armed
}

// gcTick carries a finalizer: it is garbage from the start, so the
// finalizer runs after the next collection, trims the pool and arms
// another tick while slabs are left. A pool with nothing free is not
// watched, so an endpoint nobody closed does not stay reachable.
type gcTick struct{ p *slabPool }

func armGCTick(p *slabPool) {
	runtime.SetFinalizer(&gcTick{p}, func(t *gcTick) {
		if t.p.trim() {
			armGCTick(t.p)
		}
	})
}
