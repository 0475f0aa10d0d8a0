package rdma

import (
	"runtime"
	"sync"
	"testing"
)

// slabPool is one receiving endpoint's free list of receive buffers
// (slabs), keyed by exact message size: the emulation's registered
// receive memory, reused instead of allocated per message (§2.3 —
// registration is the costly step, so real verbs register once and
// recycle). Fragments of one column share a size, so a ring in steady
// state finds a slab of the right size on its list and allocates
// nothing. A slab is allocated only when its size's list is empty, so
// the number of slabs never exceeds the peak held at once and the list
// needs no bound of its own.
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

// get returns an n-byte slab: a recycled one of exactly that size, or
// a fresh allocation when none is free.
func (p *slabPool) get(n int) []byte {
	p.mu.Lock()
	if list := p.free[n]; len(list) > 0 {
		b := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[n] = list[:len(list)-1]
		p.unused[n] = min(p.unused[n], len(list)-1)
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]byte, n)
}

// put returns a slab that get handed out, whole; nothing may read or
// write it afterwards.
func (p *slabPool) put(b []byte) {
	if len(b) == 0 {
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
