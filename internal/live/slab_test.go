package live

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
	"repro/internal/minisql"
)

// slabRows is the fragment size of the lifetime test's columns: every
// fragment of every column marshals to the same size, so the slabs one
// column's traffic frees are the ones the next arrival is received into.
const slabRows = 512

// slabValues are the lifetime test's int columns: p.val (4 fragments)
// is the data under test, q.val (4 fragments) the traffic that forces
// recycling, s.val (one fragment) the single-fragment result. Their
// values span more than 32 bits, so they travel 8 bytes wide; t.val
// (one fragment) spans less than 16 bits and travels 2 bytes wide. No
// value repeats across them, and none looks like the poison pattern a
// test binary overwrites recycled slabs with.
func slabValues() map[string][]int64 {
	p, q := make([]int64, 4*slabRows), make([]int64, 4*slabRows)
	s, narrow := make([]int64, slabRows), make([]int64, slabRows)
	for i := range p {
		p[i], q[i] = int64(3*i+1)<<33, -int64(3*i+1)<<33
	}
	for i := range s {
		s[i], narrow[i] = int64(3*i+2)<<33, int64(3*i+2)
	}
	return map[string][]int64{"p.val": p, "q.val": q, "s.val": s, "t.val": narrow}
}

// slabDecimals is the lifetime test's float column u.val (one
// fragment): cents whose scaled integers span less than 16 bits, so it
// travels as 2-byte decimal codes, the size of t.val's message. Read as
// codes, a poisoned slab decodes to 562.85, past every value.
func slabDecimals() []float64 {
	u := make([]float64, slabRows)
	for i := range u {
		u[i] = float64(3*i+2) / 100
	}
	return u
}

// slabStrings is the lifetime test's string column v.val (one
// fragment): 300 distinct values, so it travels as 2-byte dictionary
// codes followed by its dictionary.
func slabStrings() []string {
	v := make([]string, slabRows)
	for i := range v {
		v[i] = fmt.Sprintf("v%03d", 7*i%300)
	}
	return v
}

func slabRing(t *testing.T, cfg Config) *Ring {
	t.Helper()
	cols := map[string]*bat.BAT{"u.val": bat.MakeFloats("u.val", slabDecimals()), "v.val": bat.MakeStrs("v.val", slabStrings())}
	for name, vals := range slabValues() {
		cols[name] = bat.MakeInts(name, vals)
	}
	cfg.FragmentRows = slabRows
	r, err := NewRing(3, cols, minisql.MapSchema{"p": {"val"}, "q": {"val"}, "s": {"val"}, "t": {"val"}, "u": {"val"}, "v": {"val"}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// fragValues is what fragment id of column name holds.
func fragValues(t *testing.T, r *Ring, name string, id core.BATID) []int64 {
	t.Helper()
	ids, _ := r.Fragments(name)
	k := slices.Index(ids, id)
	if k < 0 {
		t.Fatalf("fragment %d is not one of %s's", id, name)
	}
	return slabValues()[name][k*slabRows : (k+1)*slabRows]
}

func tailInts(b *bat.BAT) []int64 {
	out := make([]int64, b.Len())
	for i := range out {
		out[i] = b.Tail().Int(i)
	}
	return out
}

// tailBits is a float tail's values as their bit patterns: equal only
// when every value is the same float64 to the bit.
func tailBits(b *bat.BAT) []uint64 {
	out := make([]uint64, b.Len())
	for i := range out {
		out[i] = math.Float64bits(b.Tail().Float(i))
	}
	return out
}

// remoteFrag is a fragment of column name that reader does not own.
func remoteFrag(r *Ring, reader *Node, name string) core.BATID {
	ids, _ := r.Fragments(name)
	for _, id := range ids {
		if r.ownerOf(id) != reader {
			return id
		}
	}
	panic("every fragment of " + name + " is the reader's")
}

// bareDC is a query handle on n that never registered for the grace
// period: a pin through it is held by nothing but its delivery.
func bareDC(n *Node) *queryDC {
	return &queryDC{n: n, q: core.QueryID(atomic.AddInt64(&n.nextQ, 1))<<16 | core.QueryID(n.id)}
}

// ringDelivered waits on the ring for fragment id as a one-part map does,
// calls held with the delivery while the map holds its runtime pin, and
// returns the delivery once the map has released it.
func ringDelivered(t *testing.T, dc *queryDC, id core.BATID, held func(*fragment)) *fragment {
	t.Helper()
	if dc.n.hot != nil {
		dc.n.hot.drop(id) // a cache hit would not be a ring delivery
	}
	var f *fragment
	h := &fragHandle{name: "ringDelivered", ids: []core.BATID{id}}
	_, err := dc.PinMap([]mal.Value{h}, func(p mal.DCRuntime) (mal.Value, error) {
		a := &p.(*partDC).acqs[0]
		if !a.viaRing {
			return nil, fmt.Errorf("fragment %d did not come off the ring", id)
		}
		f = a.f
		held(f)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// recycled reports whether s went back to its endpoint's free list.
func recycled(s *slab) bool {
	set := &s.node.slabs
	set.mu.Lock()
	defer set.mu.Unlock()
	return set.out[unsafe.SliceData(s.buf)] != s
}

// churn makes every node but reader pull q.val around the ring again
// (their cache entries for it are dropped first), so reader receives and
// recycles slabs the size of the ones under test, and checks the sums.
// It runs no query on reader itself: a query there would hold every
// retired slab for its grace period and hide a missing hold.
func churn(t *testing.T, r *Ring, reader *Node) {
	t.Helper()
	ids, _ := r.Fragments("q.val")
	var want int64
	for _, v := range slabValues()["q.val"] {
		want += v
	}
	for _, n := range r.nodeList() {
		if n == reader {
			continue
		}
		if n.hot != nil {
			for _, id := range ids {
				n.hot.drop(id)
			}
		}
		if got := execWithin(t, n, "select sum(val) from q").Row(0)[0].(int64); got != want {
			t.Fatalf("node %d: traffic query summed to %d, want %d", n.id, got, want)
		}
	}
}

// execWithin runs sql on n and fails the test if no answer comes
// within 10 s: a fragment that arrives unreadable is dropped, and a pin
// waiting for it never returns.
func execWithin(t *testing.T, n *Node, sql string) *mal.ResultSet {
	t.Helper()
	type answer struct {
		rs  *mal.ResultSet
		err error
	}
	done := make(chan answer, 1)
	go func() {
		rs, err := n.ExecSQL(sql)
		done <- answer{rs, err}
	}()
	select {
	case a := <-done:
		if a.err != nil {
			t.Fatalf("node %d: %v", n.id, a.err)
		}
		return a.rs
	case <-time.After(10 * time.Second):
		t.Fatalf("node %d: no answer to %q in 10 s: a fragment arrived unreadable", n.id, sql)
		return nil
	}
}

// settle churns until s has at most held holders — a hold that is
// missing shows as fewer — and then once more, so recycling runs with s
// at its final count.
func settle(t *testing.T, r *Ring, reader *Node, s *slab, held int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.refs.Load() > held {
		if time.Now().After(deadline) {
			t.Fatalf("slab still has %d holders, want %d", s.refs.Load(), held)
		}
		churn(t, r, reader)
	}
	churn(t, r, reader)
}

// TestSlabLifetime: a received slab is recycled — and, in a test
// binary, overwritten with the poison pattern — only when nothing can
// read it any more. Each holder alone keeps its slab off the free list
// while traffic recycles the slabs around it, and what leaves a query
// survives the reuse of the slab it was read from.
func TestSlabLifetime(t *testing.T) {
	t.Run("cache entry", func(t *testing.T) {
		r := slabRing(t, DefaultConfig())
		reader := r.Node(1)
		if _, err := reader.Fetch("p.val"); err != nil {
			t.Fatal(err)
		}
		entries := map[core.BATID]*hotEntry{}
		reader.hot.mu.Lock()
		ids, _ := r.Fragments("p.val")
		for _, id := range ids {
			if e := reader.hot.entries[id]; e != nil {
				entries[id] = e
			}
		}
		reader.hot.mu.Unlock()
		if len(entries) == 0 {
			t.Fatal("the fetch cached no remote fragment")
		}
		for _, e := range entries {
			var held int32
			for _, other := range entries {
				if other.f.slab == e.f.slab {
					held++
				}
			}
			settle(t, r, reader, e.f.slab, held)
		}
		for id, e := range entries {
			if recycled(e.f.slab) {
				t.Fatalf("fragment %d: slab recycled under its cache entry", id)
			}
			if got, want := tailInts(e.f.b), fragValues(t, r, "p.val", id); !slices.Equal(got, want) {
				t.Fatalf("fragment %d: cache entry reads %v…, want %v…", id, got[:3], want[:3])
			}
		}
	})

	t.Run("pinned delivery", func(t *testing.T) {
		r := slabRing(t, DefaultConfig())
		reader := r.Node(1)
		ids, _ := r.Fragments("p.val")
		id := remoteFrag(r, reader, "p.val")
		var s *slab
		ringDelivered(t, bareDC(reader), id, func(f *fragment) {
			for _, other := range ids {
				reader.hot.drop(other)
			}
			reader.mu.Lock()
			s = reader.cached[id].slab
			reader.mu.Unlock()
			settle(t, r, reader, s, 1)
			if recycled(s) {
				t.Fatal("slab recycled under a pinned delivery")
			}
			if got, want := tailInts(f.b), fragValues(t, r, "p.val", id); !slices.Equal(got, want) {
				t.Fatalf("pinned delivery reads %v…, want %v…", got[:3], want[:3])
			}
		})
		if !recycled(s) {
			t.Fatal("slab not recycled once its last holder let go")
		}
	})

	t.Run("in-flight forward", func(t *testing.T) {
		// No cache: a fragment passing node 1 on its way from node 0 to
		// node 2 is held, once the receive loop has let go of its
		// message, by its hop entry alone — the slab hold SendData takes
		// at the enqueue, kept while the entry waits out the flush
		// loop's linger. Node 1 runs no query.
		cfg := DefaultConfig()
		cfg.CacheBytes = 0
		r := slabRing(t, cfg)
		var want int64
		for _, v := range slabValues()["p.val"] {
			want += v
		}
		for i := 0; i < 5; i++ {
			if got := execWithin(t, r.Node(2), "select sum(val) from p").Row(0)[0].(int64); got != want {
				t.Fatalf("query %d summed to %d, want %d", i, got, want)
			}
		}
		if n := ringResends(r); n != 0 {
			t.Fatalf("%d resends: a forwarded fragment arrived unreadable", n)
		}
	})

	// A running query holds views without holds — a cache hit, or a
	// delivery after its unpin (pinMerged) — while everything that held
	// their slab lets go.
	views := map[string]func(t *testing.T, r *Ring, reader *Node, id core.BATID) *fragment{
		"cache hit": func(t *testing.T, r *Ring, reader *Node, id core.BATID) *fragment {
			// Another node's fetch: the fragment reaches reader's cache
			// in passing, and the hit is the first view of its slab.
			if _, err := r.Node(2).Fetch("p.val"); err != nil {
				t.Fatal(err)
			}
			f := reader.hot.get(id, 0)
			if f == nil {
				t.Fatal("the passing fragment was not cached")
			}
			return f
		},
		"delivery": func(t *testing.T, r *Ring, reader *Node, id core.BATID) *fragment {
			return ringDelivered(t, bareDC(reader), id, func(*fragment) {})
		},
	}
	for via, view := range views {
		t.Run("running query, "+via, func(t *testing.T) {
			r := slabRing(t, DefaultConfig())
			reader := r.Node(1)
			id := remoteFrag(r, reader, "p.val")
			e := reader.enterQuery()
			f := view(t, r, reader, id)
			s := f.slab
			ids, _ := r.Fragments("p.val")
			for _, other := range ids {
				reader.hot.drop(other)
			}
			settle(t, r, reader, s, 0)
			if recycled(s) {
				t.Fatal("slab recycled under a running query's view")
			}
			if got, want := tailInts(f.b), fragValues(t, r, "p.val", id); !slices.Equal(got, want) {
				t.Fatalf("running query's view reads %v…, want %v…", got[:3], want[:3])
			}
			reader.exitQuery(e)
			if !recycled(s) {
				t.Fatal("slab not recycled once the query returned")
			}
		})
	}

	t.Run("results", func(t *testing.T) {
		r := slabRing(t, DefaultConfig())
		ids, _ := r.Fragments("s.val")
		id := ids[0]
		reader := r.node((int(r.ownerOf(id).id) + 1) % r.Size())
		fetched, err := reader.Fetch("s.val")
		if err != nil {
			t.Fatal(err)
		}
		rs, err := reader.ExecSQL("select val from s")
		if err != nil {
			t.Fatal(err)
		}
		reader.hot.mu.Lock()
		s := reader.hot.entries[id].f.slab
		reader.hot.mu.Unlock()
		reader.hot.drop(id)
		settle(t, r, reader, s, 0)
		if !recycled(s) {
			t.Fatal("the results' slab was never recycled; the test proves nothing")
		}
		want := slabValues()["s.val"]
		if got := tailInts(fetched); !slices.Equal(got, want) {
			t.Fatalf("fetched column reads %v…, want %v…", got[:3], want[:3])
		}
		got := tailInts(rs.Cols[0])
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("query result reads %v…, want %v…", got[:3], want[:3])
		}
	})

	// A narrow fragment: its cache entry alone keeps its slab off the free
	// list — the codes it reads are a view of that slab — and the column
	// Fetch returns, a copy of those codes in memory of its own, outlives
	// the slab.
	t.Run("narrow tail", func(t *testing.T) {
		r := slabRing(t, DefaultConfig())
		ids, _ := r.Fragments("t.val")
		id := ids[0]
		reader := r.node((int(r.ownerOf(id).id) + 1) % r.Size())
		fetched, err := reader.Fetch("t.val")
		if err != nil {
			t.Fatal(err)
		}
		reader.hot.mu.Lock()
		f := reader.hot.entries[id].f
		reader.hot.mu.Unlock()
		if w := f.b.Tail().Width(); w != 2 {
			t.Fatalf("the cached fragment is %d bytes wide, want 2", w)
		}
		if w := fetched.Tail().Width(); w != 2 {
			t.Fatalf("the fetched column is %d bytes wide, want the fragment's 2", w)
		}
		if inSlab(fetched.Tail(), f.slab) {
			t.Fatal("the fetched column's codes are a view of the slab, not a copy")
		}
		want := slabValues()["t.val"]
		settle(t, r, reader, f.slab, 1)
		if recycled(f.slab) {
			t.Fatal("slab recycled under its narrow cache entry")
		}
		if got := tailInts(f.b); !slices.Equal(got, want) {
			t.Fatalf("narrow cache entry reads %v…, want %v…", got[:3], want[:3])
		}
		reader.hot.drop(id)
		settle(t, r, reader, f.slab, 0)
		if !recycled(f.slab) {
			t.Fatal("the narrow fragment's slab was never recycled; the test proves nothing")
		}
		if got := tailInts(fetched); !slices.Equal(got, want) {
			t.Fatalf("fetched narrow column reads %v…, want %v…", got[:3], want[:3])
		}
	})

	// A decimal float fragment, the same way: the cache entry's codes are
	// a view of its slab, which Span reports, and Fetch copies them into
	// a decimal column of its own.
	t.Run("decimal tail", func(t *testing.T) {
		r := slabRing(t, DefaultConfig())
		ids, _ := r.Fragments("u.val")
		id := ids[0]
		reader := r.node((int(r.ownerOf(id).id) + 1) % r.Size())
		fetched, err := reader.Fetch("u.val")
		if err != nil {
			t.Fatal(err)
		}
		reader.hot.mu.Lock()
		f := reader.hot.entries[id].f
		reader.hot.mu.Unlock()
		if w := f.b.Tail().Width(); w != 2 {
			t.Fatalf("the cached fragment is %d bytes wide, want 2", w)
		}
		if lo, hi := f.b.Tail().Span(); lo < slabStart(f.slab) || hi > slabStart(f.slab)+uintptr(len(f.slab.buf)) || hi-lo != 2*slabRows {
			t.Fatalf("the cached codes span [%#x, %#x), want %d bytes of the slab at %#x", lo, hi, 2*slabRows, slabStart(f.slab))
		}
		if w := fetched.Tail().Width(); w != 2 || fetched.Tail().Kind() != bat.KFloat {
			t.Fatalf("the fetched column is a %d-byte %s column, want a 2-byte float", w, fetched.Tail().Kind())
		}
		if inSlab(fetched.Tail(), f.slab) {
			t.Fatal("the fetched column's codes are a view of the slab, not a copy")
		}
		want := tailBits(bat.MakeFloats("u.val", slabDecimals()))
		settle(t, r, reader, f.slab, 1)
		if recycled(f.slab) {
			t.Fatal("slab recycled under its decimal cache entry")
		}
		if got := tailBits(f.b); !slices.Equal(got, want) {
			t.Fatalf("decimal cache entry reads %v…, want %v…", got[:3], want[:3])
		}
		reader.hot.drop(id)
		settle(t, r, reader, f.slab, 0)
		if !recycled(f.slab) {
			t.Fatal("the decimal fragment's slab was never recycled; the test proves nothing")
		}
		if got := tailBits(fetched); !slices.Equal(got, want) {
			t.Fatalf("fetched decimal column reads %v…, want %v…", got[:3], want[:3])
		}
	})

	// A dictionary string fragment, the same way: the cache entry's codes
	// are a view of its slab, its dictionary is not, and Fetch copies the
	// codes into a dictionary column of its own.
	t.Run("dictionary tail", func(t *testing.T) {
		r := slabRing(t, DefaultConfig())
		ids, _ := r.Fragments("v.val")
		id := ids[0]
		reader := r.node((int(r.ownerOf(id).id) + 1) % r.Size())
		fetched, err := reader.Fetch("v.val")
		if err != nil {
			t.Fatal(err)
		}
		reader.hot.mu.Lock()
		f := reader.hot.entries[id].f
		reader.hot.mu.Unlock()
		if lo, hi := f.b.Tail().Span(); lo < slabStart(f.slab) || hi > slabStart(f.slab)+uintptr(len(f.slab.buf)) || hi-lo != 2*slabRows {
			t.Fatalf("the cached codes span [%#x, %#x), want %d bytes of the slab at %#x", lo, hi, 2*slabRows, slabStart(f.slab))
		}
		if w := fetched.Tail().Width(); w != 2 || fetched.Tail().Kind() != bat.KStr {
			t.Fatalf("the fetched column is a %d-byte %s column, want 2-byte string codes", w, fetched.Tail().Kind())
		}
		if inSlab(fetched.Tail(), f.slab) {
			t.Fatal("the fetched column's codes are a view of the slab, not a copy")
		}
		want := slabStrings()
		settle(t, r, reader, f.slab, 1)
		if recycled(f.slab) {
			t.Fatal("slab recycled under its dictionary cache entry")
		}
		if got := tailStrs(f.b); !slices.Equal(got, want) {
			t.Fatalf("dictionary cache entry reads %q…, want %q…", got[:3], want[:3])
		}
		reader.hot.drop(id)
		settle(t, r, reader, f.slab, 0)
		if !recycled(f.slab) {
			t.Fatal("the dictionary fragment's slab was never recycled; the test proves nothing")
		}
		if got := tailStrs(fetched); !slices.Equal(got, want) {
			t.Fatalf("fetched dictionary column reads %q…, want %q…", got[:3], want[:3])
		}
	})
}

// tailStrs is a string tail's values.
func tailStrs(b *bat.BAT) []string {
	out := make([]string, b.Len())
	for i := range out {
		out[i] = b.Tail().Str(i)
	}
	return out
}

// slabStart is the address of s's first byte.
func slabStart(s *slab) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(s.buf))) }

// inSlab reports whether any of c's values lie in s.
func inSlab(c *bat.Column, s *slab) bool {
	lo, hi := c.Span()
	return lo < slabStart(s)+uintptr(len(s.buf)) && slabStart(s) < hi
}
