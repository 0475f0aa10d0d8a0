package live

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/leakcheck"
	"repro/internal/mal"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
	"repro/internal/tpch"
)

// heldPayloads counts the ring deliveries n's queries hold pinned.
func heldPayloads(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return pinnedEntries(n)
}

// pinnedEntries counts n's table entries in the pinned role. Called
// with n.mu held.
func pinnedEntries(n *Node) (k int) {
	for _, e := range n.tab.m {
		if e.pinned {
			k++
		}
	}
	return k
}

// checkNothingHeld asserts a finished (or failed) query left no
// protocol state on n: no waiter, no pinned delivery, no runtime pin,
// no pin shared by several acquisitions — and a fragment table that
// keeps its invariants (checkTable).
func checkNothingHeld(t *testing.T, n *Node) {
	t.Helper()
	n.mu.Lock()
	waiters, cached, shared, rt := len(n.waiters), pinnedEntries(n), len(n.sharedPins), n.rt.String()
	n.mu.Unlock()
	if waiters != 0 || cached != 0 || shared != 0 || !strings.Contains(rt, " pins=0 ") {
		t.Fatalf("left behind: %d waiters, %d cached payloads, %d shared pins, runtime %q", waiters, cached, shared, rt)
	}
	checkTable(t, n)
}

// checkTable asserts n's fragment table keeps its invariants: every
// entry holds its fragment in some role; the hot bytes are the hot
// entries' charges, within budget, and 0 with CacheBytes 0; no entry is
// pinned while the runtime counts no pin on it; and every slab an entry
// holds is still off the free list.
func checkTable(t *testing.T, n *Node) {
	t.Helper()
	var faults []string
	n.mu.Lock()
	var hot int64
	for id, e := range n.tab.m {
		if !e.owned && !e.replica && !e.pinned && !e.hot {
			faults = append(faults, fmt.Sprintf("fragment %d has no role", id))
		}
		if e.hot {
			hot += e.bytes
		}
		if e.pinned && n.rt.CachePins(id) == 0 {
			faults = append(faults, fmt.Sprintf("fragment %d is pinned with no runtime pin", id))
		}
		if s := e.f.slab; s != nil && recycled(s) {
			faults = append(faults, fmt.Sprintf("fragment %d holds a recycled slab", id))
		}
	}
	if b := n.tab.cs.Bytes; b != hot || b > n.tab.budget || n.cfg.CacheBytes == 0 && b != 0 {
		faults = append(faults, fmt.Sprintf("%d hot bytes: entries charge %d, budget %d", b, hot, n.tab.budget))
	}
	n.mu.Unlock()
	if len(faults) > 0 {
		t.Fatalf("node %d fragment table: %s", n.id, strings.Join(faults, "; "))
	}
}

// fragLens reads a column's fragment lengths from the owners' stores.
func fragLens(t *testing.T, r *Ring, name string) []int {
	t.Helper()
	ids, ok := r.Fragments(name)
	if !ok {
		t.Fatalf("no column %s", name)
	}
	lens := make([]int, len(ids))
	for i, id := range ids {
		f := ownerStoreRead(r, id)
		if f == nil {
			t.Fatalf("%s fragment %d has no stored copy", name, i)
		}
		lens[i] = f.b.Len()
	}
	return lens
}

// TestRegionAcquiresEveryFragmentUpFront holds every part of an aligned
// map before its first pin and waits for all k × n fragments to be
// delivered anyway: acquisitions belong to the map, not to the parts.
// A map that acquired a part's fragments only when that part ran would
// never get past the parts its Workers workers hold — and on a
// starved ring would pay an extra revolution per index for envelopes
// that went by unregistered (ring_thrash p50 +38 % when it was tried).
func TestRegionAcquiresEveryFragmentUpFront(t *testing.T) {
	cols, schema := fragColumns(2000)
	cfg := DefaultConfig()
	cfg.FragmentRows = 256
	cfg.CacheBytes = 0 // every fragment another node owns comes off the ring
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := r.Node(0)
	dc := &queryDC{n: n, q: 1<<16 | core.QueryID(n.id)}
	var handles []mal.Value
	away := 0
	for _, col := range []string{"v", "k"} {
		h, err := dc.Request("sys", "big", col)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		for _, id := range h.(*fragHandle).ids {
			if r.ownerOf(id) != n {
				away++
			}
		}
	}
	if parts := len(handles[0].(*fragHandle).ids); parts <= cfg.Workers || away < parts {
		t.Fatalf("%d parts, %d fragments away: too few to outnumber the %d workers", parts, away, cfg.Workers)
	}

	release := make(chan struct{})
	type outcome struct {
		parts []mal.Value
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		parts, err := dc.PinMap(handles, func(p mal.DCRuntime) (mal.Value, error) {
			<-release
			rows := 0
			for slot := range handles {
				v, err := p.Pin(mal.Slot(slot))
				if err != nil {
					return nil, err
				}
				rows += v.(*bat.BAT).Len()
				if err := p.Unpin(v); err != nil {
					return nil, err
				}
			}
			return rows, nil
		})
		done <- outcome{parts, err}
	}()
	waitFor(t, "every fragment of every part to be delivered while all parts are held", 10*time.Second,
		func() bool { return heldPayloads(n) == away })
	close(release)
	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	rows := 0
	for _, p := range out.parts {
		rows += p.(int)
	}
	if rows != 2*2000 {
		t.Fatalf("parts saw %d rows, want %d", rows, 2*2000)
	}
	n.mu.Lock()
	n.rt.CancelQuery(dc.q, dc.bats)
	n.mu.Unlock()
	checkNothingHeld(t, n)
}

// TestCachelessRegionNeverResends serves Q6ish from two nodes of a
// cache-less ring at once. Every fragment is waited for at most once
// per query — the region registers each pin once, up front — and no
// request ever sits out the resend timer. With one fragment per column
// every pin is a one-part map, and the map itself releases what it
// pinned.
func TestCachelessRegionNeverResends(t *testing.T) {
	db := tpch.GenDB(0.001, 18)
	want := q6ishReference(t, db, db.ColumnMap()["lineitem.l_quantity"])
	for _, rows := range []int{1024, 1 << 20} {
		t.Run(fmt.Sprintf("FragmentRows=%d", rows), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.FragmentRows = rows
			cfg.CacheBytes = 0
			r, err := NewRing(3, db.ColumnMap(), db.Schema(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()

			const queries = 8
			var wg sync.WaitGroup
			for node := 0; node < 2; node++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					for i := 0; i < queries; i++ {
						rs, err := r.Node(node).ExecSQL(tpch.Q6ishSQL)
						if err != nil {
							t.Errorf("node %d: %v", node, err)
							return
						}
						if got := rs.Rows(); !maltest.SameRows(want, got) {
							t.Errorf("node %d answered %v, want %v", node, got, want)
							return
						}
					}
				}(node)
			}
			wg.Wait()
			for node := 0; node < 2; node++ {
				n := r.Node(node)
				away := 0
				for _, col := range []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"} {
					ids, _ := r.Fragments("lineitem." + col)
					for _, id := range ids {
						if r.ownerOf(id) != n {
							away++
						}
					}
				}
				if waits := n.CacheStats().RingWaits; waits > int64(queries*away) {
					t.Errorf("node %d: %d ring waits over %d queries, at most %d fragments away each", node, waits, queries, away)
				}
				if st := n.Stats(); st.Resends != 0 {
					t.Errorf("node %d: %d resends on a lossless ring", node, st.Resends)
				}
				checkNothingHeld(t, n)
			}
		})
	}
}

// TestUpdateKeepsFragmentBoundaries: a new version is cut where the
// current one is, so the column stays aligned with the rest of its
// table, and a version of another length is refused: its version and
// boundaries stay as they were, and a query on the table answers what
// mal.Run answers on the columns before the refused update.
func TestUpdateKeepsFragmentBoundaries(t *testing.T) {
	cols, schema := fragColumns(2000)
	cfg := DefaultConfig()
	cfg.FragmentRows = 256
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	base := fragLens(t, r, "big.k")
	update := func(vals []int64) (int, error) {
		return r.UpdateColumn("big.v", func(*bat.BAT) *bat.BAT { return bat.MakeInts("big.v", vals) })
	}

	doubled := make([]int64, 2000)
	for i := range doubled {
		doubled[i] = cols["big.v"].Tail().Int(i) * 2
	}
	if v, err := update(doubled); err != nil || v != 1 {
		t.Fatalf("same-length update: version %d, err %v", v, err)
	}
	if got := fragLens(t, r, "big.v"); !reflect.DeepEqual(got, base) {
		t.Fatalf("same-length update moved the boundaries: %v, sibling column %v", got, base)
	}

	longer := make([]int64, 2100)
	for i := range longer {
		longer[i] = int64(i*37) % 10000
	}
	if v, err := update(longer); err == nil {
		t.Fatalf("a 2,100-row version of a 2,000-row column was installed as version %d", v)
	}
	if v, _ := r.Version("big.v"); v != 1 {
		t.Fatalf("refused update left version %d, want 1", v)
	}
	if got := fragLens(t, r, "big.v"); !reflect.DeepEqual(got, base) {
		t.Fatalf("refused update moved the boundaries: %v, sibling column %v", got, base)
	}

	const q = "select sum(v), count(*) from big where v >= 100 and k < 5"
	plan, err := minisql.Compile(q, schema, "sys")
	if err != nil {
		t.Fatal(err)
	}
	whole := catalogOf{"big.v": bat.MakeInts("big.v", doubled), "big.k": cols["big.k"]}
	ref, err := mal.Run(&mal.Context{Registry: mal.Standard(), Catalog: whole}, plan)
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < r.Size(); node++ {
		n := r.Node(node)
		rs, err := n.ExecSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := ref.(*mal.ResultSet).Rows(), rs.Rows(); !reflect.DeepEqual(want, got) {
			t.Fatalf("node %d answered %v, whole columns say %v", node, got, want)
		}
		checkNothingHeld(t, n)
	}
}

// TestRegionFailureLeaksNothing fails a query in the middle of its
// region: one of the region's columns has fragments no node owns, so
// their requests come back unanswered and the runtime gives the query
// up while the other column's fragments are arriving, pinned, or being
// scanned. Every part's pins must be released and every goroutine gone
// by the time ExecSQL returns.
func TestRegionFailureLeaksNothing(t *testing.T) {
	cols, _ := fragColumns(2000)
	schema := minisql.MapSchema{"big": {"v", "k", "ghost"}, "dim": {"id", "name"}}
	cfg := DefaultConfig()
	cfg.FragmentRows = 256
	cfg.CacheBytes = 0
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	real, _ := r.Fragments("big.v")
	ghost := make([]core.BATID, len(real))
	for i := range ghost {
		ghost[i] = core.BATID(900001 + i)
	}
	r.idsMu.Lock()
	r.cols["big.ghost"] = &colFrags{ids: ghost}
	r.idsMu.Unlock()

	n := r.Node(0)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := n.ExecSQL("select count(*) from big where v >= 100 and ghost < 5"); err == nil {
			t.Fatal("query over phantom fragments succeeded")
		}
		checkNothingHeld(t, n)
	}
	// ExecPlan runs the interpreter on its caller, and a map waits for
	// its workers and acquisitions before it returns; what is left is
	// the ring's own goroutines settling.
	waitFor(t, "the failed queries' goroutines to exit", 10*time.Second,
		func() bool { return n.InterpRunning() == 0 && runtime.NumGoroutine() <= before })
}

// raise lifts the high-water mark hw to v.
func raise(hw *atomic.Int32, v int32) {
	for old := hw.Load(); v > old && !hw.CompareAndSwap(old, v); old = hw.Load() {
	}
}

// TestPartsRunOnceWithinWorkers maps a part over 63 fragment
// indexes of two columns whose fragments sit at random ring positions
// of a cache-less ring, so they arrive out of order and a part's two
// fragments apart. Every index must run exactly once, the results come
// back in fragment order, and no more than Workers parts are ever
// inside part at once. Over a hot map — every fragment owned — the map
// may start no goroutine beyond its Workers − 1 workers: a part
// whose fragments are in is a queue entry, not a goroutine.
func TestPartsRunOnceWithinWorkers(t *testing.T) {
	const rows, fragRows, workers = 2000, 32, 3
	const parts = (rows + fragRows - 1) / fragRows
	cols, schema := fragColumns(rows)
	// index pins every slot of a part and reads its fragment index off
	// the dense head base, which carries the global row offset.
	index := func(p mal.DCRuntime, slots int) (int, error) {
		i := -1
		for slot := 0; slot < slots; slot++ {
			v, err := p.Pin(mal.Slot(slot))
			if err != nil {
				return 0, err
			}
			if b := v.(*bat.BAT); i < 0 {
				i = int(b.Head().Base()) / fragRows
			}
			if err := p.Unpin(v); err != nil {
				return 0, err
			}
		}
		return i, nil
	}
	done := func(n *Node, dc *queryDC) {
		n.mu.Lock()
		n.rt.CancelQuery(dc.q, dc.bats)
		n.mu.Unlock()
	}

	t.Run("adverse", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		cfg := DefaultConfig()
		cfg.FragmentRows = fragRows
		cfg.CacheBytes = 0
		cfg.Workers = workers
		cfg.placeFragment = func(frag, nodes int) int { return rng.Intn(nodes) }
		r, err := NewRing(4, cols, schema, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		n := r.Node(0)
		for round := 1; round <= 3; round++ {
			dc := &queryDC{n: n, q: core.QueryID(round)<<16 | core.QueryID(n.id)}
			var handles []mal.Value
			for _, col := range []string{"v", "k"} {
				h, err := dc.Request("sys", "big", col)
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, h)
			}
			var inside, peak atomic.Int32
			var runs [parts]atomic.Int32
			out, err := dc.PinMap(handles, func(p mal.DCRuntime) (mal.Value, error) {
				raise(&peak, inside.Add(1))
				defer inside.Add(-1)
				i, err := index(p, len(handles))
				if err != nil {
					return nil, err
				}
				runs[i].Add(1)
				time.Sleep(100 * time.Microsecond) // let the workers overlap
				return i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			done(n, dc)
			if len(out) != parts {
				t.Fatalf("round %d: %d results, want %d", round, len(out), parts)
			}
			for i := range out {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("round %d: index %d ran %d times, want once", round, i, got)
				}
				if out[i] != i {
					t.Fatalf("round %d: result %d came from index %v: not in fragment order", round, i, out[i])
				}
			}
			if got := peak.Load(); got > workers {
				t.Fatalf("round %d: %d parts inside part at once, Workers is %d", round, got, workers)
			}
			checkNothingHeld(t, n)
		}
	})

	t.Run("hot", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.FragmentRows = fragRows
		cfg.Workers = workers
		cfg.placeFragment = func(frag, nodes int) int { return 0 } // the querying node owns every fragment
		r, err := NewRing(2, cols, schema, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		n := r.Node(0)
		for round := 1; round <= 3; round++ {
			// No Request: a map over owned fragments sends nothing.
			dc := &queryDC{n: n, q: core.QueryID(round)<<16 | core.QueryID(n.id)}
			var handles []mal.Value
			for _, col := range []string{"big.v", "big.k"} {
				ids, _ := r.Fragments(col)
				handles = append(handles, &fragHandle{name: col, ids: ids})
			}
			before := int32(moduleGoroutines())
			var peak atomic.Int32
			if _, err := dc.PinMap(handles, func(p mal.DCRuntime) (mal.Value, error) {
				raise(&peak, int32(moduleGoroutines()))
				time.Sleep(100 * time.Microsecond) // let the workers overlap
				return index(p, len(handles))
			}); err != nil {
				t.Fatal(err)
			}
			done(n, dc)
			if extra := peak.Load() - before; extra > workers-1 {
				t.Fatalf("round %d: a hot map of %d parts started %d goroutines, want at most Workers − 1 = %d", round, parts, extra, workers-1)
			}
			checkNothingHeld(t, n)
		}
	})
}

// moduleGoroutines counts the goroutines this module's code started,
// the caller's included: a ring's loops and whatever a map starts, but
// not the runtime's timer goroutines, which come and go on their own.
func moduleGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "\ncreated by repro/internal/")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// partInUnpin reports whether a goroutine is inside an aligned region's
// part, in a datacyclotron.unpin that releases a fragment: past the
// part's kernels, not in a pin.
func partInUnpin() bool {
	for _, g := range leakcheck.Goroutines() {
		if strings.Contains(g, ".(*queryDC).releaseRing(") && strings.Contains(g, ".(*partDC).Unpin(") &&
			strings.Contains(g, "mal.(*Region).run(") {
			return true
		}
	}
	return false
}

// TestQueryErrorStopsComputingInterpreter fails a query at the protocol
// layer while one of its parts is computing rather than waiting in a
// pin, where failing the pin's waiter would stop it anyway. The test
// holds n.mu until a part blocks on it in an unpin, then fires
// QueryError. ExecPlan must return the protocol error, and the
// interpreter must stop at its next instruction instead of finishing
// the plan: the pins that follow the region (dim's columns) never
// reach the runtime, and InterpRunning is back to 0.
func TestQueryErrorStopsComputingInterpreter(t *testing.T) {
	cols, schema := fragColumns(2000)
	cfg := DefaultConfig()
	cfg.FragmentRows = 64
	cfg.Workers = 1 // plan order, one part at a time
	// Node 0 owns every fragment, and without the hot-set cache an
	// owner pins its fragments at the runtime (a cached ring reads them
	// from the store), so every part's unpin releases a runtime pin
	// under n.mu.
	cfg.placeFragment = func(frag, nodes int) int { return 0 }
	cfg.CacheBytes = 0
	r, err := NewRing(2, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := r.Node(0)
	// big's region (v, k) runs first; dim.name and dim.id are pinned
	// after it.
	const sql = "select dim.name from big, dim where big.k = dim.id and big.v < 100"
	const reason = "failed by the test"
	for attempt := 0; attempt < 20; attempt++ {
		res := make(chan error, 1)
		go func() {
			_, err := n.ExecSQL(sql)
			res <- err
		}()
		var deliveries uint64
		caught := false
		for !caught && len(res) == 0 {
			n.mu.Lock()
			if caught = partInUnpin(); caught {
				for q := range n.errs {
					n.failQueryLocked(q, 0, reason)
				}
				deliveries = n.rt.Stats().Deliveries
			}
			n.mu.Unlock()
		}
		if !caught { // the query finished before a part was caught
			if err := <-res; err != nil {
				t.Fatal(err)
			}
			continue
		}
		err := <-res
		if err == nil || !strings.Contains(err.Error(), reason) {
			t.Fatalf("ExecPlan returned %v, want the protocol error", err)
		}
		if got := n.InterpRunning(); got != 0 {
			t.Fatalf("InterpRunning = %d after ExecPlan returned", got)
		}
		n.mu.Lock()
		after := n.rt.Stats().Deliveries
		n.mu.Unlock()
		if after != deliveries {
			t.Fatalf("%d pins reached the runtime after QueryError: the interpreter ran on to the end of the plan", after-deliveries)
		}
		checkNothingHeld(t, n)
		return
	}
	t.Fatal("no attempt caught a part in an unpin")
}

// pinRows is a part that pins and unpins each of its slots and returns
// the rows it read.
func pinRows(slots int) func(mal.DCRuntime) (mal.Value, error) {
	return func(p mal.DCRuntime) (mal.Value, error) {
		rows := 0
		for slot := 0; slot < slots; slot++ {
			v, err := p.Pin(mal.Slot(slot))
			if err != nil {
				return nil, err
			}
			rows += v.(*bat.BAT).Len()
			if err := p.Unpin(v); err != nil {
				return nil, err
			}
		}
		return rows, nil
	}
}

// sumRows adds up what pinRows parts returned.
func sumRows(parts []mal.Value) int {
	rows := 0
	for _, p := range parts {
		rows += p.(int)
	}
	return rows
}

// TestOneQueryWaitsTwiceOnAFragment: a query that waits on a fragment
// twice at once — one map over the same column twice, or two maps over
// one column side by side — is served by the one pass the runtime
// delivers it, and the runtime pin that pass counted is released once,
// after the last acquisition holding it lets go.
func TestOneQueryWaitsTwiceOnAFragment(t *testing.T) {
	cols, schema := fragColumns(2000)
	cfg := DefaultConfig()
	cfg.FragmentRows = 256
	cfg.CacheBytes = 0 // every fragment another node owns comes off the ring
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := r.Node(0)
	shapes := []struct {
		name string
		pin  func(dc *queryDC, h mal.Value) (int, error)
	}{
		{"one map over the column twice", func(dc *queryDC, h mal.Value) (int, error) {
			parts, err := dc.PinMap([]mal.Value{h, h}, pinRows(2))
			if err != nil {
				return 0, err
			}
			return sumRows(parts), nil
		}},
		{"two maps over the column at once", func(dc *queryDC, h mal.Value) (int, error) {
			type result struct {
				rows int
				err  error
			}
			both := make(chan result, 2)
			for i := 0; i < 2; i++ {
				go func() {
					parts, err := dc.PinMap([]mal.Value{h}, pinRows(1))
					if err != nil {
						both <- result{0, err}
						return
					}
					both <- result{sumRows(parts), nil}
				}()
			}
			rows := 0
			for i := 0; i < 2; i++ {
				res := <-both
				if res.err != nil {
					return 0, res.err
				}
				rows += res.rows
			}
			return rows, nil
		}},
	}
	q := 0
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			for round := 0; round < 3; round++ {
				q++
				dc := &queryDC{n: n, q: core.QueryID(q)<<16 | core.QueryID(n.id)}
				h, err := dc.Request("sys", "big", "v")
				if err != nil {
					t.Fatal(err)
				}
				type result struct {
					rows int
					err  error
				}
				done := make(chan result, 1)
				go func() {
					rows, err := shape.pin(dc, h)
					done <- result{rows, err}
				}()
				select {
				case res := <-done:
					if res.err != nil {
						t.Fatal(res.err)
					}
					if res.rows != 2*2000 {
						t.Fatalf("round %d: parts read %d rows, want %d", round, res.rows, 2*2000)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("round %d: a wait was still pending after 10 s", round)
				}
				n.mu.Lock()
				n.rt.CancelQuery(dc.q, dc.bats)
				n.mu.Unlock()
				checkNothingHeld(t, n)
			}
		})
	}
}

// stuckFragments makes owner the runtime owner of count fragment ids no
// store holds: a pin of one is a ring wait that no pass ever ends, as
// the owner's loads find nothing to send.
func stuckFragments(owner *Node, count int) []core.BATID {
	ids := make([]core.BATID, count)
	owner.mu.Lock()
	defer owner.mu.Unlock()
	for i := range ids {
		ids[i] = core.BATID(800001 + i)
		owner.rt.AddOwned(ids[i], 64)
	}
	return ids
}

// TestGivenUpRingWaitLeavesNothing gives a map's ring waits up while
// they are pending: the query is cancelled, a sibling part fails, or the
// ring closes. The map's second column is big.k's first fragment and
// then fragments no pass ever brings, so part 0 runs while every other
// part waits, holding whatever big.v fragment it was delivered. Once the
// map has returned, the node holds nothing of the query: no waiter, no
// runtime pin or cached payload on any fragment, no goroutine of the map.
func TestGivenUpRingWaitLeavesNothing(t *testing.T) {
	errPart := errors.New("a sibling part failed")
	cases := []struct {
		name   string
		giveUp func(r *Ring, cancel chan struct{}) // nil: part 0 fails
		want   string
	}{
		{"query cancelled", func(_ *Ring, cancel chan struct{}) { close(cancel) }, mal.ErrCancelled.Error()},
		{"sibling part fails", nil, errPart.Error()},
		{"ring closes", func(r *Ring, _ chan struct{}) { r.Close() }, "ring closed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cols, schema := fragColumns(2000)
			cfg := DefaultConfig()
			cfg.FragmentRows = 256
			cfg.CacheBytes = 0
			r, err := NewRing(3, cols, schema, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			n := r.Node(0)
			cancel := make(chan struct{})
			dc := &queryDC{n: n, q: 1<<16 | core.QueryID(n.id), cancel: cancel}
			v, err := dc.Request("sys", "big", "v")
			if err != nil {
				t.Fatal(err)
			}
			vIDs := v.(*fragHandle).ids
			kIDs, _ := r.Fragments("big.k")
			second := append([]core.BATID{kIDs[0]}, stuckFragments(r.Node(1), len(vIDs)-1)...)
			ran := make(chan struct{})
			part := func(p mal.DCRuntime) (mal.Value, error) {
				rows, err := pinRows(2)(p)
				if err == nil && p.(*partDC).i == 0 {
					if tc.giveUp == nil {
						return nil, errPart
					}
					close(ran)
				}
				return rows, err
			}
			done := make(chan error, 1)
			go func() {
				_, err := dc.PinMap([]mal.Value{v, &fragHandle{name: "big.second", ids: second}}, part)
				done <- err
			}()
			if tc.giveUp != nil {
				<-ran
				tc.giveUp(r, cancel)
			}
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("the map did not return after its waits were given up")
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("PinMap returned %v, want %q", err, tc.want)
			}
			for _, g := range leakcheck.Goroutines() {
				if strings.Contains(g, "created by repro/internal/live.(*queryDC).mapParts") {
					t.Fatalf("a goroutine of the map outlived it:\n%s", g)
				}
			}
			n.mu.Lock()
			for key := range n.waiters {
				if key.q == dc.q {
					t.Errorf("fragment %d: the query still waits on it", key.b)
				}
			}
			for _, id := range append(vIDs, second...) {
				if pins := n.rt.CachePins(id); pins != 0 {
					t.Errorf("fragment %d: %d runtime pins left", id, pins)
				}
			}
			n.rt.CancelQuery(dc.q, dc.bats)
			n.mu.Unlock()
			checkNothingHeld(t, n)
		})
	}
}

// TestSettledMapAllocatesOnlyItsParts: a one-fragment map whose
// acquisition completes at once — an owned fragment read from the
// store, or a hot-set cache hit — allocates its parts, its acquisitions
// and its versions, and nothing else: no ready queue and no worker.
func TestSettledMapAllocatesOnlyItsParts(t *testing.T) {
	cols, schema := fragColumns(200) // one fragment per column
	r, err := NewRing(2, cols, schema, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids, _ := r.Fragments("big.v")
	owner := r.ownerOf(ids[0])
	reader := r.node(1 - int(owner.id))
	if _, err := reader.Fetch("big.v"); err != nil { // fills reader's cache
		t.Fatal(err)
	}
	part := func(p mal.DCRuntime) (mal.Value, error) {
		v, err := p.Pin(mal.Slot(0))
		if err != nil {
			return nil, err
		}
		return nil, p.Unpin(v)
	}
	for _, n := range []*Node{owner, reader} {
		dc := bareDC(n)
		cols, idx := [][]core.BATID{ids}, []int{0}
		results, vers := make([]mal.Value, 1), make([][]int, 1)
		allocs := testing.AllocsPerRun(100, func() {
			if err := dc.mapParts(cols, idx, part, results, vers); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 3 {
			t.Errorf("node %d: a settled one-fragment map allocates %.0f objects, want 3 (parts, acquisitions, versions)", n.id, allocs)
		}
		checkNothingHeld(t, n)
	}
}
