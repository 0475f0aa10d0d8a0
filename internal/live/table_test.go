package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// TestCacheHitServesRepeatPin: the tentpole behavior — a fragment that
// already flowed past is served node-locally on the next pin, with the
// exact same bytes the ring would have delivered.
func TestCacheHitServesRepeatPin(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	reader := r.Node(1)

	first, err := reader.Fetch("c.t_id") // owned by node 0: crosses the ring
	if err != nil {
		t.Fatal(err)
	}
	warm := reader.CacheStats()
	if warm.Inserts == 0 {
		t.Fatal("ring delivery did not populate the hot-set cache")
	}
	second, err := reader.Fetch("c.t_id")
	if err != nil {
		t.Fatal(err)
	}
	after := reader.CacheStats()
	if after.Hits <= warm.Hits {
		t.Fatalf("repeat pin did not hit the cache: hits %d -> %d", warm.Hits, after.Hits)
	}
	if !bytes.Equal(bat.AppendMarshal(nil, first), bat.AppendMarshal(nil, second)) {
		t.Fatal("cached pin returned different bytes than the ring delivery")
	}
}

// TestCacheDisabledMatchesCirculation: CacheBytes=0 keeps the
// pure-circulation path and produces byte-identical results; no cache
// counter ever moves.
func TestCacheDisabledMatchesCirculation(t *testing.T) {
	cols, schema := testColumns()
	off := DefaultConfig()
	off.CacheBytes = 0
	rOff, err := NewRing(3, cols, schema, off)
	if err != nil {
		t.Fatal(err)
	}
	defer rOff.Close()
	rOn, err := NewRing(3, cols, schema, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer rOn.Close()

	q := "select t.name, c.val from t, c where c.t_id = t.id and c.val > 150 order by c.val"
	for i := 0; i < 3; i++ {
		a, err := rOff.Node(2).ExecSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rOn.Node(2).ExecSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resultBytes(t, a), resultBytes(t, b)) {
			t.Fatal("cache-on result differs from cache-off")
		}
	}
	cs := rOff.CacheStats()
	if cs.Hits != 0 || cs.Misses != 0 || cs.Inserts != 0 {
		t.Fatalf("disabled cache counted activity: %+v", cs)
	}
	if on := rOn.CacheStats(); on.Hits == 0 {
		t.Fatal("enabled cache never hit on a repeated query")
	}
}

// TestCacheStaleNeverServed is the staleness property at its sharpest:
// the instant UpdateColumn returns, the catalog version has advanced,
// so the cached entry for the old version can no longer validate — a
// cache hit at any later pin time can never return the old payload.
func TestCacheStaleNeverServed(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	reader := r.Node(1)

	old, err := reader.Fetch("c.t_id")
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := r.Fragments("c.t_id")
	id := ids[0]
	if got := r.fragVersion(id); got != 0 {
		t.Fatalf("base version = %d", got)
	}
	if hitAt(reader, id, 0) == nil {
		t.Fatal("warm fetch did not leave the fragment resident")
	}

	newVals := []int64{7, 7, 7, 7}
	if _, err := r.UpdateColumn("c.t_id", func(*bat.BAT) *bat.BAT {
		return bat.MakeInts("c.t_id", newVals)
	}); err != nil {
		t.Fatal(err)
	}
	// The catalog version advanced inside UpdateColumn's critical
	// section: validation against it can never accept the old entry.
	cur := r.fragVersion(id)
	if cur != 1 {
		t.Fatalf("catalog version = %d after update", cur)
	}
	if b := hitAt(reader, id, cur); b != nil {
		t.Fatal("cache served an entry for a version it never stored")
	}
	// And the new version becomes pinnable (the owner re-sends its
	// store on the next pass), after which repeat pins are cache hits
	// of the NEW version. Each round blocks on a fetch, which is the
	// clock; the deadline only bounds a broken ring.
	deadline := time.Now().Add(5 * time.Second)
	var got *bat.BAT
	for time.Now().Before(deadline) {
		got, err = reader.Fetch("c.t_id")
		if err != nil {
			t.Fatal(err)
		}
		if got.Tail().Int(0) == 7 {
			break
		}
	}
	if got.Tail().Int(0) != 7 {
		t.Fatalf("new version never visible (still %d)", got.Tail().Int(0))
	}
	if old.Tail().Int(0) != 2 {
		t.Fatal("reader's old snapshot was mutated by the update")
	}
	pre := reader.CacheStats()
	again, err := reader.Fetch("c.t_id")
	if err != nil {
		t.Fatal(err)
	}
	if again.Tail().Int(0) != 7 {
		t.Fatal("repeat pin after update returned stale data")
	}
	if post := reader.CacheStats(); post.Hits <= pre.Hits {
		t.Fatal("repeat pin of the new version did not come from the cache")
	}
}

// TestSnapshotConsistencyUnderUpdates is the merge property test:
// concurrent UpdateColumn calls race against readers pinning a
// fragmented column, and every merged result must be a single-version
// snapshot — all values equal — never a mix of old and new fragments.
// The column is built so any cross-version mix is instantly visible:
// at version v every row holds v.
func TestSnapshotConsistencyUnderUpdates(t *testing.T) {
	const rows = 4096
	vals := make([]int64, rows) // version 0: all zeros
	cols := map[string]*bat.BAT{"p.val": bat.MakeInts("p.val", vals)}
	schema := fragSchema()
	cfg := DefaultConfig()
	cfg.FragmentRows = 512 // 8 fragments over 3 nodes
	r, err := NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if ids, _ := r.Fragments("p.val"); len(ids) != 8 {
		t.Fatalf("fragments = %d, want 8", len(ids))
	}

	// The run is counted, not timed: the updater waits for one read to
	// finish after each update before the next, and stops the run once
	// both sides did enough — so every update races against readers
	// whatever the box's speed.
	const minUpdates, minReads = 20, 50
	stop := make(chan struct{})
	readDone := make(chan struct{}, 1)
	readErr := make(chan error, 4)
	var reads int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for updates := 1; ; updates++ {
			_, err := r.UpdateColumn("p.val", func(cur *bat.BAT) *bat.BAT {
				next := cur.Tail().Int(0) + 1
				nv := make([]int64, rows)
				for i := range nv {
					nv[i] = next
				}
				return bat.MakeInts("p.val", nv)
			})
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case <-readDone: // a read that finished before this update
			default:
			}
			select {
			case <-readDone:
			case <-time.After(10 * time.Second):
				t.Error("no read finished for 10 s")
				return
			}
			if len(readErr) > 0 || updates >= minUpdates && atomic.LoadInt64(&reads) >= minReads {
				return
			}
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			node := r.Node(1 + w%2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var versionSeen int64
				if i%2 == 0 {
					b, err := node.Fetch("p.val")
					if err != nil {
						readErr <- err
						return
					}
					if b.Len() != rows {
						readErr <- fmt.Errorf("merged pin has %d rows, want %d", b.Len(), rows)
						return
					}
					versionSeen = b.Tail().Int(0)
					for j := 1; j < rows; j++ {
						if b.Tail().Int(j) != versionSeen {
							readErr <- fmt.Errorf("mixed-version merge: row 0 = %d, row %d = %d",
								versionSeen, j, b.Tail().Int(j))
							return
						}
					}
				} else {
					rs, err := node.ExecSQL("select sum(val), count(*) from p")
					if err != nil {
						readErr <- err
						return
					}
					sum, count := rs.Row(0)[0].(int64), rs.Row(0)[1].(int64)
					if count != rows {
						readErr <- fmt.Errorf("count = %d, want %d", count, rows)
						return
					}
					if sum%rows != 0 {
						readErr <- fmt.Errorf("mixed-version aggregate: sum %d is not a multiple of %d", sum, rows)
						return
					}
					versionSeen = sum / rows
				}
				if versionSeen < 0 {
					readErr <- fmt.Errorf("negative version %d", versionSeen)
					return
				}
				atomic.AddInt64(&reads, 1)
				select {
				case readDone <- struct{}{}:
				default:
				}
			}
		}(w)
	}

	wg.Wait()
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}
}

func fragSchema() minisql.Schema {
	return minisql.MapSchema{"p": {"val"}}
}

// TestCoalescedConcurrentPins: concurrent cold pins of one fragment at
// one node share the runtime's request, with the hot-set cache off and
// on: one pass delivers to every pin blocked on it, so the node sends
// fewer ring requests than there are pins, and none again. Every pin
// reads the right payload, and no waiter and no cached entry outlives
// the queries.
func TestCoalescedConcurrentPins(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cache int
	}{{"cache-off", 0}, {"cache-on", DefaultConfig().CacheBytes}} {
		t.Run(tc.name, func(t *testing.T) {
			cols, schema := testColumns()
			cfg := DefaultConfig()
			cfg.CacheBytes = tc.cache
			r, err := NewRing(3, cols, schema, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			reader := r.Node(1) // c.t_id is owned by node 0: the pin is cold and crosses the ring

			const readers = 24
			var wg sync.WaitGroup
			start := make(chan struct{})
			errs := make(chan error, readers)
			for i := 0; i < readers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					b, err := reader.Fetch("c.t_id")
					if err != nil {
						errs <- err
						return
					}
					if b.Len() != 4 || b.Tail().Int(0) != 2 {
						errs <- fmt.Errorf("bad payload: %s", b.Dump(5))
					}
				}()
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := reader.Stats()
			t.Logf("%d pins, %d requests sent", readers, st.RequestsSent)
			if st.RequestsSent == 0 || st.RequestsSent >= readers {
				t.Fatalf("%d concurrent pins sent %d ring requests, want 1 to %d", readers, st.RequestsSent, readers-1)
			}
			if st.Resends != 0 {
				t.Fatalf("%d resends, want 0", st.Resends)
			}
			reader.mu.Lock()
			leftoverWaiters, leftoverCached := len(reader.waiters), pinnedEntries(reader)
			reader.mu.Unlock()
			if leftoverWaiters != 0 || leftoverCached != 0 {
				t.Fatalf("leftover waiters=%d cached=%d after concurrent pins", leftoverWaiters, leftoverCached)
			}
			checkTable(t, reader)
		})
	}
}

// TestHopAndCacheCountersUnderRace hammers the instrumentation readers
// (HopStats, CacheStats, MembershipStats) while queries
// drive concurrent sends — the race detector verifies every counter is
// read and written atomically.
func TestHopAndCacheCountersUnderRace(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()

	done := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		var sink int64
		for {
			select {
			case <-done:
				_ = sink
				return
			default:
			}
			hs := r.HopStats()
			sink += hs.Bytes + hs.MaxMsg
			cs := r.CacheStats()
			sink += cs.Hits + cs.RingWaitNanos
			sink += r.MembershipStats().BeatsSent
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < r.Size(); i++ {
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				if _, err := r.Node(node).ExecSQL("select c.t_id from t, c where c.t_id = t.id"); err != nil {
					t.Error(err)
				}
			}(i)
		}
	}
	wg.Wait()
	close(done)
	poller.Wait()
}

// ---------------------------------------------------------------------
// fragment table policy
// ---------------------------------------------------------------------

// hitAt is a pin's hot hit on n for id at version ver (nil on a miss).
func hitAt(n *Node, id core.BATID, ver int) *fragment {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.tab.hit(id, ver)
}

// hotFrag is the version n holds hot of id (nil when id is not hot).
func hotFrag(n *Node, id core.BATID) *fragment {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e := n.tab.m[id]; e != nil && e.hot {
		return e.f
	}
	return nil
}

// cool takes the hot role of every id away from n.
func cool(n *Node, ids ...core.BATID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range ids {
		n.tab.cool(id)
	}
}

// intsOfBytes is an n-byte int BAT whose values span more than 32 bits,
// so it stays 8 bytes wide when a fragment is made of it.
func intsOfBytes(n int) *bat.BAT {
	v := make([]int64, n/8)
	for i := range v {
		v[i] = int64(i) << 40
	}
	return bat.MakeInts("x", v)
}

// intsFrag is an n-byte fragment at version ver, in GC memory.
func intsFrag(n, ver int) *fragment { return newFragment(intsOfBytes(n), ver, nil, nil) }

// TestTableLOIEviction: under byte pressure the lowest-interest hot
// entry goes first, and interest decays so a once-hot fragment ages
// out. Eviction takes the hot role only: an entry that holds its
// fragment in another role stays.
func TestTableLOIEviction(t *testing.T) {
	one := intsOfBytes(1024).Bytes()
	h := newTable(2*one + one/2)
	h.admit(1, intsFrag(1024, 0))
	h.admit(2, intsFrag(1024, 0))
	for i := 0; i < 8; i++ {
		if h.hit(1, 0) == nil {
			t.Fatal("resident entry missed")
		}
	}
	h.hold(2, h.m[2].f).replica = true
	h.admit(3, intsFrag(1024, 0)) // over budget: entry 2 (loi 1) must go, not entry 1 (loi 9)
	if h.hit(1, 0) == nil {
		t.Fatal("high-interest entry was evicted")
	}
	if h.hit(2, 0) != nil {
		t.Fatal("low-interest entry survived over budget")
	}
	st := h.cs
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("evictions=%d entries=%d, want 1/2", st.Evictions, st.Entries)
	}
	if e := h.m[2]; e == nil || !e.replica || e.hot {
		t.Fatalf("evicting the hot role of a replica left %+v, want the replica entry", e)
	}
}

// TestTableVersioning: stale versions lose their hot role on sight,
// newer deliveries replace older ones, and an older delivery never
// replaces a newer version (late ring arrivals after an update) —
// whichever role holds it.
func TestTableVersioning(t *testing.T) {
	h := newTable(1 << 20)
	h.admit(1, intsFrag(256, 0))
	if h.hit(1, 1) != nil {
		t.Fatal("served a version that was never stored")
	}
	if st := h.cs; st.Stale != 1 {
		t.Fatalf("stale = %d, want 1", st.Stale)
	}
	if len(h.m) != 0 {
		t.Fatalf("a stale hot entry with no other role stayed in the table: %d entries", len(h.m))
	}
	h.admit(1, intsFrag(256, 2))
	h.admit(1, intsFrag(256, 1)) // late old delivery must not downgrade
	if h.hit(1, 2) == nil {
		t.Fatal("newer version displaced by an older delivery")
	}
	h.invalidateBelow(1, 3)
	if h.hit(1, 2) != nil {
		t.Fatal("invalidated entry still served")
	}
	h.hold(4, intsFrag(256, 3)).owned = true
	if e := h.hold(4, intsFrag(256, 2)); e.f.ver != 3 {
		t.Fatalf("an older version replaced the owned version 3 with %d", e.f.ver)
	}
}

// TestTableBudgetGate: a payload larger than the whole budget is not
// admitted, and cannot evict the entire cache to make room; a zero
// budget holds nothing hot and counts nothing.
func TestTableBudgetGate(t *testing.T) {
	h := newTable(1024)
	h.admit(1, intsFrag(512, 0))
	h.admit(2, intsFrag(64<<10, 0))
	if h.hit(2, 0) != nil {
		t.Fatal("over-budget payload admitted")
	}
	if h.hit(1, 0) == nil {
		t.Fatal("resident entry evicted by an inadmissible payload")
	}
	off := newTable(0)
	off.admit(1, intsFrag(0, 0))
	if off.hit(1, 0) != nil || len(off.m) != 0 || off.cs != (CacheStats{}) {
		t.Fatalf("a zero budget held %d entries, counted %+v", len(off.m), off.cs)
	}
}

// TestCachedRingGoesQuiet: cache hits are not ring interest. Once every
// reader holds the working set the fragments idle, park at their owners
// and the ring stops moving bytes, while queries keep being answered;
// an update or a lost cache pulls the fragments back with one request
// each — no resend timer involved — and every answer stays exactly what
// mal.Run computes on one whole version.
func TestCachedRingGoesQuiet(t *testing.T) {
	db := tpch.GenDB(0.001, 18)
	cols := db.ColumnMap()
	cfg := DefaultConfig()
	cfg.FragmentRows = 1024 // ~6 fragments per column over 3 nodes
	r, err := NewRing(3, cols, db.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// round asks both readers once and reports the ring's cache misses.
	round := func(want [][]any) int64 {
		t.Helper()
		for n := 0; n < 2; n++ {
			rs, err := r.Node(n).ExecSQL(tpch.Q6ishSQL)
			if err != nil {
				t.Fatalf("node %d: %v", n, err)
			}
			if got := rs.Rows(); !maltest.SameRows(want, got) {
				t.Fatalf("node %d answered %v, want %v", n, got, want)
			}
		}
		return r.CacheStats().Misses
	}
	// circulating counts fragments that are in the hot set and not held
	// at their owner: the envelopes the ring is still moving.
	circulating := func() (n int) {
		for _, ids := range r.cols {
			for _, id := range ids.ids {
				o := r.ownerOf(id)
				o.mu.Lock()
				if o.rt.Loaded(id) && !o.rt.Parked(id) {
					n++
				}
				o.mu.Unlock()
			}
		}
		return n
	}
	// quiet keeps querying until a round misses nothing and no fragment
	// circulates (the queries are the clock; the deadline only bounds a
	// broken ring), then checks that further all-hit rounds move no
	// bytes at all.
	quiet := func(what string, want [][]any) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		misses := round(want)
		for {
			next := round(want)
			if next == misses && circulating() == 0 {
				break
			}
			misses = next
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d fragments still circulate after 10 s of cache hits: %+v", what, circulating(), r.HopStats())
			}
		}
		hopBytes := r.HopStats().Bytes
		for i := 0; i < 5; i++ {
			round(want)
		}
		if got := r.HopStats().Bytes; got != hopBytes {
			t.Fatalf("%s: %d hop bytes moved under a hit rate of 1", what, got-hopBytes)
		}
	}
	resends := func() (n uint64) {
		for i := 0; i < r.Size(); i++ {
			n += r.Node(i).Stats().Resends
		}
		return n
	}

	qtyA := cols["lineitem.l_quantity"]
	refA := q6ishReference(t, db, qtyA)
	quiet("warm", refA)

	// An update invalidates every cached l_quantity fragment: the next
	// queries miss, request, and unpark them at the new version.
	shifted := make([]int64, qtyA.Len())
	for i := range shifted {
		shifted[i] = qtyA.Tail().Int(i) + 1
	}
	qtyB := bat.MakeInts("lineitem.l_quantity", shifted)
	refB := q6ishReference(t, db, qtyB)
	if maltest.SameRows(refA, refB) {
		t.Fatal("the two versions answer alike; the test cannot tell them apart")
	}
	before := r.HopStats()
	if _, err := r.UpdateColumn("lineitem.l_quantity", func(*bat.BAT) *bat.BAT { return qtyB.Copy() }); err != nil {
		t.Fatal(err)
	}
	quiet("after update", refB)
	afterUpdate := r.HopStats()
	if afterUpdate.Unparked == before.Unparked || afterUpdate.Bytes == before.Bytes {
		t.Fatalf("update pulled nothing back through the ring: %+v -> %+v", before, afterUpdate)
	}

	// A reader that loses its cache gets it back the same way.
	for _, name := range []string{"lineitem.l_quantity", "lineitem.l_shipdate", "lineitem.l_discount", "lineitem.l_extendedprice"} {
		ids, _ := r.Fragments(name)
		cool(r.Node(0), ids...)
		cool(r.Node(1), ids...)
	}
	quiet("after cache drop", refB)
	if hs := r.HopStats(); hs.Unparked == afterUpdate.Unparked {
		t.Fatalf("cache drop pulled nothing back through the ring: %+v -> %+v", afterUpdate, hs)
	}
	if n := resends(); n != 0 {
		t.Fatalf("resends = %d on a lossless ring, want 0", n)
	}
}

// TestZipfFetchUnderEvictingCache: a seeded Zipf stream of fetches on a
// 2-node TCP ring whose 256 KB cache holds about 4 of its 24 columns.
// The cache must evict, every answer must checksum to what the
// generator wrote, and no access may sit out the resend timer.
func TestZipfFetchUnderEvictingCache(t *testing.T) {
	const cols, rows, accesses = 24, 8 << 10, 600
	rng := rand.New(rand.NewSource(1))
	columns := make(map[string]*bat.BAT, cols)
	sums := make([]int64, cols)
	for k := range sums {
		vals := make([]int64, rows)
		for i := range vals {
			vals[i] = rng.Int63n(1 << 20)
			sums[k] += vals[i]
		}
		columns[fmt.Sprintf("t.c%02d", k)] = bat.MakeInts("c", vals)
	}
	cfg := DefaultConfig()
	cfg.CacheBytes = 256 << 10
	r, err := NewRing(2, columns, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	z := workload.NewZipf(cols, 1.1)
	for i := 0; i < accesses; i++ {
		k := z.Draw(rng)
		b, err := r.Node(i % 2).Fetch(fmt.Sprintf("t.c%02d", k))
		if err != nil {
			t.Fatalf("access %d (column %d): %v", i, k, err)
		}
		var sum int64
		for j := 0; j < b.Len(); j++ {
			sum += b.Tail().Int(j)
		}
		if b.Len() != rows || sum != sums[k] {
			t.Fatalf("access %d (column %d): %d rows summing to %d, want %d rows summing to %d", i, k, b.Len(), sum, rows, sums[k])
		}
	}
	if cs := r.CacheStats(); cs.Evictions == 0 {
		t.Fatalf("the cache never evicted: %+v", cs)
	}
	for i := 0; i < r.Size(); i++ {
		n := r.Node(i)
		if resends := n.Stats().Resends; resends != 0 {
			t.Fatalf("node %d resent %d requests on a lossless ring, want 0", i, resends)
		}
		n.mu.Lock()
		open := n.rt.OutstandingRequests()
		n.mu.Unlock()
		if open != 0 {
			t.Fatalf("node %d still holds %d requests after every fetch returned", i, open)
		}
	}
}
