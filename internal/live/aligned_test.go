package live

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
	"repro/internal/tpch"
)

// heldPayloads counts the refcounted ring payloads n's queries hold.
func heldPayloads(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.cached)
}

// checkNothingHeld asserts a finished (or failed) query left no
// protocol state on n: no waiter, no payload reference, no runtime pin.
func checkNothingHeld(t *testing.T, n *Node) {
	t.Helper()
	n.mu.Lock()
	waiters, cached, rt := len(n.waiters), len(n.cached), n.rt.String()
	n.mu.Unlock()
	if waiters != 0 || cached != 0 || !strings.Contains(rt, " pins=0 ") {
		t.Fatalf("left behind: %d waiters, %d cached payloads, runtime %q", waiters, cached, rt)
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
// never get past the parts the FragWorkers tokens admit — and on a
// starved ring would pay an extra revolution per index for envelopes
// that went by unregistered (ISSUE 28: ring_thrash p50 +38 %).
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
		t.Fatalf("%d parts, %d fragments away: too few to outnumber the %d kernel tokens", parts, away, cfg.Workers)
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
	// ExecPlan returns once the interpreter goroutine is past its last
	// instruction; its exit, and the parts' before it, follow at once.
	waitFor(t, "the failed queries' goroutines to exit", 10*time.Second,
		func() bool { return n.InterpRunning() == 0 && runtime.NumGoroutine() <= before })
}
