package live

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dcopt"
	"repro/internal/mal"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
	"repro/internal/tpch"
)

// hotQ6Ring is a 3-node ring over db cut into fragments of rows rows
// (0: one fragment per column), warmed until Q6ish is hot on node 0:
// every remote fragment in its cache, every owned one in its store.
// It returns the ring and the served plan: Q6ish compiled and rewritten
// by the DcOptimizer, as the server caches it.
func hotQ6Ring(tb testing.TB, db *tpch.DB, rows int) (*Ring, *mal.Plan) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.FragmentRows = rows
	r, err := NewRing(3, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := minisql.Compile(tpch.Q6ishSQL, db.Schema(), "sys")
	if err != nil {
		r.Close()
		tb.Fatal(err)
	}
	dc, _, err := dcopt.Rewrite(plan)
	if err != nil {
		r.Close()
		tb.Fatal(err)
	}
	n := r.Node(0)
	for i := 0; i < 50; i++ {
		before := n.CacheStats().RingWaits
		if _, err := n.ExecPlan(dc); err != nil {
			r.Close()
			tb.Fatal(err)
		}
		if i >= 2 && n.CacheStats().RingWaits == before {
			return r, dc
		}
	}
	r.Close()
	tb.Fatal("Q6ish still waits for the ring after 50 queries")
	return nil, nil
}

// TestHotRegionPartsAllocateLittle serves Q6ish on node 0 of a hot ring
// whose lineitem is cut into 16 fragments of 1K rows, and on one whose
// columns are one fragment each. A part of the 16-fragment region may
// cost at most 6 allocations more than the one-fragment query, whose
// answer it must give. The owned fragments are read from the store: no
// pin reaches the runtime (Stats.Deliveries stands still), and the
// runtime holds no request for an owned fragment while queries run.
func TestHotRegionPartsAllocateLittle(t *testing.T) {
	const parts, perPart = 16, 6
	db := tpch.GenDB(tpch.SFForLineitemRows(parts<<10), 3)
	want := q6ishReference(t, db, db.ColumnMap()["lineitem.l_quantity"])
	allocs := map[int]float64{}
	for _, rows := range []int{1 << 10, 0} {
		r, plan := hotQ6Ring(t, db, rows)
		n := r.Node(0)
		if ids, _ := r.Fragments("lineitem.l_quantity"); rows > 0 && len(ids) != parts {
			r.Close()
			t.Fatalf("lineitem is cut into %d fragments, want %d", len(ids), parts)
		}
		var owned []core.BATID
		n.mu.Lock()
		for id := range n.store {
			owned = append(owned, id)
		}
		deliveries := n.rt.Stats().Deliveries
		n.mu.Unlock()

		stop := make(chan struct{})
		requested := make(chan string, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // looks for a request of an owned fragment while queries run
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n.mu.Lock()
				for _, id := range owned {
					if n.rt.HasRequest(id) {
						select {
						case requested <- fmt.Sprintf("the runtime holds a request for owned fragment %d", id):
						default:
						}
					}
				}
				n.mu.Unlock()
			}
		}()
		for i := 0; i < 20; i++ {
			rs, err := n.ExecPlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			if got := rs.Rows(); !maltest.SameRows(want, got) {
				t.Fatalf("FragmentRows=%d: answered %v, want %v", rows, got, want)
			}
			rs.Release()
		}
		close(stop)
		wg.Wait()
		allocs[rows] = testing.AllocsPerRun(50, func() {
			rs, err := n.ExecPlan(plan)
			if err != nil {
				t.Fatal(err)
			}
			rs.Release()
		})
		n.mu.Lock()
		after := n.rt.Stats().Deliveries
		n.mu.Unlock()
		checkNothingHeld(t, n)
		r.Close()
		select {
		case msg := <-requested:
			t.Fatalf("FragmentRows=%d: %s", rows, msg)
		default:
		}
		if after != deliveries {
			t.Fatalf("FragmentRows=%d: %d pins reached the runtime on a hot ring", rows, after-deliveries)
		}
	}
	extra := (allocs[1<<10] - allocs[0]) / parts
	t.Logf("allocations per query: %.1f over %d parts, %.1f over one; %.1f more per part", allocs[1<<10], parts, allocs[0], extra)
	if extra > perPart {
		t.Fatalf("a part costs %.1f allocations more than the one-fragment query, want at most %d", extra, perPart)
	}
}

// BenchmarkHotQ6 is hot_repeat's query as node 0 of a 3-node ring over
// 1M lineitem rows runs it: ExecPlan of the served Q6ish (compiled,
// rewritten by the DcOptimizer) with every fragment hot — the remote
// ones in the cache, the owned ones in the store. /64K cuts the columns
// into 64K-row fragments (FragmentRows' default, 16 parts a query),
// /whole keeps each column one fragment; the difference is what a part
// costs beyond its kernel. Compare them at -cpu 1.
func BenchmarkHotQ6(b *testing.B) {
	db := tpch.GenDB(tpch.SFForLineitemRows(1<<20), 7)
	for _, c := range []struct {
		name string
		rows int
	}{{"64K", 64 << 10}, {"whole", 0}} {
		b.Run(c.name, func(b *testing.B) {
			r, plan := hotQ6Ring(b, db, c.rows)
			defer r.Close()
			n := r.Node(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := n.ExecPlan(plan)
				if err != nil {
					b.Fatal(err)
				}
				rs.Release()
			}
		})
	}
}
