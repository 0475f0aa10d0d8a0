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

// hotRing is a 3-node ring over db cut into fragments of rows rows
// (0: one fragment per column), warmed until every query of sqls is hot
// on node 0: every remote fragment in its cache, every owned one in its
// store. It returns the ring and the served plans: each query compiled
// and rewritten by the DcOptimizer, as the server caches it.
func hotRing(tb testing.TB, db *tpch.DB, rows int, sqls ...string) (*Ring, []*mal.Plan) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.FragmentRows = rows
	r, err := NewRing(3, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	plans := make([]*mal.Plan, len(sqls))
	for i, sql := range sqls {
		plan, err := minisql.Compile(sql, db.Schema(), "sys")
		if err == nil {
			plans[i], _, err = dcopt.Rewrite(plan)
		}
		if err != nil {
			r.Close()
			tb.Fatal(err)
		}
	}
	n := r.Node(0)
	for i := 0; i < 50; i++ {
		before := n.CacheStats().RingWaits
		for _, plan := range plans {
			if _, err := n.ExecPlan(plan); err != nil {
				r.Close()
				tb.Fatal(err)
			}
		}
		if i >= 2 && n.CacheStats().RingWaits == before {
			return r, plans
		}
	}
	r.Close()
	tb.Fatal("the queries still wait for the ring after 50 rounds")
	return nil, nil
}

// hotQ6Ring is hotRing for Q6ish alone.
func hotQ6Ring(tb testing.TB, db *tpch.DB, rows int) (*Ring, *mal.Plan) {
	r, plans := hotRing(tb, db, rows, tpch.Q6ishSQL)
	return r, plans[0]
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
		for id, e := range n.tab.m {
			if e.owned {
				owned = append(owned, id)
			}
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

// BenchmarkHotQ3 is Q3ish as node 0 of a hot 3-node ring over 1M
// lineitem rows in 64K-row fragments serves it: the outer plan builds
// the qualifying orders' key index once, and each of the 16 lineitem
// parts probes it and sums its revenue by build row, so no lineitem
// column is pinned whole.
func BenchmarkHotQ3(b *testing.B) {
	db := tpch.GenDB(tpch.SFForLineitemRows(1<<20), 7)
	r, plans := hotRing(b, db, 64<<10, tpch.Q3ishSQL)
	defer r.Close()
	if ids, _ := r.Fragments("lineitem.l_orderkey"); len(ids) != 16 {
		b.Fatalf("lineitem is cut into %d fragments, want 16", len(ids))
	}
	n := r.Node(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := n.ExecPlan(plans[0])
		if err != nil {
			b.Fatal(err)
		}
		rs.Release()
	}
}

// pinnedQ1 is Q1 over tpch.GenDB(0.001, 1) as the plain plan answers it
// on whole columns, row order and every float bit included
// (tpch.TestQueryResultsPinned).
const pinnedQ1 = "[[A O 23493 877608.8200000004 25.45287107258938 0.04900325027085604 923]" +
	" [A F 25308 924874.229999999 25.983572895277206 0.04920944558521567 974]" +
	" [N F 24739 915597.3499999997 25.66286307053942 0.04876556016597521 964]" +
	" [N O 25200 933246.4200000007 25.661914460285132 0.04893075356415488 982]" +
	" [R F 23748 889551.5399999986 25.34471718249733 0.05051227321238006 937]" +
	" [R O 24069 901754.9900000009 25.389240506329113 0.0494409282700423 948]]"

// TestServedQ1Parity serves Q1, grouped inside its region, on node 0 of
// a hot 3-node ring. With each column one fragment, one part adds every
// group's values in row order, as the plain plan does: the answer is
// the pinned one, bit for bit. Cut into 1,000-row fragments, or into 16,
// the parts merge by key value and their float sums add in fragment
// order: the answer is the pinned one to 1e-9 relative. Either way the
// region exits only the merged groups, and the outer plan pins no
// column: no lineitem column is concatenated, at any fragment count.
func TestServedQ1Parity(t *testing.T) {
	db := tpch.GenDB(0.001, 1)
	var pinned [][]any
	for _, rows := range []int{0, 1000, 375} {
		r, plans := hotRing(t, db, rows, tpch.Q1SQL)
		if ids, _ := r.Fragments("lineitem.l_shipdate"); rows == 375 && len(ids) != 16 {
			r.Close()
			t.Fatalf("lineitem is cut into %d fragments, want 16", len(ids))
		}
		rs, err := r.Node(0).ExecPlan(plans[0])
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := rs.Rows()
		rs.Release()
		if rows == 0 {
			if s := fmt.Sprint(got); s != pinnedQ1 {
				t.Fatalf("one fragment a column:\n got %s\nwant %s", s, pinnedQ1)
			}
			pinned = got
		} else if !maltest.SameRows(pinned, got) {
			t.Fatalf("FragmentRows=%d: answered %v, want %v", rows, got, pinned)
		}
	}
	for _, in := range plans(t, tpch.Q1SQL, db).Instrs {
		if in.Name() == "datacyclotron.pin" {
			t.Fatalf("the served Q1 pins a whole column: %s", in)
		}
		for _, a := range in.Args {
			if reg, ok := a.Lit.(*mal.Region); ok && a.IsLit() {
				for _, e := range reg.Exits() {
					if e.Merge != mal.MergeGroups {
						t.Fatalf("Q1's region exits X%d by %s, want only its groups", e.Var, e.Merge)
					}
				}
			}
		}
	}
}

// plans is sql compiled over db's schema and rewritten.
func plans(t *testing.T, sql string, db *tpch.DB) *mal.Plan {
	t.Helper()
	p, err := minisql.Compile(sql, db.Schema(), "sys")
	if err != nil {
		t.Fatal(err)
	}
	dc, _, err := dcopt.Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	return dc
}

// BenchmarkPointQueries is point_storm's slate, one query type at a
// time: ExecPlan of each served plan on node 0 of a hot 3-node ring
// over 3,000 lineitem rows (one fragment a column), the per-type split
// bench/'s round-robin cannot print.
func BenchmarkPointQueries(b *testing.B) {
	db := tpch.GenDB(0.0005, 1)
	queries := []struct{ name, sql string }{{"Q6ish", tpch.Q6ishSQL}, {"Q1", tpch.Q1SQL}, {"Q3ish", tpch.Q3ishSQL}}
	sqls := make([]string, len(queries))
	for i, q := range queries {
		sqls[i] = q.sql
	}
	r, plans := hotRing(b, db, 0, sqls...)
	defer r.Close()
	n := r.Node(0)
	for i, q := range queries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				rs, err := n.ExecPlan(plans[i])
				if err != nil {
					b.Fatal(err)
				}
				rs.Release()
			}
		})
	}
}
