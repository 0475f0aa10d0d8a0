package tpch

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/dcopt"
	"repro/internal/mal"
	"repro/internal/minisql"
)

// TestQ6ishPlanShape is the golden shape of the candidate-list
// pipeline: one head-only range select per predicate column (the two
// l_shipdate limits coalesced), two intersections, one positional
// fetch shared by sum and count(*) — and, because every predicate
// column is then used exactly once, three fused per-fragment scans and
// a single plain pin after the DcOptimizer.
func TestQ6ishPlanShape(t *testing.T) {
	db := GenDB(0.0005, 1)
	plan, err := minisql.Compile(Q6ishSQL, db.Schema(), "sys")
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{}
	for _, in := range plan.Instrs {
		ops[in.Name()]++
	}
	want := map[string]int{
		"sql.bind": 4, "algebra.uselect": 3, "algebra.semijoin": 2, "algebra.join": 1,
		"bat.mirror": 0, "algebra.select": 0,
		"aggr.sum": 1, "aggr.count": 1, "bat.fromScalar": 2, "sql.resultSet": 1,
	}
	for op, n := range want {
		if ops[op] != n {
			t.Errorf("%s: %d instructions, want %d", op, ops[op], n)
		}
	}
	if len(plan.Instrs) != 15 {
		t.Errorf("plan has %d instructions, want 15", len(plan.Instrs))
	}
	if text := plan.String(); !strings.Contains(text, "19940101, 19950101, true, false") {
		t.Errorf("l_shipdate limits not coalesced into [19940101, 19950101):\n%s", text)
	}
	dc, st, err := dcopt.Rewrite(plan)
	if err != nil {
		t.Fatal(err)
	}
	if want := (dcopt.Stats{Requests: 4, Pins: 1, Unpins: 1, Fused: 3}); st != want {
		t.Errorf("dcopt stats = %+v, want %+v\n%s", st, want, dc)
	}
	if n := strings.Count(dc.String(), "datacyclotron.pinuselect"); n != 3 {
		t.Errorf("%d fused uselects, want 3:\n%s", n, dc)
	}
}

// TestQueryResultsPinned holds the three executable queries to the
// results the engine returned before conjunctive selection became a
// candidate-list pipeline (GenDB(0.001, 1), taken at PR 14): row order
// and every float bit included.
func TestQueryResultsPinned(t *testing.T) {
	db := GenDB(0.001, 1)
	for _, c := range []struct{ name, sql, want string }{
		{"Q6ish", Q6ishSQL, "[[89527.91000000002 94]]"},
		{"Q1", Q1SQL, "[[A O 23493 877608.8200000004 25.45287107258938 0.04900325027085604 923]" +
			" [A F 25308 924874.229999999 25.983572895277206 0.04920944558521567 974]" +
			" [N F 24739 915597.3499999997 25.66286307053942 0.04876556016597521 964]" +
			" [N O 25200 933246.4200000007 25.661914460285132 0.04893075356415488 982]" +
			" [R F 23748 889551.5399999986 25.34471718249733 0.05051227321238006 937]" +
			" [R O 24069 901754.9900000009 25.389240506329113 0.0494409282700423 948]]"},
		{"Q3ish", Q3ishSQL, "[[1205 10455.25] [336 8618.25] [742 8559.91] [794 7634.599999999999]" +
			" [106 7631.930000000001] [661 7567.32] [66 7557.870000000001] [921 6791.79] [867 6679.42] [880 6673.54]]"},
	} {
		plan, err := minisql.Compile(c.sql, db.Schema(), "sys")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, workers := range []int{1, 4} {
			v, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), Catalog: db, Workers: workers}, plan)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got := fmt.Sprint(v.(*mal.ResultSet).Rows()); got != c.want {
				t.Errorf("%s (workers=%d):\n got %s\nwant %s", c.name, workers, got, c.want)
			}
		}
	}
}

// BenchmarkQ6ishLocal1M is bench/'s mal.local_exec span as a Go
// benchmark: the plain Q6ish plan over whole 1M-row columns, the
// profile target for kernel work
// (go test ./internal/tpch -run NONE -bench Q6ishLocal -cpuprofile ...).
func BenchmarkQ6ishLocal1M(b *testing.B) {
	db := GenDB(SFForLineitemRows(1<<20), 7)
	plan, err := minisql.Compile(Q6ishSQL, db.Schema(), "sys")
	if err != nil {
		b.Fatal(err)
	}
	ctx := &mal.Context{Registry: mal.NewRegistry(), Catalog: db, Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mal.Run(ctx, plan); err != nil {
			b.Fatal(err)
		}
	}
}
