package tpch

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dcopt"
	"repro/internal/mal"
	"repro/internal/minisql"
)

// TestQ6ishPlanShape is the golden shape of the candidate-list
// pipeline: one conjunctive head-only select over the three predicate
// columns, one term each (the two l_shipdate limits coalesced) — no
// chain, no intersection — and one positional fetch shared by sum and
// count(*); all of it local to a fragment, so the DcOptimizer moves the
// four instructions into one aligned region and leaves no whole-column
// pin (TestRewrittenPlansGolden has the text).
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
		"sql.bind": 4, "algebra.uselectall": 1, "algebra.uselect": 0, "algebra.semijoin": 0, "algebra.join": 1,
		"bat.mirror": 0, "algebra.select": 0,
		"aggr.sum": 1, "aggr.count": 1, "bat.fromScalar": 2, "sql.resultSet": 1,
	}
	for op, n := range want {
		if ops[op] != n {
			t.Errorf("%s: %d instructions, want %d", op, ops[op], n)
		}
	}
	if len(plan.Instrs) != 11 {
		t.Errorf("plan has %d instructions, want 11", len(plan.Instrs))
	}
	if text := plan.String(); !strings.Contains(text, "19940101, 19950101, true, false, X") {
		t.Errorf("l_shipdate limits not coalesced into the first term, [19940101, 19950101):\n%s", text)
	}
	dc, st, err := dcopt.Rewrite(plan)
	if err != nil {
		t.Fatal(err)
	}
	if want := (dcopt.Stats{Requests: 4, Regions: 1, Local: 4}); st != want {
		t.Errorf("dcopt stats = %+v, want %+v\n%s", st, want, dc)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current DcOptimizer output")

// TestRewrittenPlansGolden pins what the DcOptimizer makes of the four
// served queries, sub-plans included: which instructions each table's
// aligned region takes, where it pins and unpins each column, what
// leaves it and by which merge, and what stays in the outer plan on
// whole columns (Q1's group-by read out, Q3's customer–orders join and
// the key index its lineitem region probes).
func TestRewrittenPlansGolden(t *testing.T) {
	db := GenDB(0.0005, 1)
	for _, c := range []struct {
		name, sql string
		st        dcopt.Stats
	}{
		{"q6ish", Q6ishSQL, dcopt.Stats{Requests: 4, Regions: 1, Local: 4}},
		// bench/workload.go's wideSQL: three fetches over one candidate list.
		{"wide", "select l_orderkey, l_suppkey, l_extendedprice from lineitem where l_quantity < 25",
			dcopt.Stats{Requests: 4, Regions: 1, Local: 4}},
		{"q1", Q1SQL, dcopt.Stats{Requests: 6, Regions: 1, Local: 6}},
		{"q3ish", Q3ishSQL, dcopt.Stats{Requests: 7, Pins: 1, Unpins: 1, Regions: 3, Local: 7}},
	} {
		plan, err := minisql.Compile(c.sql, db.Schema(), "sys")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dc, st, err := dcopt.Rewrite(plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if st != c.st {
			t.Errorf("%s: stats = %+v, want %+v", c.name, st, c.st)
		}
		path := filepath.Join("testdata", c.name+"_dc.golden")
		if *update {
			if err := os.WriteFile(path, []byte(dc.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := dc.String(); got != string(want) {
			t.Errorf("%s: rewritten plan differs from %s (go test ./internal/tpch -update rewrites it):\n%s", c.name, path, got)
		}
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
