package mal_test

import (
	"testing"

	"repro/internal/dcopt"
	"repro/internal/mal"
	"repro/internal/minisql"
	"repro/internal/tpch"
)

// producerCorpus is SQL the front-end compiles: the four served queries
// (Q1, Q6ish, Q3ish and the wide projection) and the shapes that reach
// the rest of its operator set.
var producerCorpus = []string{
	tpch.Q1SQL,
	tpch.Q6ishSQL,
	tpch.Q3ishSQL,
	"select l_orderkey, l_suppkey, l_extendedprice from lineitem where l_quantity < 25",
	// <> as a selection; = then a range, intersected by semijoin and
	// chained through a candidate list.
	"select count(*) from lineitem where l_returnflag <> 'R' and l_linestatus = 'F' and l_quantity < 30",
	// A cycle in the join graph: the last predicate filters positionally.
	`select count(*) from customer, orders, lineitem, supplier
	where c_custkey = o_custkey and l_orderkey = o_orderkey
		and l_suppkey = s_suppkey and c_nationkey = s_nationkey`,
	"select l_returnflag, min(l_quantity), max(l_extendedprice) from lineitem group by l_returnflag",
	"select min(l_quantity), max(l_quantity), avg(l_discount), count(*) from lineitem",
	"select l_orderkey, l_quantity from lineitem order by l_quantity desc limit 5",
}

// TestEveryOpHasAProducer holds the standard registry to the plans its
// producers emit: every op in mal.Standard() must appear in some plan
// the SQL front-end compiles from the corpus, or in its DcOptimizer
// rewrite, aligned sub-plans included. An op no producer reaches is
// code nothing runs but its own tests.
func TestEveryOpHasAProducer(t *testing.T) {
	schema := tpch.GenDB(0.0005, 1).Schema()
	seen := map[string]bool{}
	var walk func(p *mal.Plan)
	walk = func(p *mal.Plan) {
		for _, in := range p.Instrs {
			seen[in.Name()] = true
			for _, a := range in.Args {
				if r, ok := a.Lit.(*mal.Region); ok && a.IsLit() {
					walk(r.Plan())
				}
			}
		}
	}
	for _, sql := range producerCorpus {
		p, err := minisql.Compile(sql, schema, "sys")
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		dc, _, err := dcopt.Rewrite(p)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		walk(p)
		walk(dc)
	}
	var unreached []string
	ops := mal.RegisteredOps(mal.Standard())
	for _, op := range ops {
		if !seen[op] {
			unreached = append(unreached, op)
		}
	}
	if len(unreached) > 0 {
		t.Errorf("%d of %d registered ops no plan emits: %v", len(unreached), len(ops), unreached)
	}
}
