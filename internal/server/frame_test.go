package server_test

import (
	"bytes"
	"testing"

	"repro/internal/bat"
	"repro/internal/dcopt"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
	"repro/internal/server"
	"repro/internal/tpch"
)

// TestServedFramesMatchLocalReference: for each of the four queries
// whose rewritten plans are golden (internal/tpch/testdata), the result
// frame a node serves is byte for byte the frame of the same plan run
// locally, fragment by fragment at the ring's cuts, over the
// generator's wide columns — whatever widths the ring stores its
// fragments in. Same cuts, same merge order: float sums agree to the
// bit, so any difference is the kernel's or the frame's. With one
// fragment per column a projection's result is a fragment's own narrow
// column, which must be widened before it is encoded. q6ish sums the
// decimal l_extendedprice, and wide projects it.
func TestServedFramesMatchLocalReference(t *testing.T) {
	db := tpch.GenDB(0.002, 1)
	for _, c := range []struct {
		name  string
		width int
	}{{"l_quantity", 1}, {"l_discount", 1}, {"l_extendedprice", 2}} {
		col, _ := db.Column("lineitem", c.name)
		if w := bat.Narrow(col).Tail().Width(); w != c.width {
			t.Fatalf("%s narrows to %d bytes, want %d: the ring would serve it wide", c.name, w, c.width)
		}
	}
	for _, rows := range []int{0, 2048, 1 << 20} {
		cfg := live.DefaultConfig()
		cfg.FragmentRows = rows
		checkServedFrames(t, db, cfg)
	}
}

func checkServedFrames(t *testing.T, db *tpch.DB, cfg live.Config) {
	t.Helper()
	r, err := live.NewRing(3, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, c := range []struct{ name, sql string }{
		{"q6ish", tpch.Q6ishSQL},
		{"wide", "select l_orderkey, l_suppkey, l_extendedprice from lineitem where l_quantity < 25"},
		{"q1", tpch.Q1SQL},
		{"q3ish", tpch.Q3ishSQL},
	} {
		plan, err := minisql.Compile(c.sql, db.Schema(), "sys")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dc, _, err := dcopt.Rewrite(plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		local := &maltest.FragDC{Cols: db.ColumnMap(), Cuts: maltest.EveryRows(cfg.FragmentRows)}
		ref, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: local}, dc)
		if err != nil {
			t.Fatalf("%s: local reference: %v", c.name, err)
		}
		want, err := server.EncodeResult(ref.(*mal.ResultSet))
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < r.Size(); node++ {
			rs, err := r.Node(node).ExecSQL(c.sql)
			if err != nil {
				t.Fatalf("%s on node %d: %v", c.name, node, err)
			}
			got, err := server.EncodeResult(rs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s on node %d, %d-row fragments: served frame (%d bytes) differs from the local reference's (%d bytes)",
					c.name, node, cfg.FragmentRows, len(got), len(want))
			}
		}
	}
}
