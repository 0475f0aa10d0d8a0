package live

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/dcopt"
	"repro/internal/mal"
	"repro/internal/minisql"
	"repro/internal/tpch"
)

// q3Tables is a hand-built customer, orders and lineitem for Q3ish:
// customer i is BUILDING when seg[i] holds, order i belongs to
// customer ocust[i] and qualifies on its date when early[i] holds, and
// lineitem row j bills lprice[j] to order key lkey[j]. Prices are
// quarters, so every sum is exact whatever order it is added in.
type q3Tables struct {
	seg         []bool
	okey, ocust []int64
	early       []bool
	lkey        []int64
	lprice      []float64
}

var q3Schema = minisql.MapSchema{
	"customer": {"c_custkey", "c_mktsegment"},
	"orders":   {"o_orderkey", "o_custkey", "o_orderdate"},
	"lineitem": {"l_orderkey", "l_extendedprice"},
}

// bill appends lineitem rows adding up to revenue for order key k.
func (q *q3Tables) bill(rng *rand.Rand, k int64, revenue float64) {
	for revenue > 0 {
		p := min(revenue, float64(1+rng.Intn(400))/4)
		q.lkey, q.lprice = append(q.lkey, k), append(q.lprice, p)
		revenue -= p
	}
}

// columns shuffles the lineitem rows — but keeps each order key's
// first row where first puts it, when first is set — and pads
// lineitem past 2,000 rows with rows billing orders that do not
// qualify or do not exist.
func (q *q3Tables) columns(rng *rand.Rand, first []int64) map[string]*bat.BAT {
	for len(q.lkey) < 2100 {
		q.lkey = append(q.lkey, 900+int64(rng.Intn(50))) // no such order
		q.lprice = append(q.lprice, float64(rng.Intn(4000))/4)
	}
	rng.Shuffle(len(q.lkey), func(i, j int) {
		q.lkey[i], q.lkey[j] = q.lkey[j], q.lkey[i]
		q.lprice[i], q.lprice[j] = q.lprice[j], q.lprice[i]
	})
	// Move each of first's keys' rows, in that order, to the front.
	at := 0
	for _, k := range first {
		for j := range q.lkey {
			if q.lkey[j] == k {
				q.lkey[at], q.lkey[j] = q.lkey[j], q.lkey[at]
				q.lprice[at], q.lprice[j] = q.lprice[j], q.lprice[at]
				at++
				break
			}
		}
	}
	ckey, cseg := make([]int64, len(q.seg)), make([]string, len(q.seg))
	for i, b := range q.seg {
		ckey[i], cseg[i] = int64(i+1), "AUTOMOBILE"
		if b {
			cseg[i] = "BUILDING"
		}
	}
	odate := make([]int64, len(q.early))
	for i, e := range q.early {
		odate[i] = 19950601
		if e {
			odate[i] = 19940601
		}
	}
	return map[string]*bat.BAT{
		"customer.c_custkey": bat.MakeInts("customer.c_custkey", ckey), "customer.c_mktsegment": bat.MakeStrs("customer.c_mktsegment", cseg),
		"orders.o_orderkey": bat.MakeInts("orders.o_orderkey", q.okey), "orders.o_custkey": bat.MakeInts("orders.o_custkey", q.ocust),
		"orders.o_orderdate":  bat.MakeInts("orders.o_orderdate", odate),
		"lineitem.l_orderkey": bat.MakeInts("lineitem.l_orderkey", q.lkey), "lineitem.l_extendedprice": bat.MakeFloats("lineitem.l_extendedprice", q.lprice),
	}
}

// order adds an order of customer c, qualifying on its date or not.
func (q *q3Tables) order(key, c int64, early bool) {
	q.okey, q.ocust, q.early = append(q.okey, key), append(q.ocust, c), append(q.early, early)
}

// TestServedQ3Edges serves Q3ish over hand-built tables at the edges of
// its lineitem region's probe (bat.KeyIndex) and holds every cell to
// the local reference, the compiled plan run on whole columns, at one
// fragment a column, at 1,000-row fragments and at 1<<20:
//
//   - tie: the 10th and 11th orders by revenue tie, and the 11th's
//     lineitem rows come first, so the groups must come out in the
//     order of their first build row, not their first probe row;
//   - duplicate key: two qualifying orders hold one key, whose revenue
//     counts every lineitem row twice;
//   - no match: no lineitem row bills a qualifying order;
//   - all match: every billed order qualifies.
func TestServedQ3Edges(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	cases := []struct {
		name  string
		build func() (*q3Tables, []int64)
		check func(rows [][]any) error
	}{
		{"tie", func() (*q3Tables, []int64) {
			q := &q3Tables{seg: make([]bool, 30)}
			for c := range q.seg {
				q.seg[c] = c < 12
			}
			// Orders 1..12 of customers 1..12, build rows in key order;
			// 1 and 2 tie at 300, 10th and 11th.
			revenue := []float64{300, 300, 100, 420, 430, 440, 450, 460, 470, 480, 490, 500}
			for k, r := range revenue {
				q.order(int64(k+1), int64(k+1), true)
				q.bill(rng, int64(k+1), r)
			}
			for k := int64(13); k <= 40; k++ { // late: none qualifies
				q.order(k, 1+int64(rng.Intn(30)), false)
				q.bill(rng, k, float64(rng.Intn(2000))/4)
			}
			return q, []int64{2, 1}
		}, func(rows [][]any) error {
			if len(rows) != 10 || rows[9][0] != int64(1) || rows[9][1] != 300.0 {
				return fmt.Errorf("want 10 rows, the 10th order 1 at 300 (its tie, order 2, is 11th)")
			}
			return nil
		}},
		{"duplicate key", func() (*q3Tables, []int64) {
			q := &q3Tables{seg: []bool{true, true, false}}
			q.order(7, 1, true)
			q.order(8, 2, true)
			q.order(7, 2, true) // 7 again
			q.order(9, 3, true) // not BUILDING
			q.bill(rng, 7, 250)
			q.bill(rng, 8, 400)
			q.bill(rng, 9, 900)
			return q, nil
		}, func(rows [][]any) error {
			if fmt.Sprint(rows) != "[[7 500] [8 400]]" {
				return fmt.Errorf("want order 7 at twice its 250, then 8 at 400")
			}
			return nil
		}},
		{"no match", func() (*q3Tables, []int64) {
			q := &q3Tables{seg: []bool{true, false}}
			q.order(1, 1, false) // late
			q.order(2, 2, true)  // not BUILDING
			q.order(3, 1, true)  // qualifies, billed nothing
			q.bill(rng, 1, 100)
			q.bill(rng, 2, 200)
			return q, nil
		}, func(rows [][]any) error {
			if len(rows) != 0 {
				return fmt.Errorf("want no rows")
			}
			return nil
		}},
		{"all match", func() (*q3Tables, []int64) {
			q := &q3Tables{seg: []bool{true, true, true}}
			for k := int64(1); k <= 6; k++ {
				q.order(k, 1+k%3, true)
			}
			for len(q.lkey) < 2100 {
				q.lkey = append(q.lkey, 1+int64(rng.Intn(6)))
				q.lprice = append(q.lprice, float64(rng.Intn(4000))/4)
			}
			return q, nil
		}, func(rows [][]any) error {
			if len(rows) != 6 {
				return fmt.Errorf("want all 6 orders")
			}
			return nil
		}},
	}
	for _, c := range cases {
		q, first := c.build()
		cols := q.columns(rng, first)
		plan, err := minisql.Compile(tpch.Q3ishSQL, q3Schema, "sys")
		if err != nil {
			t.Fatal(err)
		}
		local, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), Catalog: catalogOf(cols)}, plan)
		if err != nil {
			t.Fatal(err)
		}
		want := local.(*mal.ResultSet).Rows()
		if err := c.check(want); err != nil {
			t.Fatalf("%s: the local reference %v: %v", c.name, want, err)
		}
		dc, _, err := dcopt.Rewrite(plan)
		if err != nil {
			t.Fatal(err)
		}
		if pin := outerPinOf(dc, "lineitem"); pin != "" {
			t.Fatalf("the served Q3ish pins a lineitem column whole: %s", pin)
		}
		for _, rows := range []int{0, 1000, 1 << 20} {
			cfg := DefaultConfig()
			cfg.FragmentRows = rows
			r, err := NewRing(3, cols, q3Schema, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rs, err := r.Node(0).ExecPlan(dc)
			r.Close()
			if err != nil {
				t.Fatalf("%s, FragmentRows=%d: %v", c.name, rows, err)
			}
			got := rs.Rows()
			rs.Release()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, FragmentRows=%d:\n got %v\nwant %v", c.name, rows, got, want)
			}
		}
	}
}

// outerPinOf is the first whole-column pin of a column of table in p's
// outer plan, "" when there is none: a pin outside every aligned region
// merges all of a column's fragments (pinMerged).
func outerPinOf(p *mal.Plan, table string) string {
	requested := map[mal.VarID]bool{}
	for _, in := range p.Instrs {
		switch {
		case in.Name() == "datacyclotron.request" && in.Args[1].Lit == table:
			requested[in.Ret[0]] = true
		case in.Name() == "datacyclotron.pin" && requested[in.Args[0].Var]:
			return in.String()
		}
	}
	return ""
}
