package minisql

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// chained matches uselect's candidate form: a column, then the list so
// far, then the limits.
var chained = regexp.MustCompile(`algebra\.uselect\(X\d+, X\d+, `)

// qtys runs `select qty from lineitem where <where>` (qty = 10 20 5 7 8 9,
// disc = .1 0 .2 0 .05 0, flag = A A N N A N) and returns the plan with
// the qualifying quantities in row order.
func qtys(t *testing.T, where string) (plan string, got []int64) {
	t.Helper()
	src := "select qty from lineitem where " + where
	schema, _ := testDB()
	p, err := Compile(src, schema, "sys")
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	got = []int64{}
	for _, row := range runSQL(t, src).Rows() {
		got = append(got, row[0].(int64))
	}
	return p.String(), got
}

// uselectAllArgs returns the arguments of plan's algebra.uselectall, or
// nil when it has none.
func uselectAllArgs(plan string) []string {
	m := regexp.MustCompile(`algebra\.uselectall\(([^;]*)\);`).FindStringSubmatch(plan)
	if m == nil {
		return nil
	}
	return strings.Split(m[1], ", ")
}

// TestCoalescedRanges: every range predicate on one column folds into a
// single range with the tightest limits, whatever the order and mix of
// operators; the ranges of distinct columns become the terms of one
// algebra.uselectall, one column per five arguments, and a lone column
// stays an algebra.uselect. Nothing chains and nothing is intersected.
func TestCoalescedRanges(t *testing.T) {
	for _, c := range []struct {
		where   string
		limits  string // one column's (lo, hi, loIncl, hiIncl) arguments
		columns int    // columns with a range
		want    []int64
	}{
		// One-sided.
		{"qty < 9", "<nil>, 9, false, false", 1, []int64{5, 7, 8}},
		{"qty >= 9", "9, <nil>, true, false", 1, []int64{10, 20, 9}},
		// Closed, half-open and open ends from two comparisons.
		{"qty >= 7 and qty <= 10", "7, 10, true, true", 1, []int64{10, 7, 8, 9}},
		{"qty >= 7 and qty < 10", "7, 10, true, false", 1, []int64{7, 8, 9}},
		{"qty > 7 and qty < 10", "7, 10, false, false", 1, []int64{8, 9}},
		{"qty < 10 and qty > 7", "7, 10, false, false", 1, []int64{8, 9}},
		// The tighter of two limits on one side wins; at the same value,
		// the exclusive one.
		{"qty > 5 and qty >= 8 and qty < 100", "8, 100, true, false", 1, []int64{10, 20, 8, 9}},
		{"qty >= 8 and qty > 8", "8, <nil>, false, false", 1, []int64{10, 20, 9}},
		{"qty <= 9 and qty < 9 and qty <= 20", "<nil>, 9, false, false", 1, []int64{5, 7, 8}},
		// between + comparison.
		{"qty between 7 and 10 and qty < 10", "7, 10, true, false", 1, []int64{7, 8, 9}},
		{"qty > 7 and qty between 5 and 9", "7, 9, false, true", 1, []int64{8, 9}},
		{"qty between 5 and 20 and qty between 8 and 30", "8, 20, true, true", 1, []int64{10, 20, 8, 9}},
		// Contradictory limits stay one select and yield nothing.
		{"qty > 9 and qty < 8", "9, 8, false, false", 1, []int64{}},
		{"qty >= 9 and qty < 9", "9, 9, true, false", 1, []int64{}},
		{"qty between 8 and 9 and qty > 9", "9, 9, false, true", 1, []int64{}},
		// A float limit on the int column orders against int ones.
		{"qty > 7.5 and qty >= 7 and qty < 10", "7.5, 10, false, false", 1, []int64{8, 9}},
		// A point range.
		{"qty >= 8 and qty <= 8", "8, 8, true, true", 1, []int64{8}},
		// Other columns are other terms of one select, in SQL order; a
		// term no row satisfies empties the list.
		{"qty >= 7 and disc < 0.1 and qty < 20 and disc >= 0", "7, 20, true, false", 2, []int64{7, 8, 9}},
		{"disc >= 0.05 and qty < 10 and price > 60", "60, <nil>, false, false", 3, []int64{8}},
		{"qty > 100 and disc < 0.1 and price > 60", "60, <nil>, false, false", 3, []int64{}},
	} {
		plan, got := qtys(t, c.where)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: rows %v, want %v", c.where, got, c.want)
		}
		if n := strings.Count(plan, "algebra.uselect"); n != 1 {
			t.Errorf("%s: %d range selects, want 1\n%s", c.where, n, plan)
		}
		if c.columns > 1 && len(uselectAllArgs(plan)) != 5*c.columns {
			t.Errorf("%s: no uselectall over %d columns\n%s", c.where, c.columns, plan)
		}
		if c.columns == 1 && !strings.Contains(plan, "algebra.uselect(") {
			t.Errorf("%s: one column's range is not a uselect\n%s", c.where, plan)
		}
		if chained.MatchString(plan) {
			t.Errorf("%s: a range chains from another\n%s", c.where, plan)
		}
		if strings.Contains(plan, "algebra.semijoin") {
			t.Errorf("%s: range predicates intersected by semijoin\n%s", c.where, plan)
		}
		if !strings.Contains(plan, ", "+c.limits+");") && !strings.Contains(plan, ", "+c.limits+", ") {
			t.Errorf("%s: limits not coalesced to (%s)\n%s", c.where, c.limits, plan)
		}
		if strings.Contains(plan, "bat.mirror") || strings.Contains(plan, "algebra.select(") {
			t.Errorf("%s: range predicate did not become a uselect\n%s", c.where, plan)
		}
	}
}

// Equality tests keep their own scan and mirror and intersect by
// semijoin, beside a coalesced range on the same column; a range after
// an equality chains from the mirrored list; limits that cannot be
// ordered against each other stay separate selects.
func TestCoalescingLeavesEqualityAndMixedLiteralsAlone(t *testing.T) {
	plan, got := qtys(t, "qty >= 7 and qty <> 8 and qty <= 10 and flag = 'N'")
	if want := []int64{7, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	for op, n := range map[string]int{"algebra.uselect": 1, "algebra.selectNe": 1, "algebra.selectEq": 1, "bat.mirror": 2, "algebra.semijoin": 2} {
		if strings.Count(plan, op) != n {
			t.Errorf("%d %s, want %d\n%s", strings.Count(plan, op), op, n, plan)
		}
	}
	if !strings.Contains(plan, ", 7, 10, true, true);") {
		t.Errorf("range around the <> not coalesced\n%s", plan)
	}

	// flag = 'N' first: the range that follows takes the mirror as its
	// candidates, and the <> after it intersects again.
	plan, got = qtys(t, "flag = 'N' and qty >= 7 and qty <> 9")
	if want := []int64{7}; !reflect.DeepEqual(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	eq := regexp.MustCompile(`(X\d+) := bat\.mirror\(X\d+\);`).FindStringSubmatch(plan)
	if eq == nil || !strings.Contains(plan, ", "+eq[1]+", 7, <nil>, true, false);") {
		t.Errorf("the range after an equality does not chain from its mirrored list\n%s", plan)
	}
	if n := strings.Count(plan, "algebra.semijoin"); n != 1 {
		t.Errorf("%d semijoins, want 1 (the <> only)\n%s", n, plan)
	}

	plan, got = qtys(t, "flag >= 'A' and flag < 'B' and qty > 8")
	if want := []int64{10, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	if args := uselectAllArgs(plan); len(args) != 10 || strings.Join(args[1:5], ", ") != `"A", "B", true, false` {
		t.Errorf("string limits not coalesced into the first of two terms\n%s", plan)
	}

	// Only leading ranges make one select: after an equality, each
	// range chains from the list so far.
	plan, got = qtys(t, "flag = 'N' and qty >= 7 and disc < 0.1")
	if want := []int64{7, 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("rows %v, want %v", got, want)
	}
	if strings.Contains(plan, "uselectall") || len(chained.FindAllString(plan, -1)) != 2 {
		t.Errorf("the ranges after an equality do not chain\n%s", plan)
	}

	for _, c := range []struct {
		a, b any
		c    int
		ok   bool
	}{
		{int64(3), int64(5), -1, true}, {2.5, 2.5, 0, true}, {"b", "a", 1, true},
		{int64(3), 2.5, 1, true}, {2.5, int64(3), -1, true}, {int64(2), 2.0, 0, true},
		{int64(1) << 60, 1e18, 0, false}, {1e18, int64(1) << 60, 0, false},
		{"a", int64(1), 0, false}, {2.5, "a", 0, false},
	} {
		if got, ok := cmpLit(c.a, c.b); got != c.c || ok != c.ok {
			t.Errorf("cmpLit(%v, %v) = %d, %v; want %d, %v", c.a, c.b, got, ok, c.c, c.ok)
		}
	}
	// Unorderable limits on one side: two selects, same rows.
	var r litRange
	if !r.and(Predicate{Op: OpLt, Rhs: int64(1) << 60}) || r.and(Predicate{Op: OpLt, Rhs: 1e18}) {
		t.Error("an int64 beyond 2^53 must not fold with a float limit")
	}
	if r.hi != int64(1)<<60 {
		t.Errorf("a refused limit changed the range: %+v", r)
	}
	if r.and(Predicate{Between: true, Lo: int64(0), Hi: 1e18}) || r.lo != nil {
		t.Errorf("a half-folded between changed the range: %+v", r)
	}
}

// sum(x), avg(x), count(*) fetch x once and count the candidate list.
func TestProjectionsMemoised(t *testing.T) {
	schema, _ := testDB()
	p, err := Compile("select sum(qty), avg(qty), count(*), min(price) from lineitem where qty < 10", schema, "sys")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(p.String(), "algebra.join"); n != 2 {
		t.Errorf("%d positional joins, want 2 (qty once, price once)\n%s", n, p)
	}
	row := runSQL(t, "select sum(qty), avg(qty), count(*), min(price) from lineitem where qty < 10").Row(0)
	if row[0].(int64) != 29 || row[1].(float64) != 7.25 || row[2].(int64) != 4 || row[3].(float64) != 50 {
		t.Errorf("row = %v", row)
	}
	// count(*) with no predicate and after a join still counts rows.
	if got := runSQL(t, "select count(*) from lineitem").Row(0)[0].(int64); got != 6 {
		t.Errorf("count(*) = %d, want 6", got)
	}
	if got := runSQL(t, "select count(*) from lineitem, orders where lineitem.orderkey = orders.orderkey and odate < 19980301").Row(0)[0].(int64); got != 3 {
		t.Errorf("join count(*) = %d, want 3", got)
	}
}
