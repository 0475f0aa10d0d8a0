package dcopt

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
)

// alignedCase is one randomly drawn instance of the claim the aligned
// region rests on: a conjunctive query over a table cut into fragments
// at arbitrary rows, its parts run in an arbitrary order, answers what
// the WHERE clause says row by row. A joined case also reads a second
// table k, cut on its own, and answers what the join says pair by pair.
type alignedCase struct {
	cols  map[string]*bat.BAT
	sql   string
	want  [][]any // the answer, computed in plain Go over the raw slices
	fails bool    // min/max over no rows: no scalar to put in a result row
	cuts  []int
	order []int
	// A grouped case's keys, and the edges it reaches (groupEdges).
	groupBy                       []func(i int) any
	laterKey, rejectedPart, dicts bool
	// A joined case's k cuts and their order, and whether a key is held
	// by several kept k rows.
	kCuts, kOrder  []int
	joined, dupKey bool
}

var alignedSchema = minisql.MapSchema{"f": {"a", "b", "c", "d", "e", "g", "h"}, "k": {"x", "y"}}

// drawAligned derives a case from seed. rows and frag steer the sizes
// so a fuzzer can reach the edges — no rows, one fragment, a last
// fragment shorter than the rest — without finding them by seed alone.
func drawAligned(seed int64, rows, frag int) alignedCase {
	rng := rand.New(rand.NewSource(seed))
	a, b, c := make([]int64, rows), make([]float64, rows), make([]int64, rows)
	d, e := make([]int64, rows), make([]float64, rows)
	g, h := make([]float64, rows), make([]string, rows)
	modes := []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}
	for i := range a {
		a[i] = int64(rng.Intn(100))
		b[i] = float64(rng.Intn(10000)) / 7
		c[i] = int64(rng.Intn(4))
		d[i] = int64(rng.Intn(1000))
		e[i] = float64(rng.Intn(64)) / 64
		g[i] = float64(rng.Intn(200)) / 100
		h[i] = modes[rng.Intn(len(modes))]
	}
	tc := alignedCase{cols: map[string]*bat.BAT{
		"f.a": bat.MakeInts("f.a", a), "f.b": bat.MakeFloats("f.b", b), "f.c": bat.MakeInts("f.c", c),
		"f.d": bat.MakeInts("f.d", d), "f.e": bat.MakeFloats("f.e", e),
		"f.g": bat.MakeFloats("f.g", g), "f.h": bat.MakeStrs("f.h", h),
	}}

	// Each predicate is drawn as SQL text and as the Go test the oracle
	// applies to row i. Limits are drawn past the data (minisql has no
	// negative literals, so only upwards): some predicates keep every
	// row, some none, so a chain meets empty candidate lists midway.
	type pred struct {
		sql  string
		test func(i int) bool
	}
	var where []pred
	if rng.Intn(4) > 0 {
		lo := int64(rng.Intn(140))
		hi := lo + int64(rng.Intn(80))
		where = append(where, pred{fmt.Sprintf("a >= %d and a < %d", lo, hi),
			func(i int) bool { return a[i] >= lo && a[i] < hi }})
	}
	if rng.Intn(3) > 0 {
		lo := float64(rng.Intn(1500))
		hi := lo + float64(rng.Intn(900))
		where = append(where, pred{fmt.Sprintf("b between %.2f and %.2f", lo, hi),
			func(i int) bool { return b[i] >= lo && b[i] <= hi }})
	}
	if rng.Intn(3) == 0 {
		k := int64(rng.Intn(5))
		if rng.Intn(2) == 0 {
			where = append(where, pred{fmt.Sprintf("c = %d", k), func(i int) bool { return c[i] == k }})
		} else {
			where = append(where, pred{fmt.Sprintf("c <> %d", k), func(i int) bool { return c[i] != k }})
		}
	}
	if rng.Intn(4) == 0 {
		k := int64(rng.Intn(120))
		where = append(where, pred{fmt.Sprintf("a <= %d", k), func(i int) bool { return a[i] <= k }})
	}
	if rng.Intn(2) == 0 {
		k := int64(rng.Intn(1300))
		if rng.Intn(2) == 0 {
			where = append(where, pred{fmt.Sprintf("d > %d", k), func(i int) bool { return d[i] > k }})
		} else {
			where = append(where, pred{fmt.Sprintf("d <= %d", k), func(i int) bool { return d[i] <= k }})
		}
	}
	if rng.Intn(2) == 0 {
		// Sixty-fourths are exact in binary and in two decimals' worth
		// of text only at the quarters; the limit is a quarter.
		k := float64(rng.Intn(6)) / 4
		where = append(where, pred{fmt.Sprintf("e < %.2f", k), func(i int) bool { return e[i] < k }})
	}
	// Cents and a handful of strings: on fragments, like a, c and d,
	// they are 1- or 2-byte codes (b and e are wide and 4-byte), so a
	// conjunction of ranges over a, d, g and h is the bitmap kernel's.
	if rng.Intn(2) == 0 {
		// Limits in whole cents, so the printed literal is the limit.
		loC := rng.Intn(220)
		lo, hi := float64(loC)/100, float64(loC+rng.Intn(120))/100
		where = append(where, pred{fmt.Sprintf("g >= %.2f and g < %.2f", lo, hi),
			func(i int) bool { return g[i] >= lo && g[i] < hi }})
	}
	if rng.Intn(3) == 0 {
		lo, hi := modes[rng.Intn(len(modes))], modes[rng.Intn(len(modes))]+"Z"
		where = append(where, pred{fmt.Sprintf("h >= '%s' and h < '%s'", lo, hi),
			func(i int) bool { return h[i] >= lo && h[i] < hi }})
	}
	// SQL order is chain order: any column may come first, an equality
	// may sit before, between or behind the ranges; two or more leading
	// ranges are one uselectall.
	rng.Shuffle(len(where), func(i, j int) { where[i], where[j] = where[j], where[i] })

	keptRows := func() (kept []int) {
		for i := 0; i < rows; i++ {
			ok := true
			for _, w := range where {
				ok = ok && w.test(i)
			}
			if ok {
				kept = append(kept, i)
			}
		}
		return kept
	}
	kept := keptRows()
	var sel, group string
	from := " from f"
	switch rng.Intn(8) {
	case 0:
		sel = "sum(b), count(*)"
		sum := 0.0
		for _, i := range kept {
			sum += b[i]
		}
		tc.want = [][]any{{sum, int64(len(kept))}}
		if rng.Intn(3) == 0 { // a sum nothing counts beside
			sel, tc.want = "sum(b)", [][]any{{sum}}
		}
	case 1:
		sel = "sum(a), min(b), max(c), count(*)"
		tc.fails = len(kept) == 0
		if !tc.fails {
			sum, lo, hi := int64(0), b[kept[0]], c[kept[0]]
			for _, i := range kept {
				sum, lo, hi = sum+a[i], min(lo, b[i]), max(hi, c[i])
			}
			tc.want = [][]any{{sum, lo, hi, int64(len(kept))}}
		}
	case 2:
		sel = "a, b"
		for _, i := range kept {
			tc.want = append(tc.want, []any{a[i], b[i]})
		}
	case 3:
		sel = "c"
		for _, i := range kept {
			tc.want = append(tc.want, []any{c[i]})
		}
	case 4:
		// Decimal and dictionary codes fetched and merged by their tails.
		sel = "g, h"
		for _, i := range kept {
			tc.want = append(tc.want, []any{g[i], h[i]})
		}
	case 5:
		sel, group = tc.drawGrouped(rng, kept, a, b, c, d, g, h)
	case 7:
		// Pairs are few under many predicates: f keeps one at most.
		where = where[:min(len(where), 1)]
		kept = keptRows()
		var kWhere string
		sel, kWhere, group = tc.drawJoined(rng, kept, a, b, d, g)
		from = " from k, f"
		where = append([]pred{{sql: "a = x"}}, where...)
		if kWhere != "" {
			where = append(where, pred{sql: kWhere})
		}
	default:
		sel = "d, e"
		for _, i := range kept {
			tc.want = append(tc.want, []any{d[i], e[i]})
		}
	}
	if !strings.Contains(sel, "(") && rng.Intn(3) == 0 {
		// A sorted projection: the sort reads the first column's heads,
		// so the fetches merge by concat.
		desc := rng.Intn(2) == 0
		first, _, _ := strings.Cut(sel, ",")
		group = " order by " + first
		if desc {
			group += " desc"
		}
		sortRows(tc.want, 0, desc)
	}
	tc.sql = "select " + sel + from
	if len(where) > 0 {
		texts := make([]string, len(where))
		for i, w := range where {
			texts[i] = w.sql
		}
		tc.sql += " where " + strings.Join(texts, " and ")
	}
	tc.sql += group

	// Cuts: every frag rows, then some boundaries pulled onto their
	// neighbour (an empty fragment), possibly at either end.
	tc.cuts = maltest.EveryRows(max(1, frag))(rows)
	for i := 1; i < len(tc.cuts)-1; i++ {
		if rng.Intn(6) == 0 {
			tc.cuts[i] = tc.cuts[i+rng.Intn(2)*2-1]
		}
	}
	for i := 1; i < len(tc.cuts); i++ { // keep them ascending
		tc.cuts[i] = max(tc.cuts[i], tc.cuts[i-1])
	}
	tc.order = rng.Perm(len(tc.cuts) - 1)
	if tc.joined {
		k := tc.cols["k.x"].Len()
		tc.kCuts = maltest.EveryRows(1 + rng.Intn(k+4))(k)
		tc.kOrder = rng.Perm(len(tc.kCuts) - 1)
		// The runtime tells the tables apart by their lengths alone.
		if k == rows {
			tc.kCuts = tc.cuts
		}
		if len(tc.kCuts) == len(tc.cuts) {
			tc.kOrder = tc.order
		}
	}
	if tc.groupBy != nil {
		tc.groupEdges(kept)
	}
	return tc
}

// drawGrouped draws a GROUP BY over the kept rows: one or two keys from
// c, h and a, one to three of sum, count, avg, min and max over a, b, d
// and g, the keys selected or not, and an ORDER BY on a selected key or
// none. It sets the answer, with groups numbered by first appearance
// among the kept rows as the engine numbers them, and returns the select
// list and the clause after the WHERE.
func (tc *alignedCase) drawGrouped(rng *rand.Rand, kept []int, a []int64, b []float64, c, d []int64, g []float64, h []string) (sel, clause string) {
	keys := []valueCol{{"c", func(i int) any { return c[i] }}, {"h", func(i int) any { return h[i] }}, {"a", func(i int) any { return a[i] }}}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:1+rng.Intn(2)]
	tc.groupBy = make([]func(int) any, len(keys))
	var groups [][]int // each group's kept rows, by first appearance
	idOf := map[string]int{}
	for _, i := range kept {
		var k strings.Builder
		for _, key := range keys {
			fmt.Fprintf(&k, "%v|", key.at(i))
		}
		id, ok := idOf[k.String()]
		if !ok {
			id = len(groups)
			idOf[k.String()] = id
			groups = append(groups, nil)
		}
		groups[id] = append(groups[id], i)
	}

	var items []item
	var selected []string // the keys in the select list
	for k, key := range keys {
		key := key
		tc.groupBy[k] = key.at
		if rng.Intn(5) > 0 {
			selected = append(selected, key.name)
			items = append(items, item{key.name, func(rows []int) any { return key.at(rows[0]) }})
		}
	}
	values := []valueCol{{"a", func(i int) any { return a[i] }}, {"b", func(i int) any { return b[i] }},
		{"d", func(i int) any { return d[i] }}, {"g", func(i int) any { return g[i] }}}
	items = append(items, drawAggregates(rng, []string{"sum", "count", "avg", "min", "max"}, values)...)
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	texts := make([]string, len(items))
	for i, it := range items {
		texts[i] = it.sql
	}
	for _, rows := range groups {
		row := make([]any, len(items))
		for i, it := range items {
			row[i] = it.of(rows)
		}
		tc.want = append(tc.want, row)
	}
	names := make([]string, len(keys))
	for k, key := range keys {
		names[k] = key.name
	}
	clause = " group by " + strings.Join(names, ", ")
	for i, it := range items {
		if slices.Contains(selected, it.sql) && rng.Intn(2) == 0 {
			desc := rng.Intn(3) == 0
			clause += " order by " + it.sql
			if desc {
				clause += " desc"
			}
			sortRows(tc.want, i, desc)
			break
		}
	}
	return strings.Join(texts, ", "), clause
}

// valueCol is a select item's column: its name and its value at row i.
type valueCol struct {
	name string
	at   func(i int) any
}

// item is a select item: its SQL text and its value over a group's
// rows.
type item struct {
	sql string
	of  func(rows []int) any
}

// drawAggregates draws one to three of ops — sum, count, avg, min and
// max — over values, each with its value over a group's rows, a row
// listed as often as it is counted.
func drawAggregates(rng *rand.Rand, ops []string, values []valueCol) []item {
	sumOf := func(v func(int) any, rows []int) any {
		switch v(rows[0]).(type) {
		case int64:
			var s int64
			for _, i := range rows {
				s += v(i).(int64)
			}
			return s
		}
		var s float64
		for _, i := range rows {
			s += v(i).(float64)
		}
		return s
	}
	var items []item
	for n := 1 + rng.Intn(3); n > 0; n-- {
		v := values[rng.Intn(len(values))]
		switch op := ops[rng.Intn(len(ops))]; op {
		case "sum":
			items = append(items, item{"sum(" + v.name + ")", func(rows []int) any { return sumOf(v.at, rows) }})
		case "count":
			items = append(items, item{"count(*)", func(rows []int) any { return int64(len(rows)) }})
		case "avg":
			items = append(items, item{"avg(" + v.name + ")", func(rows []int) any {
				switch s := sumOf(v.at, rows).(type) {
				case int64:
					return float64(s) / float64(len(rows))
				case float64:
					return s / float64(len(rows))
				}
				panic("no sum")
			}})
		default:
			items = append(items, item{op + "(" + v.name + ")", func(rows []int) any {
				best := v.at(rows[0])
				for _, i := range rows[1:] {
					if x := v.at(i); op == "min" && less(x, best) || op == "max" && less(best, x) {
						best = x
					}
				}
				return best
			}})
		}
	}
	return items
}

// drawJoined draws a join of a second table k, its key column x with
// repeated keys and a filter on y or none, with f on f.a = k.x, grouped
// by x, with sum, count and avg over f's columns: the
// eager-aggregation probe's shape (bat.KeyIndex). It adds k's columns
// and sets the answer in plain Go — the pairs, kept k rows in k's row
// order and each one's kept f rows with a = x in f's, and the groups
// numbered by their first pair — and returns the select list, k's
// predicate ("" for none) and the clause after the WHERE.
func (tc *alignedCase) drawJoined(rng *rand.Rand, kept []int, a []int64, b []float64, d []int64, g []float64) (sel, kWhere, clause string) {
	// The keys come from a small pool, so they repeat; some are a kept f
	// row's a, so they match.
	pool := make([]int64, 1+rng.Intn(12))
	for i := range pool {
		pool[i] = int64(rng.Intn(110))
		if len(kept) > 0 && rng.Intn(4) > 0 {
			pool[i] = a[kept[rng.Intn(len(kept))]]
		}
	}
	rows := rng.Intn(40)
	x, y := make([]int64, rows), make([]int64, rows)
	for i := range x {
		x[i], y[i] = pool[rng.Intn(len(pool))], int64(rng.Intn(10))
	}
	tc.cols["k.x"], tc.cols["k.y"] = bat.MakeInts("k.x", x), bat.MakeInts("k.y", y)
	tc.joined = true
	keep := func(int) bool { return true }
	switch lim := int64(rng.Intn(11)); rng.Intn(4) {
	case 0:
		kWhere, keep = fmt.Sprintf("y < %d", lim), func(i int) bool { return y[i] < lim }
	case 1:
		kWhere, keep = fmt.Sprintf("y >= %d", lim), func(i int) bool { return y[i] >= lim }
	}
	var keys []int64
	groups := map[int64][]int{} // per key, its pairs' f rows
	held := map[int64]int{}     // per key, the kept k rows holding it
	for i := range x {
		if !keep(i) {
			continue
		}
		held[x[i]]++
		for _, j := range kept {
			if a[j] == x[i] {
				if groups[x[i]] == nil {
					keys = append(keys, x[i])
				}
				groups[x[i]] = append(groups[x[i]], j)
			}
		}
	}
	for _, k := range keys {
		tc.dupKey = tc.dupKey || held[k] > 1
	}
	var items []item
	if rng.Intn(5) > 0 {
		items = append(items, item{"x", nil})
	}
	values := []valueCol{{"a", func(i int) any { return a[i] }}, {"b", func(i int) any { return b[i] }},
		{"d", func(i int) any { return d[i] }}, {"g", func(i int) any { return g[i] }}}
	items = append(items, drawAggregates(rng, []string{"sum", "count", "avg"}, values)...)
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	texts := make([]string, len(items))
	for i, it := range items {
		texts[i] = it.sql
	}
	for _, k := range keys {
		row := make([]any, len(items))
		for i, it := range items {
			if it.of == nil {
				row[i] = k
			} else {
				row[i] = it.of(groups[k])
			}
		}
		tc.want = append(tc.want, row)
	}
	clause = " group by x"
	if i := slices.IndexFunc(items, func(it item) bool { return it.of == nil }); i >= 0 && rng.Intn(2) == 0 {
		desc := rng.Intn(3) == 0
		clause += " order by x"
		if desc {
			clause += " desc"
		}
		sortRows(tc.want, i, desc)
	}
	return strings.Join(texts, ", "), kWhere, clause
}

// groupEdges records which of the edges a grouped case reaches, with
// the fragments cut: a group first kept in a later fragment than the
// first kept row, a fragment with rows none of which is kept, and a key
// column whose fragments hold different values, so that each is
// narrowed to other codes.
func (tc *alignedCase) groupEdges(kept []int) {
	fragOf := func(i int) int {
		f := 0
		for tc.cuts[f+1] <= i {
			f++
		}
		return f
	}
	keptIn := make([]int, len(tc.cuts)-1)
	seen := map[string]bool{}
	for _, i := range kept {
		keptIn[fragOf(i)]++
		var k strings.Builder
		for _, at := range tc.groupBy {
			fmt.Fprintf(&k, "%v|", at(i))
		}
		if !seen[k.String()] {
			seen[k.String()] = true
			tc.laterKey = tc.laterKey || fragOf(i) > fragOf(kept[0])
		}
	}
	for f, n := range keptIn {
		tc.rejectedPart = tc.rejectedPart || len(kept) > 0 && n == 0 && tc.cuts[f+1] > tc.cuts[f]
	}
	for _, at := range tc.groupBy {
		var sets []string
		for f := 0; f+1 < len(tc.cuts); f++ {
			var vals []string
			for i := tc.cuts[f]; i < tc.cuts[f+1]; i++ {
				vals = append(vals, fmt.Sprint(at(i)))
			}
			if len(vals) > 0 {
				slices.Sort(vals)
				sets = append(sets, fmt.Sprint(slices.Compact(vals)))
			}
		}
		for _, set := range sets {
			tc.dicts = tc.dicts || set != sets[0]
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// less orders two values of one column's kind.
func less(x, y any) bool {
	switch x := x.(type) {
	case int64:
		return x < y.(int64)
	case float64:
		return x < y.(float64)
	case string:
		return x < y.(string)
	}
	panic(fmt.Sprintf("unordered %T", x))
}

// sortRows orders rows stably by column c, as algebra.sort does.
func sortRows(rows [][]any, c int, desc bool) {
	sort.SliceStable(rows, func(i, j int) bool {
		if desc {
			return less(rows[j][c], rows[i][c])
		}
		return less(rows[i][c], rows[j][c])
	})
}

// check runs the case's query as compiled on whole columns and as
// rewritten on the fragmented runtime, and holds both to the oracle:
// the two runs share every kernel, so agreeing with each other proves
// nothing about an inclusive bound. It reports whether the plan tests
// its ranges in one algebra.uselectall, and the rewritten plan.
func (tc alignedCase) check(t *testing.T) (conj bool, rewritten string) {
	t.Helper()
	plan, err := minisql.Compile(tc.sql, alignedSchema, "sys")
	if err != nil {
		t.Fatalf("%s: %v", tc.sql, err)
	}
	whole, wholeErr := mal.Run(&mal.Context{Registry: mal.Standard(), Catalog: bindCatalog(tc.cols)}, plan)
	dc, st, err := Rewrite(plan)
	if err != nil {
		t.Fatal(err)
	}
	regions, parts := 1, len(tc.order)
	cuts, order := func(int) []int { return tc.cuts }, func(int) []int { return tc.order }
	if tc.joined {
		// Each table's region; f's probes k's key index.
		regions, parts = 2, parts+len(tc.kOrder)
		cuts = func(n int) []int {
			if n == tc.cuts[len(tc.cuts)-1] {
				return tc.cuts
			}
			return tc.kCuts
		}
		order = func(n int) []int {
			if n == len(tc.order) {
				return tc.order
			}
			return tc.kOrder
		}
		if !strings.Contains(dc.String(), "group.probe(") {
			t.Fatalf("%s: no probe:\n%s", tc.sql, dc)
		}
	}
	if st.Regions != regions || st.Pins != 0 {
		t.Fatalf("%s: stats %+v, want everything in %d regions:\n%s", tc.sql, st, regions, dc)
	}
	rt := &maltest.FragDC{
		Cols:  tc.cols,
		Cuts:  cuts,
		Order: order,
		// Narrow codes, as the ring stores every fragment: the
		// selections and fetches run on them.
		Narrow: true,
	}
	got, partsErr := mal.Run(&mal.Context{Registry: mal.Standard(), DC: rt}, dc)
	conj, rewritten = strings.Contains(plan.String(), "algebra.uselectall("), dc.String()
	if tc.fails {
		if wholeErr == nil || partsErr == nil {
			t.Fatalf("%s: min/max over no rows must fail; whole columns: %v, fragments: %v", tc.sql, wholeErr, partsErr)
		}
		return conj, rewritten
	}
	if wholeErr != nil {
		t.Fatalf("%s on whole columns: %v\n%s", tc.sql, wholeErr, plan)
	}
	if partsErr != nil {
		t.Fatalf("%s cut at %v in order %v: %v\n%s", tc.sql, tc.cuts, tc.order, partsErr, dc)
	}
	if g := whole.(*mal.ResultSet).Rows(); !maltest.SameRows(tc.want, g) {
		t.Fatalf("%s on whole columns:\nwant %v\ngot  %v\n%s", tc.sql, tc.want, g, plan)
	}
	if g := got.(*mal.ResultSet).Rows(); !maltest.SameRows(tc.want, g) {
		t.Fatalf("%s cut at %v in order %v (k at %v in %v):\nwant %v\ngot  %v", tc.sql, tc.cuts, tc.order, tc.kCuts, tc.kOrder, tc.want, g)
	}
	if rt.Parts != parts || rt.Pins != rt.Unpins {
		t.Fatalf("%s: %d parts for %d fragments, %d pins, %d unpins", tc.sql, rt.Parts, parts, rt.Pins, rt.Unpins)
	}
	return conj, rewritten
}

// TestAlignedRegionProperty: 600 seeded cases, sizes from no rows at
// all to a few hundred, fragments from one row to the whole table; a
// good share of them test their ranges in one uselectall, select into
// a bitmap, merge fetch exits by their heads, select and sum in one
// aggr.selectsum, and group in the region with group.aggregate — some
// of those with a key first kept in a later fragment, a fragment whose
// rows are all rejected, and key fragments narrowed to different codes
// — and join a second table k, grouped by its key, in f's region with
// group.probe, some of those with a key several kept k rows hold.
func TestAlignedRegionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	conj, masks, heads, fused := 0, 0, 0, 0
	grouped, later, rejected, dicts := 0, 0, 0, 0
	probed, dups := 0, 0
	for seed := int64(0); seed < 600; seed++ {
		rows := rng.Intn(300)
		if seed%25 == 0 {
			rows = 0
		}
		tc := drawAligned(seed, rows, 1+rng.Intn(rows+8))
		c, dc := tc.check(t)
		if strings.Contains(dc, "group.aggregate(") {
			grouped++
			later += b2i(tc.laterKey)
			rejected += b2i(tc.rejectedPart)
			dicts += b2i(tc.dicts)
		}
		if strings.Contains(dc, "group.probe(") {
			probed++
			dups += b2i(tc.dupKey)
		}
		if c {
			conj++
		}
		if strings.Contains(dc, "algebra.uselectmask(") {
			masks++
		}
		if strings.Contains(dc, ":concat=join(") {
			heads++
		}
		if strings.Contains(dc, "aggr.selectsum(") {
			fused++
		}
	}
	if conj < 150 || masks < 100 || heads < 50 || fused < 30 {
		t.Errorf("of 600 cases %d ran a uselectall (want ≥ 150), %d a uselectmask (≥ 100), %d a concat fetch exit (≥ 50), %d a fused sum (≥ 30)", conj, masks, heads, fused)
	}
	t.Logf("%d cases grouped in the region: %d with a key first kept in a later fragment, %d with an all-rejected fragment, %d with key fragments coded apart", grouped, later, rejected, dicts)
	if grouped < 60 || later < 6 || rejected < 4 || dicts < 20 {
		t.Errorf("of 600 cases %d ran a group.aggregate (want ≥ 60): %d with a later first key (≥ 6), %d with an all-rejected part (≥ 4), %d with keys coded apart (≥ 20)", grouped, later, rejected, dicts)
	}
	t.Logf("%d cases probed a key index, %d with a repeated build key", probed, dups)
	if probed < 50 || dups < 20 {
		t.Errorf("of 600 cases %d ran a group.probe (want ≥ 50), %d with a repeated build key (≥ 20)", probed, dups)
	}
}

// FuzzAlignedRegion lets the fuzzer pick the seed and the sizes.
func FuzzAlignedRegion(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(16))
	f.Add(int64(2), uint16(0), uint16(4))    // no rows
	f.Add(int64(3), uint16(7), uint16(64))   // one fragment
	f.Add(int64(4), uint16(129), uint16(64)) // a one-row tail
	f.Add(int64(5), uint16(50), uint16(1))   // one row per fragment
	f.Fuzz(func(t *testing.T, seed int64, rows, frag uint16) {
		drawAligned(seed, int(rows%2048), int(frag)).check(t)
	})
}
