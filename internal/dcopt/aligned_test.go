package dcopt

import (
	"fmt"
	"math/rand"
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
// the WHERE clause says row by row.
type alignedCase struct {
	cols  map[string]*bat.BAT
	sql   string
	want  [][]any // the answer, computed in plain Go over the raw slices
	fails bool    // min/max over no rows: no scalar to put in a result row
	cuts  []int
	order []int
}

var alignedSchema = minisql.MapSchema{"f": {"a", "b", "c", "d", "e", "g", "h"}}

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

	var kept []int
	for i := 0; i < rows; i++ {
		ok := true
		for _, w := range where {
			ok = ok && w.test(i)
		}
		if ok {
			kept = append(kept, i)
		}
	}
	var sel, group string
	switch rng.Intn(7) {
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
		// Grouping reads the fetched columns' heads: they merge by concat.
		sel, group = "h, sum(g), count(*)", " group by h order by h"
		sums, counts := map[string]float64{}, map[string]int64{}
		for _, i := range kept {
			sums[h[i]] += g[i]
			counts[h[i]]++
		}
		for _, m := range modes {
			if counts[m] > 0 {
				tc.want = append(tc.want, []any{m, sums[m], counts[m]})
			}
		}
	default:
		sel = "d, e"
		for _, i := range kept {
			tc.want = append(tc.want, []any{d[i], e[i]})
		}
	}
	tc.sql = "select " + sel + " from f"
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
	return tc
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
	if st.Regions != 1 || st.Pins != 0 {
		t.Fatalf("%s: stats %+v, want everything in one region:\n%s", tc.sql, st, dc)
	}
	rt := &maltest.FragDC{
		Cols:  tc.cols,
		Cuts:  func(int) []int { return tc.cuts },
		Order: func(int) []int { return tc.order },
		// Narrow codes, as the ring stores every fragment: the
		// selections and fetches run on them.
		Narrow: true,
	}
	parts, partsErr := mal.Run(&mal.Context{Registry: mal.Standard(), DC: rt}, dc)
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
	if g := parts.(*mal.ResultSet).Rows(); !maltest.SameRows(tc.want, g) {
		t.Fatalf("%s cut at %v in order %v:\nwant %v\ngot  %v", tc.sql, tc.cuts, tc.order, tc.want, g)
	}
	if rt.Parts != len(tc.order) || rt.Pins != rt.Unpins {
		t.Fatalf("%s: %d parts for %d fragments, %d pins, %d unpins", tc.sql, rt.Parts, len(tc.order), rt.Pins, rt.Unpins)
	}
	return conj, rewritten
}

// TestAlignedRegionProperty: 600 seeded cases, sizes from no rows at
// all to a few hundred, fragments from one row to the whole table; a
// good share of them test their ranges in one uselectall, select into
// a bitmap, merge fetch exits by their heads, and select and sum in one
// aggr.selectsum.
func TestAlignedRegionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	conj, masks, heads, fused := 0, 0, 0, 0
	for seed := int64(0); seed < 600; seed++ {
		rows := rng.Intn(300)
		if seed%25 == 0 {
			rows = 0
		}
		c, dc := drawAligned(seed, rows, 1+rng.Intn(rows+8)).check(t)
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
