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
// mal.Run answers on the whole columns.
type alignedCase struct {
	cols  map[string]*bat.BAT
	sql   string
	cuts  []int
	order []int
}

var alignedSchema = minisql.MapSchema{"f": {"a", "b", "c"}}

// drawAligned derives a case from seed. rows and frag steer the sizes
// so a fuzzer can reach the edges — no rows, one fragment, a last
// fragment shorter than the rest — without finding them by seed alone.
func drawAligned(seed int64, rows, frag int) alignedCase {
	rng := rand.New(rand.NewSource(seed))
	a, b, c := make([]int64, rows), make([]float64, rows), make([]int64, rows)
	for i := range a {
		a[i] = int64(rng.Intn(100))
		b[i] = float64(rng.Intn(10000)) / 7
		c[i] = int64(rng.Intn(4))
	}
	tc := alignedCase{cols: map[string]*bat.BAT{
		"f.a": bat.MakeInts("f.a", a), "f.b": bat.MakeFloats("f.b", b), "f.c": bat.MakeInts("f.c", c),
	}}

	// Limits are drawn past the data (minisql has no negative literals,
	// so only upwards): some predicates keep every row, some none.
	var where []string
	if rng.Intn(4) > 0 {
		lo := rng.Intn(140)
		where = append(where, fmt.Sprintf("a >= %d and a < %d", lo, lo+rng.Intn(80)))
	}
	if rng.Intn(3) > 0 {
		lo := float64(rng.Intn(1500))
		where = append(where, fmt.Sprintf("b between %.2f and %.2f", lo, lo+float64(rng.Intn(900))))
	}
	if rng.Intn(3) == 0 {
		where = append(where, fmt.Sprintf("c %s %d", []string{"=", "<>"}[rng.Intn(2)], rng.Intn(5)))
	}
	if rng.Intn(4) == 0 {
		where = append(where, fmt.Sprintf("a <= %d", rng.Intn(120)))
	}
	sel := []string{"sum(b), count(*)", "sum(a), min(b), max(c), count(*)", "a, b", "c"}[rng.Intn(4)]
	tc.sql = "select " + sel + " from f"
	if len(where) > 0 {
		tc.sql += " where " + strings.Join(where, " and ")
	}

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
// rewritten on the fragmented runtime, and compares.
func (tc alignedCase) check(t *testing.T) {
	t.Helper()
	plan, err := minisql.Compile(tc.sql, alignedSchema, "sys")
	if err != nil {
		t.Fatalf("%s: %v", tc.sql, err)
	}
	want, wantErr := mal.Run(&mal.Context{Registry: mal.Standard(), Catalog: bindCatalog(tc.cols)}, plan)
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
	}
	got, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: rt}, dc)
	if wantErr != nil {
		// An aggregate over no rows has no scalar to put in a result row;
		// whatever the whole-column plan makes of that, so must the parts.
		if err == nil {
			t.Fatalf("%s: whole columns fail (%v), fragments answer %v", tc.sql, wantErr, got.(*mal.ResultSet).Rows())
		}
		return
	}
	if err != nil {
		t.Fatalf("%s cut at %v in order %v: %v\n%s", tc.sql, tc.cuts, tc.order, err, dc)
	}
	if w, g := want.(*mal.ResultSet).Rows(), got.(*mal.ResultSet).Rows(); !maltest.SameRows(w, g) {
		t.Fatalf("%s cut at %v in order %v:\nwant %v\ngot  %v", tc.sql, tc.cuts, tc.order, w, g)
	}
	if rt.Parts != len(tc.order) || rt.Pins != rt.Unpins {
		t.Fatalf("%s: %d parts for %d fragments, %d pins, %d unpins", tc.sql, rt.Parts, len(tc.order), rt.Pins, rt.Unpins)
	}
}

// TestAlignedRegionProperty: 600 seeded cases, sizes from no rows at
// all to a few hundred, fragments from one row to the whole table.
func TestAlignedRegionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for seed := int64(0); seed < 600; seed++ {
		rows := rng.Intn(300)
		if seed%25 == 0 {
			rows = 0
		}
		drawAligned(seed, rows, 1+rng.Intn(rows+8)).check(t)
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
