package mal_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/dcopt"
	"repro/internal/mal"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
	"repro/internal/tpch"
)

// q6Region hand-builds the plan dcopt makes of a two-predicate
// selective aggregate over t(k, v): requests, then one
// datacyclotron.aligned whose sub-plan selects on k, tests v at those
// candidates, fetches v and reduces it four ways, plus the candidate
// list and the fetched column as concatenated exits — and, with tails,
// both again as tail exits.
func q6Region(tails bool) *mal.Plan {
	sub := mal.NewBuilder("sys.t")
	k := sub.Emit("datacyclotron", "pin", mal.L(mal.Slot(0)))
	ck := sub.Emit("algebra", "uselect", mal.V(k), mal.L(int64(2)), mal.L(int64(6)), mal.L(true), mal.L(false))
	sub.Emit0("datacyclotron", "unpin", mal.V(k))
	v := sub.Emit("datacyclotron", "pin", mal.L(mal.Slot(1)))
	cand := sub.Emit("algebra", "uselect", mal.V(v), mal.V(ck), mal.L(nil), mal.L(5000.0), mal.L(false), mal.L(false))
	vals := sub.Emit("algebra", "join", mal.V(cand), mal.V(v))
	sub.Emit0("datacyclotron", "unpin", mal.V(v))
	exits := []mal.Exit{
		{Var: sub.Emit("aggr", "sum", mal.V(vals)), Merge: mal.MergeAdd},
		{Var: sub.Emit("aggr", "count", mal.V(cand)), Merge: mal.MergeAdd},
		{Var: sub.Emit("aggr", "min", mal.V(vals)), Merge: mal.MergeMin},
		{Var: sub.Emit("aggr", "max", mal.V(vals)), Merge: mal.MergeMax},
		{Var: cand, Merge: mal.MergeConcat},
		{Var: vals, Merge: mal.MergeConcat},
	}
	if tails {
		exits = append(exits, mal.Exit{Var: cand, Merge: mal.MergeTail}, mal.Exit{Var: vals, Merge: mal.MergeTail})
	}
	region := mal.NewRegion(sub.MustBuild(), exits, nil)

	b := mal.NewBuilder("q")
	hk := b.Emit("datacyclotron", "request", mal.L("sys"), mal.L("t"), mal.L("k"))
	hv := b.Emit("datacyclotron", "request", mal.L("sys"), mal.L("t"), mal.L("v"))
	p := b.MustBuild()
	rets := make([]mal.VarID, len(exits))
	for i := range rets {
		rets[i] = mal.VarID(p.NVars)
		p.NVars++
	}
	p.Instrs = append(p.Instrs, mal.Instr{Module: "datacyclotron", Op: "aligned", Ret: rets,
		Args: []mal.Arg{mal.L(region), mal.V(hk), mal.V(hv)}})
	return p
}

func regionTable(rows int, seed int64) map[string]*bat.BAT {
	rng := rand.New(rand.NewSource(seed))
	k, v := make([]int64, rows), make([]float64, rows)
	for i := range k {
		k[i] = int64(rng.Intn(8))
		v[i] = float64(rng.Intn(1000000)) / 100
	}
	return map[string]*bat.BAT{"t.k": bat.MakeInts("t.k", k), "t.v": bat.MakeFloats("t.v", v)}
}

// exitRows renders the six exits of q6Region(false) comparably: the scalars
// as one row, each concatenated BAT as its (head, tail) rows.
func exitRows(t *testing.T, vals []mal.Value, p *mal.Plan) [][]any {
	t.Helper()
	rets := p.Instrs[len(p.Instrs)-1].Ret
	rows := [][]any{{vals[rets[0]], vals[rets[1]], vals[rets[2]], vals[rets[3]]}}
	for _, r := range rets[4:] {
		b := vals[r].(*bat.BAT)
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, []any{b.Head().Value(i), b.Tail().Value(i)})
		}
	}
	return rows
}

// TestAlignedRegionMatchesWholeColumns: the same instruction answers
// alike on a plain runtime (one whole-column run) and on a fragmented
// one, whatever the cuts and the arrival order — including fragments
// with no rows and parts with no qualifying row, whose min and max
// partials are nil.
func TestAlignedRegionMatchesWholeColumns(t *testing.T) {
	p := q6Region(false)
	cols := regionTable(1000, 1)
	whole := &maltest.FragDC{Cols: cols} // used as a plain DCRuntime below
	want, err := mal.RunAll(&mal.Context{Registry: mal.Standard(), DC: plainDC{whole}, Workers: 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	if whole.PinMaps != 0 || whole.Pins != 2 || whole.Unpins != 2 {
		t.Fatalf("plain runtime: %d PinMap calls, %d pins, %d unpins; want one inline run", whole.PinMaps, whole.Pins, whole.Unpins)
	}
	for _, cuts := range [][]int{
		{0, 1000},                         // one fragment
		{0, 64, 128, 999, 1000},           // a one-row tail
		{0, 0, 300, 300, 300, 1000, 1000}, // empty fragments at both ends and inside
		{0, 1, 2, 3, 1000},                // parts too small to qualify a row
	} {
		for _, order := range []func(int) []int{nil, func(n int) []int { return rand.New(rand.NewSource(9)).Perm(n) }} {
			rt := &maltest.FragDC{Cols: cols, Cuts: func(int) []int { return cuts }, Order: order, Narrow: true}
			got, err := mal.RunAll(&mal.Context{Registry: mal.Standard(), DC: rt, Workers: 4}, p)
			if err != nil {
				t.Fatalf("cuts %v: %v", cuts, err)
			}
			if w, g := exitRows(t, want, p), exitRows(t, got, p); !maltest.SameRows(w, g) {
				t.Fatalf("cuts %v: exits differ\nwant %v\ngot  %v", cuts, w[0], g[0])
			}
			if rt.Parts != len(cuts)-1 || rt.Pins != rt.Unpins {
				t.Fatalf("cuts %v: %d parts, %d pins, %d unpins", cuts, rt.Parts, rt.Pins, rt.Unpins)
			}
		}
	}
	// A PinMap error is the query's.
	_, err = mal.RunAll(&mal.Context{Registry: mal.Standard(), DC: &maltest.FragDC{Cols: map[string]*bat.BAT{}}}, p)
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("missing column: err = %v, want the runtime's own error", err)
	}
}

// plainDC hides a FragDC's PinMap, leaving a mal.DCRuntime.
type plainDC struct{ mal.DCRuntime }

// TestAlignedRegionSharesHeads: the fetch passes its candidates' head
// through, so the concatenated candidate list and fetched column come
// back over one head column, copied once.
func TestAlignedRegionSharesHeads(t *testing.T) {
	p := q6Region(false)
	rt := &maltest.FragDC{Cols: regionTable(1000, 2), Cuts: maltest.EveryRows(128), Narrow: true}
	vals, err := mal.RunAll(&mal.Context{Registry: mal.Standard(), DC: rt}, p)
	if err != nil {
		t.Fatal(err)
	}
	rets := p.Instrs[len(p.Instrs)-1].Ret
	cand, fetched := vals[rets[4]].(*bat.BAT), vals[rets[5]].(*bat.BAT)
	if cand.Len() == 0 || cand.Head() != cand.Tail() || cand.Head() != fetched.Head() {
		t.Fatalf("heads not shared: cand [%p|%p], fetched head %p (%d rows)", cand.Head(), cand.Tail(), fetched.Head(), cand.Len())
	}
}

// TestTailMerge: a tail exit is its concat twin re-headed dense [0, n),
// with the same tails, over cuts with empty parts anywhere and over no
// rows at all.
func TestTailMerge(t *testing.T) {
	p := q6Region(true)
	rets := p.Instrs[len(p.Instrs)-1].Ret
	for _, c := range []struct {
		rows int
		cuts []int
	}{
		{1000, []int{0, 1000}},
		{1000, []int{0, 0, 300, 300, 300, 1000, 1000}},
		{1000, []int{0, 1, 2, 3, 1000}},
		{0, []int{0, 0, 0}},
	} {
		rt := &maltest.FragDC{Cols: regionTable(c.rows, 3), Cuts: func(int) []int { return c.cuts }, Narrow: true}
		vals, err := mal.RunAll(&mal.Context{Registry: mal.Standard(), DC: rt}, p)
		if err != nil {
			t.Fatalf("cuts %v: %v", c.cuts, err)
		}
		for i, concat := range rets[4:6] {
			want, got := vals[concat].(*bat.BAT), vals[rets[6+i]].(*bat.BAT)
			if h := got.Head(); !h.Dense() || h.Base() != 0 || got.Len() != want.Len() {
				t.Fatalf("cuts %v, exit %d: head dense=%v base %d, %d rows; want dense [0, %d)",
					c.cuts, 6+i, h.Dense(), h.Base(), got.Len(), want.Len())
			}
			for r := 0; r < want.Len(); r++ {
				if w, g := want.Tail().Value(r), got.Tail().Value(r); w != g {
					t.Fatalf("cuts %v, exit %d, row %d: tail %v, want %v", c.cuts, 6+i, r, g, w)
				}
			}
		}
	}
}

// TestDeferredFetchExits: the wide projection's fetches, deferred to
// the merge at a bitmap or at a list, answer what they answer run in
// the sub-plan, over narrowed fragments cut anywhere, empty ones
// included; a deferred fetch from something other than a BAT is an
// error, not a panic.
func TestDeferredFetchExits(t *testing.T) {
	for _, cuts := range [][]int{{0, 1000}, {0, 0, 300, 300, 999, 1000}, {0, 64, 65, 1000}} {
		rt := func() *maltest.FragDC {
			return &maltest.FragDC{Cols: wideTable(1000, 6), Cuts: func(int) []int { return cuts }, Narrow: true}
		}
		want, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: rt()}, wideRegion("uselect", false))
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range []string{"uselectmask", "uselect"} {
			got, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: rt()}, wideRegion(sel, true))
			if err != nil {
				t.Fatalf("%s, cuts %v: %v", sel, cuts, err)
			}
			if w, g := want.(*mal.ResultSet).Rows(), got.(*mal.ResultSet).Rows(); !reflect.DeepEqual(w, g) || len(w) < 400 {
				t.Fatalf("%s, cuts %v: %d rows differ from the %d the sub-plan's fetches give", sel, cuts, len(g), len(w))
			}
		}
	}
	p := wideRegion("uselectmask", true)
	r := p.Instrs[len(p.Instrs)-2].Args[0].Lit.(*mal.Region)
	bad := mal.NewRegion(r.Plan(), append([]mal.Exit{{Var: 0, Merge: mal.MergeTail, Fetch: &mal.Fetch{Cand: r.Exits()[0].Fetch.Cand, Col: r.Exits()[0].Fetch.Cand}}}, r.Exits()[1:]...), nil)
	p.Instrs[len(p.Instrs)-2].Args[0] = mal.L(bad)
	rt := &maltest.FragDC{Cols: wideTable(1000, 6), Cuts: maltest.EveryRows(300), Narrow: true}
	if _, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: rt}, p); err == nil || !strings.Contains(err.Error(), "cannot fetch") {
		t.Fatalf("a fetch from a mask ran: %v", err)
	}
}

// TestEveryRowsZeroIsOneFragment: rows <= 0 cuts nothing, as a ring
// with FragmentRows 0 keeps each column in one fragment.
func TestEveryRowsZeroIsOneFragment(t *testing.T) {
	for _, rows := range []int{0, -1} {
		if got := maltest.EveryRows(rows)(1000); !reflect.DeepEqual(got, []int{0, 1000}) {
			t.Fatalf("EveryRows(%d) cuts 1000 rows at %v", rows, got)
		}
	}
}

// TestStandardRegistryIsShared: one registry for every query, so
// nobody may write to it.
func TestStandardRegistryIsShared(t *testing.T) {
	if mal.Standard() != mal.Standard() {
		t.Fatal("Standard builds a registry per call")
	}
	if _, ok := mal.Standard().Lookup("datacyclotron", "aligned"); !ok {
		t.Fatal("standard registry lacks datacyclotron.aligned")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Register on the shared registry did not panic")
		}
	}()
	mal.Standard().Register("x", "y", nil)
}

// BenchmarkAlignedRegion is the per-part path over 1M rows in 64K-row
// fragments narrowed as the ring stores them, the sub-plan run once per
// fragment and the exits merged: q6, the Q6ish plan hot_repeat serves —
// compiled by minisql and rewritten by the DcOptimizer, one
// aggr.selectsum per part — and wide, wide_result's projection of three
// columns at a ~48 % selection, each a fetch deferred to the merge and
// leaving by its tail. CI runs it once so the path cannot panic
// unnoticed.
func BenchmarkAlignedRegion(b *testing.B) {
	b.Run("q6", func(b *testing.B) {
		db := tpch.GenDB(tpch.SFForLineitemRows(1<<20), 7)
		plain, err := minisql.Compile(tpch.Q6ishSQL, db.Schema(), "sys")
		if err != nil {
			b.Fatal(err)
		}
		plan, _, err := dcopt.Rewrite(plain)
		if err != nil {
			b.Fatal(err)
		}
		rt := &maltest.FragDC{Cols: db.ColumnMap(), Cuts: maltest.EveryRows(1 << 16), Narrow: true}
		benchRegion(b, rt, plan)
	})
	b.Run("wide", func(b *testing.B) {
		rt := &maltest.FragDC{Cols: wideTable(1<<20, 5), Cuts: maltest.EveryRows(1 << 16), Narrow: true}
		benchRegion(b, rt, wideRegion("uselectmask", true))
	})
}

func benchRegion(b *testing.B, rt *maltest.FragDC, p *mal.Plan) {
	ctx := &mal.Context{Registry: mal.Standard(), DC: rt}
	if _, err := mal.RunAll(ctx, p); err != nil { // narrows each fragment once
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mal.RunAll(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// wideTable is w(q, a, c, p) in lineitem's value ranges: a quantity of
// 1..50, an order key, a supplier key and a two-decimal price.
func wideTable(rows int, seed int64) map[string]*bat.BAT {
	rng := rand.New(rand.NewSource(seed))
	q, a, c := make([]int64, rows), make([]int64, rows), make([]int64, rows)
	p := make([]float64, rows)
	for i := range q {
		q[i] = 1 + int64(rng.Intn(50))
		a[i] = int64(i/4 + 1)
		c[i] = 1 + int64(rng.Intn(10000))
		p[i] = float64(90000+rng.Intn(10000000)) / 100
	}
	return map[string]*bat.BAT{"w.q": bat.MakeInts("w.q", q), "w.a": bat.MakeInts("w.a", a),
		"w.c": bat.MakeInts("w.c", c), "w.p": bat.MakeFloats("w.p", p)}
}

// wideRegion is "select a, c, p from w where q < 25" outlined: one
// selection, then three fetches at its candidates, each leaving by its
// tail into sql.resultSet. With deferred, the fetches leave the
// sub-plan for the merge (Exit.Fetch), as dcopt emits them, and the
// selection is the op given — algebra.uselectmask, as dcopt emits it, or
// algebra.uselect, a list each part fetches at; without, they run in
// the sub-plan.
func wideRegion(sel string, deferred bool) *mal.Plan {
	sub := mal.NewBuilder("sys.w")
	q := sub.Emit("datacyclotron", "pin", mal.L(mal.Slot(0)))
	cand := sub.Emit("algebra", sel, mal.V(q), mal.L(nil), mal.L(int64(25)), mal.L(false), mal.L(false))
	sub.Emit0("datacyclotron", "unpin", mal.V(q))
	var exits []mal.Exit
	for slot := 1; slot <= 3; slot++ {
		col := sub.Emit("datacyclotron", "pin", mal.L(mal.Slot(slot)))
		if deferred {
			exits = append(exits, mal.Exit{Var: sub.NewVar(), Merge: mal.MergeTail, Fetch: &mal.Fetch{Cand: cand, Col: col}})
		} else {
			exits = append(exits, mal.Exit{Var: sub.Emit("algebra", "join", mal.V(cand), mal.V(col)), Merge: mal.MergeTail})
		}
		sub.Emit0("datacyclotron", "unpin", mal.V(col))
	}
	region := mal.NewRegion(sub.MustBuild(), exits, nil)

	b := mal.NewBuilder("wide")
	args := []mal.Arg{mal.L(region)}
	for _, c := range []string{"q", "a", "c", "p"} {
		args = append(args, mal.V(b.Emit("datacyclotron", "request", mal.L("sys"), mal.L("w"), mal.L(c))))
	}
	p := b.MustBuild()
	rets := make([]mal.VarID, len(exits)+1)
	for i := range rets {
		rets[i] = mal.VarID(p.NVars)
		p.NVars++
	}
	p.Instrs = append(p.Instrs,
		mal.Instr{Module: "datacyclotron", Op: "aligned", Ret: rets[:3], Args: args},
		mal.Instr{Module: "sql", Op: "resultSet", Ret: rets[3:],
			Args: []mal.Arg{mal.L("a"), mal.V(rets[0]), mal.L("c"), mal.V(rets[1]), mal.L("p"), mal.V(rets[2])}})
	p.Result = rets[3]
	return p
}
