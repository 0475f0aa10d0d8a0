package dcopt

import (
	"reflect"
	"testing"

	"repro/internal/mal"
	"repro/internal/tpch"
)

// regionOps rewrites p and returns its one region's sub-plan and the
// sub-plan's operator names.
func regionOps(t *testing.T, p *mal.Plan) (*mal.Plan, []string) {
	t.Helper()
	dc, _, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	rs := regions(dc)
	if len(rs) != 1 {
		t.Fatalf("%d regions, want 1:\n%s", len(rs), dc)
	}
	return rs[0].Plan(), opNames(rs[0].Plan())
}

// TestQ6SumFoldsIntoMask: Q6ish's sum over the fetch at its conjunction
// folds into the conjunction, which only that sum and the count read:
// the fetch, the sum and the count go, and one
// aggr.selectsum(col, terms…) assigns the sum and the count where the
// conjunction stood. The column it sums and the terms' columns are
// pinned right before it and unpinned right after it.
func TestQ6SumFoldsIntoMask(t *testing.T) {
	db := tpch.GenDB(0.0002, 1)
	plan := compileWith(t, tpch.Q6ishSQL, db.Schema())
	sub, ops := regionOps(t, plan)
	if want := []string{
		"datacyclotron.pin", "datacyclotron.pin", "datacyclotron.pin", "datacyclotron.pin", "aggr.selectsum",
		"datacyclotron.unpin", "datacyclotron.unpin", "datacyclotron.unpin", "datacyclotron.unpin",
	}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("sub-plan = %v, want %v:\n%s", ops, want, sub)
	}
	checkSelectSum(t, plan, sub, 4)
}

// checkSelectSum holds sub's one aggr.selectsum to plan's conjunction
// and its fetch, sum and count: it sums the fetched column, pinned
// first, over the conjunction's arguments, and assigns the sum's and the
// count's variables; its columns are the sub-plan's pins, in argument
// order, and its unpins follow it in the same order.
func checkSelectSum(t *testing.T, plan, sub *mal.Plan, pins int) {
	t.Helper()
	var conj, fetch, sum, count mal.Instr
	for _, in := range plan.Instrs {
		switch in.Name() {
		case "algebra.uselectall":
			conj = in
		case "algebra.join":
			fetch = in
		case "aggr.sum":
			sum = in
		case "aggr.count":
			count = in
		}
	}
	fused := sub.Instrs[pins]
	if want := append([]mal.Arg{fetch.Args[1]}, conj.Args...); !reflect.DeepEqual(fused.Args, want) {
		t.Fatalf("aggr.selectsum reads %v, want the fetched column and the conjunction's %v:\n%s", fused.Args, want, sub)
	}
	if want := []mal.VarID{sum.Ret[0], count.Ret[0]}; !reflect.DeepEqual(fused.Ret, want) {
		t.Fatalf("aggr.selectsum assigns %v, want the sum's and the count's %v:\n%s", fused.Ret, want, sub)
	}
	var cols []mal.VarID
	for _, a := range fused.Args {
		if !a.IsLit() {
			cols = append(cols, a.Var)
		}
	}
	for k, v := range cols {
		pin, unpin := sub.Instrs[k], sub.Instrs[pins+1+k]
		if pin.Ret[0] != v || unpin.Args[0].Var != v {
			t.Fatalf("pin %d assigns X%d and unpin %d releases X%d, want the fused columns %v in order:\n%s", k, pin.Ret[0], k, unpin.Args[0].Var, cols, sub)
		}
	}
}

// conjSum emits a conjunction over f.a and f.d, the fetch of f.b at it
// and the fetch's sum; a region's worth of instructions.
func conjSum(b *mal.Builder) (cand, fetched, sum mal.VarID) {
	a := b.Emit("sql", "bind", mal.L("sys"), mal.L("f"), mal.L("a"))
	d := b.Emit("sql", "bind", mal.L("sys"), mal.L("f"), mal.L("d"))
	v := b.Emit("sql", "bind", mal.L("sys"), mal.L("f"), mal.L("b"))
	cand = b.Emit("algebra", "uselectall",
		mal.V(a), mal.L(int64(1)), mal.L(nil), mal.L(true), mal.L(false),
		mal.V(d), mal.L(nil), mal.L(int64(500)), mal.L(false), mal.L(false))
	fetched = b.Emit("algebra", "join", mal.V(cand), mal.V(v))
	return cand, fetched, b.Emit("aggr", "sum", mal.V(fetched))
}

// TestSumFoldNeedsMask: a fetch something besides its sum reads, or
// candidates something besides fetches, sums and counts read, keep
// their list and their fetch, and nothing fuses: the fetch also leaving the region by
// its head, the candidates read by the outer plan, and the min and max
// of sum(a), min(b), max(c), count(*), whose fetches read the same
// candidates.
func TestSumFoldNeedsMask(t *testing.T) {
	concatExit := func() *mal.Plan {
		b := mal.NewBuilder("q")
		_, fetched, sum := conjSum(b)
		rev := b.Emit("bat", "reverse", mal.V(fetched))
		b.SetResult(b.Emit("sql", "resultSet", mal.L("rev"), mal.V(rev), mal.L("sum"), mal.V(sum)))
		return b.MustBuild()
	}
	outerCand := func() *mal.Plan {
		b := mal.NewBuilder("q")
		cand, _, sum := conjSum(b)
		rev := b.Emit("bat", "reverse", mal.V(cand))
		b.SetResult(b.Emit("sql", "resultSet", mal.L("rev"), mal.V(rev), mal.L("sum"), mal.V(sum)))
		return b.MustBuild()
	}
	for _, c := range []struct {
		name string
		plan *mal.Plan
	}{
		{"concat exit", concatExit()},
		{"outer plan", outerCand()},
		{"min and max", compileWith(t, "select sum(a), min(b), max(c), count(*) from f where a >= 1 and d < 500", alignedSchema)},
	} {
		t.Run(c.name, func(t *testing.T) {
			sub, ops := regionOps(t, c.plan)
			n := map[string]int{}
			for _, op := range ops {
				n[op]++
			}
			if n["algebra.uselectall"] != 1 || n["algebra.uselectmask"] != 0 || n["aggr.selectsum"] != 0 || n["algebra.join"] == 0 {
				t.Fatalf("sub-plan = %v, want the uselectall and its fetches kept:\n%s", ops, sub)
			}
			for _, in := range sub.Instrs {
				if in.Name() == "aggr.sum" && len(in.Args) != 1 {
					t.Fatalf("a sum folded although its candidates stay a list:\n%s", sub)
				}
			}
		})
	}
}

// TestSumAndCountFold: sum(b), count(*) over a conjunction fuses as
// Q6ish does, whatever column the sum reads.
func TestSumAndCountFold(t *testing.T) {
	plan := compileWith(t, "select sum(b), count(*) from f where a >= 1 and d < 500", alignedSchema)
	sub, ops := regionOps(t, plan)
	if want := []string{
		"datacyclotron.pin", "datacyclotron.pin", "datacyclotron.pin", "aggr.selectsum",
		"datacyclotron.unpin", "datacyclotron.unpin", "datacyclotron.unpin",
	}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("sub-plan = %v, want %v:\n%s", ops, want, sub)
	}
	checkSelectSum(t, plan, sub, 3)
}

// TestSumAloneFuses: a sum at a conjunction nothing counts fuses too;
// the count aggr.selectsum also assigns goes to a variable of the
// sub-plan's own, which nothing reads (TestAlignedRegionProperty runs
// such plans).
func TestSumAloneFuses(t *testing.T) {
	plan := compileWith(t, "select sum(b) from f where a >= 1 and d < 500", alignedSchema)
	sub, ops := regionOps(t, plan)
	if want := []string{
		"datacyclotron.pin", "datacyclotron.pin", "datacyclotron.pin", "aggr.selectsum",
		"datacyclotron.unpin", "datacyclotron.unpin", "datacyclotron.unpin",
	}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("sub-plan = %v, want %v:\n%s", ops, want, sub)
	}
	fused := sub.Instrs[3]
	if len(fused.Ret) != 2 || int(fused.Ret[1]) != plan.NVars || sub.NVars != plan.NVars+1 {
		t.Fatalf("aggr.selectsum assigns %v in a sub-plan of %d variables, want its count at X%d of %d:\n%s",
			fused.Ret, sub.NVars, plan.NVars, plan.NVars+1, sub)
	}
}

// TestSelectSumNeedsOneSum: a mask something besides one folded sum and
// at most one count reads keeps its bitmap, and its sums stay folded
// aggr.sum(col, cand): a fetch also leaving the region at it, a second
// sum at it. (A list the outer plan reads is no mask at all:
// TestSumFoldNeedsMask.)
func TestSelectSumNeedsOneSum(t *testing.T) {
	fetchToo := func() *mal.Plan {
		b := mal.NewBuilder("q")
		cand, _, sum := conjSum(b)
		c := b.Emit("sql", "bind", mal.L("sys"), mal.L("f"), mal.L("c"))
		fetched := b.Emit("algebra", "join", mal.V(cand), mal.V(c))
		b.SetResult(b.Emit("sql", "resultSet", mal.L("c"), mal.V(fetched), mal.L("sum"), mal.V(sum)))
		return b.MustBuild()
	}
	for _, c := range []struct {
		name  string
		plan  *mal.Plan
		folds int
	}{
		{"fetch too", fetchToo(), 1},
		{"two sums", compileWith(t, "select sum(b), sum(c), count(*) from f where a >= 1 and d < 500", alignedSchema), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			sub, ops := regionOps(t, c.plan)
			n := map[string]int{}
			for _, op := range ops {
				n[op]++
			}
			folds := 0
			for _, in := range sub.Instrs {
				if in.Name() == "aggr.sum" && len(in.Args) == 2 {
					folds++
				}
			}
			if n["aggr.selectsum"] != 0 || n["algebra.uselectmask"] != 1 || folds != c.folds {
				t.Fatalf("sub-plan = %v, want no aggr.selectsum, one uselectmask and %d folded sums:\n%s", ops, c.folds, sub)
			}
		})
	}
}
