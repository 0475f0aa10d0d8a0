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
// becomes aggr.sum(col, cand), the fetch goes, and the conjunction,
// which now only that sum and the count read, answers a bitmap. The
// column the sum reads is pinned right before it and unpinned right
// after it.
func TestQ6SumFoldsIntoMask(t *testing.T) {
	db := tpch.GenDB(0.0002, 1)
	sub, ops := regionOps(t, compileWith(t, tpch.Q6ishSQL, db.Schema()))
	if want := []string{
		"datacyclotron.pin", "datacyclotron.pin", "datacyclotron.pin", "algebra.uselectmask",
		"datacyclotron.unpin", "datacyclotron.unpin", "datacyclotron.unpin",
		"datacyclotron.pin", "aggr.sum", "datacyclotron.unpin", "aggr.count",
	}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("sub-plan = %v, want %v:\n%s", ops, want, sub)
	}
	mask, pin, sum, unpin, count := sub.Instrs[3], sub.Instrs[7], sub.Instrs[8], sub.Instrs[9], sub.Instrs[10]
	if len(sum.Args) != 2 || sum.Args[0].IsLit() || sum.Args[1].IsLit() ||
		sum.Args[0].Var != pin.Ret[0] || sum.Args[1].Var != mask.Ret[0] {
		t.Fatalf("the sum does not read the pinned column at the mask:\n%s", sub)
	}
	if unpin.Args[0].Var != pin.Ret[0] {
		t.Fatalf("the unpin after the sum releases X%d, want its column X%d:\n%s", unpin.Args[0].Var, pin.Ret[0], sub)
	}
	if count.Args[0].Var != mask.Ret[0] {
		t.Fatalf("the count does not read the mask:\n%s", sub)
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
// their list and their fetch: the fetch also leaving the region by
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
			if n["algebra.uselectall"] != 1 || n["algebra.uselectmask"] != 0 || n["algebra.join"] == 0 {
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

// TestSumAndCountFold: sum(b), count(*) over a conjunction folds as
// Q6ish does, whatever column the sum reads.
func TestSumAndCountFold(t *testing.T) {
	sub, ops := regionOps(t, compileWith(t, "select sum(b), count(*) from f where a >= 1 and d < 500", alignedSchema))
	if want := []string{
		"datacyclotron.pin", "datacyclotron.pin", "algebra.uselectmask",
		"datacyclotron.unpin", "datacyclotron.unpin",
		"datacyclotron.pin", "aggr.sum", "datacyclotron.unpin", "aggr.count",
	}; !reflect.DeepEqual(ops, want) {
		t.Fatalf("sub-plan = %v, want %v:\n%s", ops, want, sub)
	}
}
