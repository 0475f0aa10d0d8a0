package mal

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bat"
)

type memCatalog map[string]*bat.BAT

func (c memCatalog) Bind(schema, table, column string) (Value, error) {
	b, ok := c[schema+"."+table+"."+column]
	if !ok {
		return nil, fmt.Errorf("no such column %s.%s.%s", schema, table, column)
	}
	return b, nil
}

func paperCatalog() memCatalog {
	// Tables from the paper's running example (§3.2):
	// t(id), c(t_id); query: select c.t_id from t, c where c.t_id = t.id
	return memCatalog{
		"sys.t.id":   bat.MakeInts("t.id", []int64{1, 2, 3, 4}),
		"sys.c.t_id": bat.MakeInts("c.t_id", []int64{2, 2, 3, 9}),
	}
}

// buildPaperPlan reproduces Table 1's MAL plan.
func buildPaperPlan(t *testing.T) *Plan {
	b := NewBuilder("s1_2")
	x1 := b.Emit("sql", "bind", L("sys"), L("t"), L("id"))
	x6 := b.Emit("sql", "bind", L("sys"), L("c"), L("t_id"))
	x9 := b.Emit("bat", "reverse", V(x6))
	x10 := b.Emit("algebra", "join", V(x1), V(x9))
	x13 := b.Emit("algebra", "markT", V(x10), L(bat.Oid(0)))
	x14 := b.Emit("bat", "reverse", V(x13))
	x15 := b.Emit("algebra", "join", V(x14), V(x1))
	x16 := b.Emit("sql", "resultSet", L("sys.c.t_id"), V(x15))
	b.SetResult(x16)
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestPaperPlanSequential(t *testing.T) {
	ctx := &Context{Registry: NewRegistry(), Catalog: paperCatalog()}
	v, err := Run(ctx, buildPaperPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	rs := v.(*ResultSet)
	// matches: t.id=2 twice (c rows 0,1), t.id=3 once => values 2,2,3
	if rs.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3: %s", rs.NumRows(), rs)
	}
	counts := map[int64]int{}
	for _, row := range rs.Rows() {
		counts[row[0].(int64)]++
	}
	if counts[2] != 2 || counts[3] != 1 {
		t.Fatalf("result values wrong: %v", counts)
	}
}

func TestPaperPlanParallelMatchesSequential(t *testing.T) {
	seqCtx := &Context{Registry: NewRegistry(), Catalog: paperCatalog()}
	seq, err := Run(seqCtx, buildPaperPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	for workers := 2; workers <= 8; workers *= 2 {
		parCtx := &Context{Registry: NewRegistry(), Catalog: paperCatalog(), Workers: workers}
		par, err := Run(parCtx, buildPaperPlan(t))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		a, b := seq.(*ResultSet), par.(*ResultSet)
		if a.NumRows() != b.NumRows() {
			t.Fatalf("workers=%d: rows %d != %d", workers, b.NumRows(), a.NumRows())
		}
	}
}

func TestBuilderSSAViolations(t *testing.T) {
	b := NewBuilder("bad")
	v := b.NewVar()
	b.plan.Instrs = append(b.plan.Instrs, Instr{Module: "m", Op: "o", Ret: []VarID{v}})
	b.plan.Instrs = append(b.plan.Instrs, Instr{Module: "m", Op: "o", Ret: []VarID{v}})
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "reassigns") {
		t.Fatalf("want reassign error, got %v", err)
	}

	b2 := NewBuilder("bad2")
	v2 := b2.NewVar()
	b2.plan.Instrs = append(b2.plan.Instrs, Instr{Module: "m", Op: "o", Args: []Arg{V(v2)}})
	if _, err := b2.Build(); err == nil || !strings.Contains(err.Error(), "before assignment") {
		t.Fatalf("want use-before-assignment error, got %v", err)
	}
}

func TestUnknownOp(t *testing.T) {
	b := NewBuilder("p")
	b.Emit("nope", "nothing")
	ctx := &Context{Registry: NewRegistry()}
	if _, err := Run(ctx, b.MustBuild()); err == nil || !strings.Contains(err.Error(), "unknown operation") {
		t.Fatalf("want unknown-op error, got %v", err)
	}
}

func TestOpErrorPropagates(t *testing.T) {
	b := NewBuilder("p")
	x := b.Emit("sql", "bind", L("sys"), L("nope"), L("nope"))
	b.SetResult(x)
	ctx := &Context{Registry: NewRegistry(), Catalog: paperCatalog()}
	_, err := Run(ctx, b.MustBuild())
	if err == nil || !strings.Contains(err.Error(), "no such column") {
		t.Fatalf("want bind error, got %v", err)
	}
	// Parallel path must surface the same error.
	ctx.Workers = 4
	_, err = Run(ctx, b.MustBuild())
	if err == nil || !strings.Contains(err.Error(), "no such column") {
		t.Fatalf("parallel: want bind error, got %v", err)
	}
}

func TestSelectAndAggrOps(t *testing.T) {
	cat := memCatalog{"sys.l.qty": bat.MakeInts("qty", []int64{5, 10, 15, 20})}
	b := NewBuilder("agg")
	x := b.Emit("sql", "bind", L("sys"), L("l"), L("qty"))
	cand := b.Emit("algebra", "uselect", V(x), L(int64(10)), L(int64(20)), L(true), L(false))
	sum := b.Emit("aggr", "sum", V(b.Emit("algebra", "join", V(cand), V(x))))
	res := b.Emit("sql", "resultSet", L("sum_qty"), V(b.Emit("bat", "fromScalar", L("sum_qty"), V(sum))))
	b.SetResult(res)
	ctx := &Context{Registry: NewRegistry(), Catalog: cat}
	v, err := Run(ctx, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	rs := v.(*ResultSet)
	if got := rs.Row(0)[0].(int64); got != 25 {
		t.Fatalf("sum = %d, want 25 (10+15)", got)
	}
}

func TestGroupOps(t *testing.T) {
	cat := memCatalog{
		"sys.l.flag": bat.MakeStrs("flag", []string{"A", "B", "A"}),
		"sys.l.qty":  bat.MakeInts("qty", []int64{1, 2, 4}),
	}
	b := NewBuilder("grp")
	flag := b.Emit("sql", "bind", L("sys"), L("l"), L("flag"))
	qty := b.Emit("sql", "bind", L("sys"), L("l"), L("qty"))
	groups, reps := b.Emit2("group", "newpos", V(flag))
	keys := b.Emit("algebra", "join", V(reps), V(flag))
	sums := b.Emit("aggr", "groupedSum", V(groups), V(qty))
	res := b.Emit("sql", "resultSet", L("flag"), V(keys), L("sum"), V(sums))
	b.SetResult(res)
	ctx := &Context{Registry: NewRegistry(), Catalog: cat}
	v, err := Run(ctx, b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	rs := v.(*ResultSet)
	if rs.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", rs.NumRows())
	}
	if rs.Row(0)[0] != "A" || rs.Row(0)[1].(int64) != 5 {
		t.Fatalf("group A wrong: %v", rs.Row(0))
	}
}

type fakeDC struct {
	mu       sync.Mutex
	requests []string
	pins     int
	unpins   int
	cat      memCatalog
	blockers map[string]chan struct{}
}

func (d *fakeDC) Request(schema, table, column string) (Value, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := schema + "." + table + "." + column
	d.requests = append(d.requests, key)
	return key, nil
}

func (d *fakeDC) Pin(h Value) (Value, error) {
	key := h.(string)
	d.mu.Lock()
	blocker := d.blockers[key]
	d.mu.Unlock()
	if blocker != nil {
		<-blocker // simulate waiting for the BAT to flow past
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pins++
	b, ok := d.cat[key]
	if !ok {
		return nil, errors.New("BAT does not exist")
	}
	return b, nil
}

func (d *fakeDC) Unpin(h Value) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.unpins++
	return nil
}

// buildDCPlan reproduces Table 2: the plan after the DcOptimizer.
func buildDCPlan() *Plan {
	b := NewBuilder("s1_2_dc")
	x2 := b.Emit("datacyclotron", "request", L("sys"), L("t"), L("id"))
	x3 := b.Emit("datacyclotron", "request", L("sys"), L("c"), L("t_id"))
	x6 := b.Emit("datacyclotron", "pin", V(x3))
	x9 := b.Emit("bat", "reverse", V(x6))
	x1 := b.Emit("datacyclotron", "pin", V(x2))
	x10 := b.Emit("algebra", "join", V(x1), V(x9))
	x13 := b.Emit("algebra", "markT", V(x10), L(bat.Oid(0)))
	x14 := b.Emit("bat", "reverse", V(x13))
	x15 := b.Emit("algebra", "join", V(x14), V(x1))
	x16 := b.Emit("sql", "resultSet", L("sys.c.t_id"), V(x15))
	b.Emit0("datacyclotron", "unpin", V(x6))
	b.Emit0("datacyclotron", "unpin", V(x1))
	b.SetResult(x16)
	return b.MustBuild()
}

func TestDCPlanWithFakeRuntime(t *testing.T) {
	dc := &fakeDC{cat: paperCatalog()}
	ctx := &Context{Registry: NewRegistry(), DC: dc, Workers: 4}
	v, err := Run(ctx, buildDCPlan())
	if err != nil {
		t.Fatal(err)
	}
	rs := v.(*ResultSet)
	if rs.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", rs.NumRows())
	}
	if len(dc.requests) != 2 || dc.pins != 2 || dc.unpins != 2 {
		t.Fatalf("DC interaction: req=%d pin=%d unpin=%d, want 2/2/2",
			len(dc.requests), dc.pins, dc.unpins)
	}
}

func TestDataflowOverlapsBlockedPin(t *testing.T) {
	// pin(t.id) blocks; the reverse of c.t_id must still proceed, proving
	// the dataflow interpreter overlaps communication and computation
	// (the asynchronous execution RDMA enables, §2.3).
	dc := &fakeDC{cat: paperCatalog(), blockers: map[string]chan struct{}{}}
	release := make(chan struct{})
	dc.blockers["sys.t.id"] = release

	reg := NewRegistry()
	reverseStarted := make(chan struct{}, 1)
	orig, _ := reg.Lookup("bat", "reverse")
	reg.Register("bat", "reverse", func(ctx *Context, c *Call) error {
		select {
		case reverseStarted <- struct{}{}:
		default:
		}
		return orig(ctx, c)
	})

	ctx := &Context{Registry: reg, DC: dc, Workers: 4}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, buildDCPlan())
		done <- err
	}()
	<-reverseStarted // reverse ran while pin(t.id) is still blocked
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestPlanString(t *testing.T) {
	p := buildDCPlan()
	s := p.String()
	for _, want := range []string{"datacyclotron.request", "datacyclotron.pin", "datacyclotron.unpin", "algebra.join"} {
		if !strings.Contains(s, want) {
			t.Fatalf("plan text missing %q:\n%s", want, s)
		}
	}
}

func TestInstrString(t *testing.T) {
	in := Instr{Module: "algebra", Op: "join", Ret: []VarID{3}, Args: []Arg{V(1), V(2)}}
	if got := in.String(); got != "X3 := algebra.join(X1, X2)" {
		t.Fatalf("Instr.String = %q", got)
	}
}

func TestResultSetHelpers(t *testing.T) {
	rs := &ResultSet{
		Names: []string{"a", "b"},
		Cols: []*bat.BAT{
			bat.MakeInts("a", []int64{1, 2}),
			bat.MakeStrs("b", []string{"x", "y"}),
		},
	}
	if rs.NumRows() != 2 {
		t.Fatalf("NumRows = %d", rs.NumRows())
	}
	if row := rs.Row(1); row[0].(int64) != 2 || row[1].(string) != "y" {
		t.Fatalf("Row(1) = %v", row)
	}
	if !strings.Contains(rs.String(), "a | b") {
		t.Fatalf("String = %q", rs.String())
	}
	empty := &ResultSet{}
	if empty.NumRows() != 0 {
		t.Fatal("empty NumRows != 0")
	}
}

func TestScalarResultKinds(t *testing.T) {
	reg := NewRegistry()
	for _, v := range []Value{int64(7), 3.14, "hi", nil} {
		b := NewBuilder("s")
		x := b.Emit("bat", "fromScalar", L("v"), L(v))
		b.SetResult(b.Emit("sql", "resultSet", L("v"), V(x)))
		ctx := &Context{Registry: reg}
		out, err := Run(ctx, b.MustBuild())
		if err != nil {
			t.Fatalf("%T: %v", v, err)
		}
		rs := out.(*ResultSet)
		if v == nil {
			if rs.NumRows() != 0 {
				t.Fatalf("nil scalar should give 0 rows")
			}
		} else if rs.NumRows() != 1 {
			t.Fatalf("%T: rows = %d", v, rs.NumRows())
		}
	}
}

// TestRangeLimitsMustBeLiterals: a range select whose limit or flag is
// a variable fails its plan's bind, naming the instruction, before any
// instruction runs.
func TestRangeLimitsMustBeLiterals(t *testing.T) {
	reg := NewRegistry()
	var calls atomic.Int64
	reg.Register("test", "tick", func(_ *Context, c *Call) error {
		calls.Add(1)
		return c.Return(bat.MakeInts("x", []int64{1, 2, 3}))
	})
	for _, c := range []struct {
		op   string
		emit func(b *Builder, col, v VarID)
	}{
		{"algebra.uselect", func(b *Builder, col, v VarID) {
			b.Emit("algebra", "uselect", V(col), V(v), L(nil), L(true), L(false))
		}},
		{"algebra.uselect", func(b *Builder, col, v VarID) {
			b.Emit("algebra", "uselect", V(col), V(col), L(int64(1)), L(nil), V(v), L(false))
		}},
		{"algebra.uselectall", func(b *Builder, col, v VarID) {
			b.Emit("algebra", "uselectall", V(col), L(int64(1)), L(nil), L(true), L(false), V(col), L(nil), V(v), L(true), L(false))
		}},
		{"algebra.uselectmask", func(b *Builder, col, v VarID) {
			b.Emit("algebra", "uselectmask", V(col), V(v), L(int64(3)), L(true), L(false))
		}},
		{"aggr.selectsum", func(b *Builder, col, v VarID) {
			b.Emit2("aggr", "selectsum", V(col), V(col), L(int64(1)), V(v), L(true), L(false))
		}},
	} {
		b := NewBuilder("vars")
		col, v := b.Emit("test", "tick"), b.Emit("test", "tick")
		c.emit(b, col, v)
		for _, workers := range []int{1, 4} {
			_, err := Run(&Context{Registry: reg, Workers: workers}, b.MustBuild())
			if err == nil || !strings.Contains(err.Error(), "("+c.op+"): range") {
				t.Errorf("%s with a variable limit, %d workers: err = %v, want the bind error", c.op, workers, err)
			}
		}
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("%d instructions ran before the bind failed, want 0", n)
	}
}

// TestExecBuildsNoName: an instruction's operation is resolved from its
// module and op as they stand, once, when its plan is bound, so running
// a built plan allocates no "module.op" name, not even for names too
// long for the stack buffer a short concatenation gets. A run's operands
// and results pass through its frame, which the plan's binding reuses,
// so instructions with literal and variable arguments allocate nothing
// beyond what their ops make.
func TestExecBuildsNoName(t *testing.T) {
	module, op := strings.Repeat("m", 24), strings.Repeat("o", 24)
	reg := &Registry{}
	reg.Register(module, op, func(*Context, *Call) error { return nil })
	pb := NewBuilder("names")
	for i := 0; i < 16; i++ {
		pb.Emit0(module, op)
	}
	plan := pb.MustBuild()
	ctx := &Context{Registry: reg}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := RunAll(ctx, plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("running 16 instructions allocates %v times, want 0", allocs)
	}

	// first returns its first argument, boxed already: the op allocates
	// nothing of its own.
	reg.Register(module, "first", func(_ *Context, c *Call) error { return c.Return(c.Args[0]) })
	pb = NewBuilder("args")
	x := pb.Emit(module, "first", L(int64(1<<40)), L("literal"))
	for i := 0; i < 16; i++ {
		x = pb.Emit(module, "first", V(x), L(2.5), V(x), L(nil))
	}
	pb.SetResult(x)
	plan = pb.MustBuild()
	for _, workers := range []int{1, 4} {
		ctx.Workers = workers
		if _, err := Run(ctx, plan); err != nil { // binds, and makes the frames
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if v, err := Run(ctx, plan); err != nil || v != int64(1<<40) {
				t.Fatalf("Run = %v, %v", v, err)
			}
		})
		if workers == 1 && allocs != 0 {
			t.Fatalf("17 instructions with literal and variable arguments allocate %v times, want 0", allocs)
		}
	}
}

// TestScalarResultsAllocateLittle: bat.fromScalar lifts a scalar into
// its one-row column in at most two allocations, and sql.resultSet
// keeps a column whose head is dense from 0 as it is.
func TestScalarResultsAllocateLittle(t *testing.T) {
	pb := NewBuilder("scalars")
	sum := pb.Emit("bat", "fromScalar", L("sum"), L(94.5))
	count := pb.Emit("bat", "fromScalar", L("count"), L(int64(1<<40)))
	pb.SetResult(pb.Emit("sql", "resultSet", L("sum"), V(sum), L("count"), V(count)))
	plan := pb.MustBuild()
	ctx := &Context{Registry: Standard()}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Run(ctx, plan); err != nil {
			t.Fatal(err)
		}
	})
	// Two scalars at two each, and the result set's struct, names and
	// columns.
	if allocs > 2*2+3 {
		t.Fatalf("two scalars into a result set allocate %v times, want at most 7", allocs)
	}
	v, err := Run(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.(*ResultSet).Rows(); !reflect.DeepEqual(got, [][]any{{94.5, int64(1 << 40)}}) {
		t.Fatalf("rows %v", got)
	}
}

// BenchmarkInterpreterOverhead runs a chain of 100 bat.reverse
// instructions. The paper keeps interpreter overhead "well below one
// microsecond per instruction"; the plan is bound once and each run
// reuses its frame, so what is left per instruction is the dispatch
// and the op's own BAT.
func BenchmarkInterpreterOverhead(b *testing.B) {
	cat := memCatalog{"sys.t.x": bat.MakeInts("x", []int64{1})}
	pb := NewBuilder("p")
	x := pb.Emit("sql", "bind", L("sys"), L("t"), L("x"))
	last := x
	for i := 0; i < 50; i++ {
		last = pb.Emit("bat", "reverse", V(last))
		last = pb.Emit("bat", "reverse", V(last))
	}
	pb.SetResult(last)
	plan := pb.MustBuild()
	ctx := &Context{Registry: NewRegistry(), Catalog: cat}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, plan); err != nil {
			b.Fatal(err)
		}
	}
}
