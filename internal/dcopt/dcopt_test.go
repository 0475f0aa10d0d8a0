package dcopt

import (
	"errors"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
	"repro/internal/tpch"
)

func compile(t *testing.T, src string) *mal.Plan {
	t.Helper()
	schema := minisql.MapSchema{
		"t": {"id", "name"},
		"c": {"t_id", "val"},
	}
	p, err := minisql.Compile(src, schema, "sys")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRewriteShape(t *testing.T) {
	p := compile(t, "select c.t_id from t, c where c.t_id = t.id")
	dc, st, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	// t.id is read only by fragment-local instructions (its region pins
	// it per fragment); c.t_id also feeds the final projection whole.
	if want := (Stats{Requests: 2, Pins: 1, Unpins: 1, Regions: 1, Local: 2}); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	text := dc.String()
	if strings.Contains(text, "sql.bind") {
		t.Fatal("rewritten plan still contains sql.bind")
	}
	for _, want := range []string{"datacyclotron.request", "datacyclotron.pin", "datacyclotron.unpin"} {
		if !strings.Contains(text, want) {
			t.Fatalf("plan missing %s:\n%s", want, text)
		}
	}
	// request must precede pin, pin must precede unpin for each column.
	reqIdx, pinIdx, unpinIdx := -1, -1, -1
	for i, in := range dc.Instrs {
		switch in.Name() {
		case "datacyclotron.request":
			if reqIdx == -1 {
				reqIdx = i
			}
		case "datacyclotron.pin":
			if pinIdx == -1 {
				pinIdx = i
			}
		case "datacyclotron.unpin":
			unpinIdx = i
		}
	}
	if !(reqIdx < pinIdx && pinIdx < unpinIdx) {
		t.Fatalf("ordering wrong: req=%d pin=%d unpin=%d", reqIdx, pinIdx, unpinIdx)
	}
}

func TestRewriteValidSSA(t *testing.T) {
	p := compile(t, "select name from t where id >= 2")
	dc, _, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild through a builder-less validation: run it; SSA violations
	// would have been caught by plan validation in minisql, here we just
	// ensure every pin assigns a variable exactly once by re-validating
	// manually.
	assigned := map[mal.VarID]int{}
	for _, in := range dc.Instrs {
		for _, r := range in.Ret {
			assigned[r]++
		}
	}
	for v, n := range assigned {
		if n != 1 {
			t.Fatalf("X%d assigned %d times", v, n)
		}
	}
}

// memDC is an immediate-delivery DC runtime for plan-level testing.
type memDC struct {
	mu       sync.Mutex
	cat      map[string]*bat.BAT
	requests []string
	pins     []string
	unpins   int
}

func (d *memDC) Request(schema, table, column string) (mal.Value, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := table + "." + column
	d.requests = append(d.requests, key)
	return key, nil
}

func (d *memDC) Pin(h mal.Value) (mal.Value, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	key := h.(string)
	d.pins = append(d.pins, key)
	b, ok := d.cat[key]
	if !ok {
		return nil, errors.New("BAT does not exist")
	}
	return b, nil
}

func (d *memDC) Unpin(h mal.Value) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.unpins++
	return nil
}

func TestRewrittenPlanExecutes(t *testing.T) {
	p := compile(t, "select c.t_id from t, c where c.t_id = t.id")
	dc, _, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	rt := &memDC{cat: map[string]*bat.BAT{
		"t.id":   bat.MakeInts("t.id", []int64{1, 2, 3, 4}),
		"c.t_id": bat.MakeInts("c.t_id", []int64{2, 2, 3, 9}),
	}}
	ctx := &mal.Context{Registry: mal.NewRegistry(), DC: rt, Workers: 4}
	v, err := mal.Run(ctx, dc)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, dc)
	}
	rs := v.(*mal.ResultSet)
	if rs.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", rs.NumRows())
	}
	if len(rt.requests) != 2 || len(rt.pins) != 2 || rt.unpins != 2 {
		t.Fatalf("DC calls: %d req, %d pin, %d unpin", len(rt.requests), len(rt.pins), rt.unpins)
	}
}

func TestRewriteMatchesOriginalResult(t *testing.T) {
	catalog := map[string]*bat.BAT{
		"t.id":   bat.MakeInts("t.id", []int64{1, 2, 3, 4}),
		"t.name": bat.MakeStrs("t.name", []string{"a", "b", "c", "d"}),
		"c.t_id": bat.MakeInts("c.t_id", []int64{2, 2, 3, 9}),
		"c.val":  bat.MakeInts("c.val", []int64{10, 20, 30, 40}),
	}
	bindCat := bindCatalog(catalog)
	for _, src := range []string{
		"select c.t_id from t, c where c.t_id = t.id",
		"select name from t where id >= 2",
		"select t.name, c.val from t, c where c.t_id = t.id and c.val > 15",
	} {
		p := compile(t, src)
		want, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), Catalog: bindCat}, p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		dc, _, err := Rewrite(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), DC: &memDC{cat: catalog}}, dc)
		if err != nil {
			t.Fatalf("%s (dc): %v", src, err)
		}
		if !reflect.DeepEqual(want.(*mal.ResultSet).Rows(), got.(*mal.ResultSet).Rows()) {
			t.Fatalf("%s: DC plan result differs", src)
		}
	}
}

type bindCatalog map[string]*bat.BAT

func (c bindCatalog) Bind(schema, table, column string) (mal.Value, error) {
	b, ok := c[table+"."+column]
	if !ok {
		return nil, errors.New("no such column")
	}
	return b, nil
}

// TestRegionRewrite: a scan and the fetch it feeds collapse into one
// datacyclotron.aligned instruction whose sub-plan holds the pins; no
// whole-column pin is left in the outer plan.
func TestRegionRewrite(t *testing.T) {
	p := compile(t, "select name from t where id >= 2")
	dc, st, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Requests: 2, Regions: 1, Local: 2}); st != want {
		t.Fatalf("stats = %+v, want %+v:\n%s", st, want, dc)
	}
	// The fetch is the only exit and the select's only reader: it leaves
	// the sub-plan for the merge, and the select answers a bitmap.
	r := regions(dc)[0]
	sub := r.Plan()
	if got := opNames(sub); !reflect.DeepEqual(got, []string{
		"datacyclotron.pin", "algebra.uselectmask", "datacyclotron.unpin",
		"datacyclotron.pin", "datacyclotron.unpin",
	}) {
		t.Fatalf("sub-plan = %v:\n%s", got, dc)
	}
	want := mal.Fetch{Cand: sub.Instrs[1].Ret[0], Col: sub.Instrs[3].Ret[0]}
	if ex := r.Exits(); len(ex) != 1 || ex[0].Merge != mal.MergeTail || ex[0].Fetch == nil || *ex[0].Fetch != want {
		t.Fatalf("exits = %+v, want the fetch %+v deferred, by its tail", ex, want)
	}
	for _, in := range dc.Instrs {
		if in.Name() == "datacyclotron.pin" || in.Name() == "datacyclotron.unpin" {
			t.Fatalf("outer plan still pins a whole column:\n%s", dc)
		}
	}

	// A conjunction: both ranges are terms of one uselectall over the
	// two pinned columns, fragment-local like a lone uselect.
	p = compile(t, "select t_id from c where t_id >= 2 and val > 150")
	dc, st, err = Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Requests: 2, Regions: 1, Local: 2}); st != want {
		t.Fatalf("conjunction: stats = %+v, want %+v:\n%s", st, want, dc)
	}
	sub = regions(dc)[0].Plan()
	if got := opNames(sub); !reflect.DeepEqual(got, []string{
		"datacyclotron.pin", "datacyclotron.pin", "algebra.uselectmask", "datacyclotron.unpin",
		"datacyclotron.unpin",
	}) {
		t.Fatalf("conjunction sub-plan = %v:\n%s", got, dc)
	}
	all := sub.Instrs[2]
	if len(all.Args) != 10 || all.Args[0].IsLit() || all.Args[5].IsLit() ||
		all.Args[0].Var != sub.Instrs[0].Ret[0] || all.Args[5].Var != sub.Instrs[1].Ret[0] {
		t.Fatalf("the uselectall does not test both pinned columns:\n%s", dc)
	}
}

// exitMerges maps each exit of p's regions to its merge kind.
func exitMerges(p *mal.Plan) map[mal.VarID]mal.MergeKind {
	out := map[mal.VarID]mal.MergeKind{}
	for _, r := range regions(p) {
		for _, e := range r.Exits() {
			out[e.Var] = e.Merge
		}
	}
	return out
}

// TestTailExits: an exit only sql.resultSet reads leaves by its tail,
// since the result set re-heads it dense anyway; an exit any other
// outer instruction reads, or that is the plan's result, keeps its head
// and leaves by concat.
func TestTailExits(t *testing.T) {
	kinds := func(t *testing.T, p *mal.Plan) map[mal.MergeKind]int {
		t.Helper()
		dc, _, err := Rewrite(p)
		if err != nil {
			t.Fatal(err)
		}
		n := map[mal.MergeKind]int{}
		for _, k := range exitMerges(dc) {
			n[k]++
		}
		return n
	}
	db := tpch.GenDB(0.0002, 1)
	for _, c := range []struct {
		name string
		plan *mal.Plan
		want map[mal.MergeKind]int
	}{
		{"projection", compile(t, "select id, name from t where id >= 2"), map[mal.MergeKind]int{mal.MergeTail: 2}},
		{"sorted projection", compile(t, "select id, name from t where id >= 2 order by name"), map[mal.MergeKind]int{mal.MergeConcat: 2}},
		{"group-by inputs", compileWith(t, tpch.Q1SQL, db.Schema()), map[mal.MergeKind]int{mal.MergeGroups: 1}},
		{"join inputs", compileWith(t, tpch.Q3ishSQL, db.Schema()), map[mal.MergeKind]int{mal.MergeConcat: 2, mal.MergeGroups: 1}},
		{"also reversed", alsoReversed(), map[mal.MergeKind]int{mal.MergeTail: 1, mal.MergeConcat: 1}},
		{"plan result", fetchIsResult(), map[mal.MergeKind]int{mal.MergeConcat: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := kinds(t, c.plan); !reflect.DeepEqual(got, c.want) {
				t.Fatalf("exit merges %v, want %v:\n%s", got, c.want, c.plan)
			}
		})
	}
}

func compileWith(t *testing.T, src string, schema minisql.Schema) *mal.Plan {
	t.Helper()
	p, err := minisql.Compile(src, schema, "sys")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fetchRegion emits a selection on t.id and the fetch of t.name and
// t.id at it: two values a region exits.
func fetchRegion(b *mal.Builder) (name, id mal.VarID) {
	x := b.Emit("sql", "bind", mal.L("sys"), mal.L("t"), mal.L("id"))
	y := b.Emit("sql", "bind", mal.L("sys"), mal.L("t"), mal.L("name"))
	c := b.Emit("algebra", "uselect", mal.V(x), mal.L(int64(2)), mal.L(nil), mal.L(true), mal.L(false))
	return b.Emit("algebra", "join", mal.V(c), mal.V(y)), b.Emit("algebra", "join", mal.V(c), mal.V(x))
}

// alsoReversed: both fetched columns go to the result set, and one of
// them also feeds an outer bat.reverse, which reads its head.
func alsoReversed() *mal.Plan {
	b := mal.NewBuilder("q")
	name, id := fetchRegion(b)
	rev := b.Emit("bat", "reverse", mal.V(id))
	b.SetResult(b.Emit("sql", "resultSet", mal.L("name"), mal.V(name), mal.L("id"), mal.V(id), mal.L("rev"), mal.V(rev)))
	return b.MustBuild()
}

// fetchIsResult: the fetched column is the plan's result, head and all.
func fetchIsResult() *mal.Plan {
	b := mal.NewBuilder("q")
	name, _ := fetchRegion(b)
	b.SetResult(name)
	return b.MustBuild()
}

// TestCandidateArgumentMustBeLocal: a uselect whose candidate list is
// not a fragment-local value of the same table stays outside, and so
// does everything it feeds.
func TestCandidateArgumentMustBeLocal(t *testing.T) {
	b := mal.NewBuilder("q")
	x := b.Emit("sql", "bind", mal.L("sys"), mal.L("t"), mal.L("id"))
	y := b.Emit("sql", "bind", mal.L("sys"), mal.L("c"), mal.L("val"))
	other := b.Emit("algebra", "uselect", mal.V(y), mal.L(int64(1)), mal.L(nil), mal.L(true), mal.L(false))
	cross := b.Emit("algebra", "uselect", mal.V(x), mal.V(other), mal.L(int64(1)), mal.L(nil), mal.L(true), mal.L(false))
	b.SetResult(cross)
	dc, _, err := Rewrite(b.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions(dc) {
		for _, in := range r.Plan().Instrs {
			if in.Name() == "algebra.uselect" && len(in.Args) == 6 {
				t.Fatalf("a uselect over another table's candidates moved into a region:\n%s", dc)
			}
		}
	}
}

// regions lists the sub-plans of p's datacyclotron.aligned instructions.
func regions(p *mal.Plan) []*mal.Region {
	var out []*mal.Region
	for _, in := range p.Instrs {
		if in.Name() == "datacyclotron.aligned" {
			out = append(out, in.Args[0].Lit.(*mal.Region))
		}
	}
	return out
}

func opNames(p *mal.Plan) []string {
	var out []string
	for _, in := range p.Instrs {
		out = append(out, in.Name())
	}
	return out
}

// TestRegionPerFragment runs rewritten plans against a fragmented
// runtime (maltest.FragDC): results must equal the unfragmented bind-form execution even
// though the parts ran last-to-first.
func TestRegionPerFragment(t *testing.T) {
	catalog := map[string]*bat.BAT{
		"t.id":   bat.MakeInts("t.id", []int64{1, 2, 3, 4, 5, 6, 7}),
		"t.name": bat.MakeStrs("t.name", []string{"a", "b", "c", "d", "e", "f", "g"}),
		"c.t_id": bat.MakeInts("c.t_id", []int64{2, 2, 3, 9}),
		"c.val":  bat.MakeInts("c.val", []int64{10, 20, 30, 40}),
	}
	for _, src := range []string{
		"select name from t where id >= 3",
		"select val from c where t_id = 2",
		"select id from t where id >= 2",
		"select sum(val), count(*), min(val), max(val) from c where t_id <> 3 and val > 10",
		"select avg(val) from c where t_id = 2", // avg stays outside; its input exits by concat
		"select t.name from t, c where c.t_id = t.id and c.val > 15",
	} {
		p := compile(t, src)
		want, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), Catalog: bindCatalog(catalog)}, p)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		dc, st, err := Rewrite(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Regions == 0 {
			t.Fatalf("%s: nothing outlined:\n%s", src, dc)
		}
		rt := &maltest.FragDC{Cols: catalog, Cuts: maltest.EveryRows(3)} // parts run last to first
		got, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), DC: rt}, dc)
		if err != nil {
			t.Fatalf("%s (fragmented): %v\n%s", src, err, dc)
		}
		if !reflect.DeepEqual(want.(*mal.ResultSet).Rows(), got.(*mal.ResultSet).Rows()) {
			t.Fatalf("%s: per-fragment result differs:\nwant %v\ngot  %v",
				src, want.(*mal.ResultSet).Rows(), got.(*mal.ResultSet).Rows())
		}
		if rt.PinMaps != st.Regions || rt.Parts < 2*st.Regions {
			t.Fatalf("%s: %d PinMap calls, %d parts for %d regions", src, rt.PinMaps, rt.Parts, st.Regions)
		}
		if rt.Pins != rt.Unpins {
			t.Fatalf("%s: %d pins, %d unpins", src, rt.Pins, rt.Unpins)
		}
	}
}

// TestColumnReadWholeStaysOutside: a bound column is pinned in one place
// only. Here t.id feeds the equi-join whole, so the mirror that seeds
// t's candidates cannot run per fragment either; c's selection can.
func TestColumnReadWholeStaysOutside(t *testing.T) {
	p := compile(t, "select t.name from t, c where c.t_id = t.id and c.val > 15")
	dc, st, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions(dc) {
		for _, in := range r.Plan().Instrs {
			if in.Name() == "bat.mirror" {
				t.Fatalf("the mirror of a column pinned outside moved into a region:\n%s", dc)
			}
		}
	}
	byRegion := map[mal.VarID]bool{} // handles some region pins per fragment
	for _, in := range dc.Instrs {
		if in.Name() == "datacyclotron.aligned" {
			for _, a := range in.Args[1:] {
				byRegion[a.Var] = true
			}
		}
	}
	for _, in := range dc.Instrs {
		if in.Name() == "datacyclotron.pin" && byRegion[in.Args[0].Var] {
			t.Fatalf("handle X%d is pinned whole and by a region:\n%s", in.Args[0].Var, dc)
		}
	}
	if st.Pins == 0 || st.Regions == 0 {
		t.Fatalf("stats = %+v, want whole pins and a region side by side:\n%s", st, dc)
	}
}

func TestRewritePlanWithoutBinds(t *testing.T) {
	b := mal.NewBuilder("nobind")
	x := b.Emit("bat", "fromScalar", mal.L("v"), mal.L(int64(1)))
	b.SetResult(x)
	p := b.MustBuild()
	dc, st, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 0 || len(dc.Instrs) != len(p.Instrs) {
		t.Fatalf("no-op rewrite changed plan: %+v", st)
	}
}

// TestDeadInstructionsDropped: Q3's realignment of the customer binding
// after its join with lineitem, X25 := algebra.join(X24, X17), and the
// chain only it reads (X15 markT, X16 reverse, X17 the realignment after
// the first join), feed nothing, and Rewrite drops those four before
// outlining, nothing else. A plan without dead instructions comes back
// as it is, and a binding, a request or the plan's result is kept
// though nothing reads it.
func TestDeadInstructionsDropped(t *testing.T) {
	db := tpch.GenDB(0.0002, 1)
	p := compileWith(t, tpch.Q3ishSQL, db.Schema())
	live := withoutDead(p)
	var gone []string
	for _, in := range p.Instrs {
		if !slices.ContainsFunc(live.Instrs, func(j mal.Instr) bool { return j.String() == in.String() }) {
			gone = append(gone, in.String())
		}
	}
	want := []string{"X15 := algebra.markT(X14, 0x0)", "X16 := bat.reverse(X15)", "X17 := algebra.join(X16, X8)", "X25 := algebra.join(X24, X17)"}
	if !slices.Equal(gone, want) {
		t.Fatalf("dropped %q, want %q", gone, want)
	}
	dc, _, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range want {
		ret, _, _ := strings.Cut(in, " :=")
		if regexp.MustCompile(`\b` + ret + `\b`).MatchString(dc.String()) {
			t.Errorf("rewritten plan still assigns or reads %s:\n%s", ret, dc)
		}
	}
	for _, sql := range []string{tpch.Q1SQL, tpch.Q6ishSQL} {
		if p := compileWith(t, sql, db.Schema()); withoutDead(p) != p {
			t.Errorf("%s: a plan without dead instructions came back changed", sql)
		}
	}

	b := mal.NewBuilder("q")
	x := b.Emit("sql", "bind", mal.L("sys"), mal.L("t"), mal.L("id"))
	b.Emit("sql", "bind", mal.L("sys"), mal.L("t"), mal.L("name")) // read by nothing
	b.Emit("datacyclotron", "request", mal.L("sys"), mal.L("t"), mal.L("id"))
	b.Emit("bat", "reverse", mal.V(b.Emit("bat", "mirror", mal.V(x)))) // dead, and what only it reads
	b.SetResult(b.Emit("bat", "mirror", mal.V(x)))
	q := b.MustBuild()
	if got := opNames(withoutDead(q)); !slices.Equal(got, []string{"sql.bind", "sql.bind", "datacyclotron.request", "bat.mirror"}) {
		t.Errorf("kept %v, want both binds, the request and the result's mirror", got)
	}
}

// TestProbeOnlyCountsSumsAndAverages: a join grouped by its key probes
// a key index in the probe table's region when its aggregates are
// counts, sums and averages of that table's columns, and stays on whole
// columns when one is a minimum or maximum, or reads the build table;
// either way it answers what the plain plan answers.
func TestProbeOnlyCountsSumsAndAverages(t *testing.T) {
	x, y := []int64{3, 1, 3, 2}, []int64{0, 5, 1, 9}
	a, b := []int64{1, 3, 3, 2, 7, 1}, []float64{0.5, 1.25, 2, 4, 8, 16}
	cols := map[string]*bat.BAT{
		"k.x": bat.MakeInts("k.x", x), "k.y": bat.MakeInts("k.y", y),
		"f.a": bat.MakeInts("f.a", a), "f.b": bat.MakeFloats("f.b", b),
	}
	for _, c := range []struct {
		sql    string
		probes bool
	}{
		{"select x, sum(b), count(*), avg(a) from k, f where a = x group by x", true},
		{"select x, min(b) from k, f where a = x group by x", false},
		{"select x, max(a), sum(b) from k, f where a = x group by x", false},
		{"select x, sum(y) from k, f where a = x group by x", false},
	} {
		plan := compileWith(t, c.sql, alignedSchema)
		dc, _, err := Rewrite(plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(dc.String(), "group.probe("); got != c.probes {
			t.Errorf("%s: probes %v, want %v:\n%s", c.sql, got, c.probes, dc)
		}
		want, err := mal.Run(&mal.Context{Registry: mal.Standard(), Catalog: bindCatalog(cols)}, plan)
		if err != nil {
			t.Fatal(err)
		}
		rt := &maltest.FragDC{Cols: cols, Cuts: maltest.EveryRows(2), Narrow: true}
		got, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: rt}, dc)
		if err != nil {
			t.Fatalf("%s: %v\n%s", c.sql, err, dc)
		}
		if w, g := want.(*mal.ResultSet).Rows(), got.(*mal.ResultSet).Rows(); !maltest.SameRows(w, g) {
			t.Errorf("%s:\n got %v\nwant %v", c.sql, g, w)
		}
	}
}

// TestProbeUndoneWhenKeyReadWhole: when the outer plan also reads the
// probe table's key column whole, the key fetch cannot stay in the
// region, so the probe is given up and the join runs on whole columns,
// answering as the plain plan does.
func TestProbeUndoneWhenKeyReadWhole(t *testing.T) {
	p := compileWith(t, "select x, sum(b) from k, f where a = x group by x", alignedSchema)
	key := mal.NoVar
	for _, in := range p.Instrs {
		if in.Name() == "sql.bind" && in.Args[1].Lit == "f" && in.Args[2].Lit == "a" {
			key = in.Ret[0]
		}
	}
	// The plan's result becomes the key column reversed, read whole; the
	// result set stays, read by nothing.
	rev := mal.VarID(p.NVars)
	p.Instrs = append(p.Instrs, mal.Instr{Module: "bat", Op: "reverse", Ret: []mal.VarID{rev}, Args: []mal.Arg{mal.V(key)}})
	p.NVars, p.Result = p.NVars+1, rev
	dc, _, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(dc.String(), "group.probe(") {
		t.Fatalf("probes though the key column is read whole:\n%s", dc)
	}
	cols := map[string]*bat.BAT{
		"k.x": bat.MakeInts("k.x", []int64{3, 1, 3}), "k.y": bat.MakeInts("k.y", []int64{0, 0, 0}),
		"f.a": bat.MakeInts("f.a", []int64{1, 3, 2, 3}), "f.b": bat.MakeFloats("f.b", []float64{1, 2, 4, 8}),
	}
	want, err := mal.Run(&mal.Context{Registry: mal.Standard(), Catalog: bindCatalog(cols)}, p)
	if err != nil {
		t.Fatal(err)
	}
	rt := &maltest.FragDC{Cols: cols, Cuts: maltest.EveryRows(2), Narrow: true}
	got, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: rt}, dc)
	if err != nil {
		t.Fatalf("%v\n%s", err, dc)
	}
	if w, g := want.(*bat.BAT), got.(*bat.BAT); fmt.Sprint(bat.Widen(w).Dump(10)) != fmt.Sprint(bat.Widen(g).Dump(10)) {
		t.Fatalf("got %s, want %s", g.Dump(10), w.Dump(10))
	}
}
