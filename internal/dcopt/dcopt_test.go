package dcopt

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
	"repro/internal/minisql"
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
	if st.Requests != 2 || st.Pins != 2 || st.Unpins != 2 {
		t.Fatalf("stats = %+v, want 2/2/2", st)
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

func TestRequestedColumns(t *testing.T) {
	p := compile(t, "select c.t_id from t, c where c.t_id = t.id")
	dc, _, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	cols := RequestedColumns(dc)
	if len(cols) != 2 {
		t.Fatalf("cols = %v", cols)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		seen[c[1]+"."+c[2]] = true
	}
	if !seen["t.id"] || !seen["c.t_id"] {
		t.Fatalf("missing columns: %v", cols)
	}
	// Works on unrewritten plans too (sql.bind form).
	if got := RequestedColumns(p); len(got) != 2 {
		t.Fatalf("bind-form cols = %v", got)
	}
}

// TestFusedScanRewrite: a select that is both first and last use of a
// bound column collapses into datacyclotron.pinuselect, with no
// stand-alone pin/unpin left for that column.
func TestFusedScanRewrite(t *testing.T) {
	p := compile(t, "select name from t where id >= 2")
	dc, st, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fused != 1 {
		t.Fatalf("fused = %d, want 1 (stats %+v)", st.Fused, st)
	}
	text := dc.String()
	if !strings.Contains(text, "datacyclotron.pinuselect") {
		t.Fatalf("plan missing fused scan:\n%s", text)
	}
	// t.id is consumed entirely by the fused scan; t.name still needs a
	// plain pin (it feeds a join), so exactly one pin/unpin pair remains.
	if st.Pins != 1 || st.Unpins != 1 {
		t.Fatalf("pins/unpins = %d/%d, want 1/1:\n%s", st.Pins, st.Unpins, text)
	}
	if st.Requests != 2 {
		t.Fatalf("requests = %d, want 2", st.Requests)
	}
}

// fragDC is a FragmentedDC fake that splits every column into fragments
// and reports them to PinMap callbacks in REVERSE order, proving the
// merge is order-preserving regardless of arrival order.
type fragDC struct {
	memDC
	fragRows int
	pinMaps  int
}

func (d *fragDC) PinMap(h mal.Value, fn func(mal.Value) (mal.Value, error)) ([]mal.Value, error) {
	d.mu.Lock()
	d.pinMaps++
	b, ok := d.cat[h.(string)]
	d.mu.Unlock()
	if !ok {
		return nil, errors.New("BAT does not exist")
	}
	var frags []*bat.BAT
	for from := 0; from < b.Len(); from += d.fragRows {
		to := from + d.fragRows
		if to > b.Len() {
			to = b.Len()
		}
		frags = append(frags, b.Slice(from, to))
	}
	if len(frags) == 0 {
		frags = []*bat.BAT{b}
	}
	out := make([]mal.Value, len(frags))
	for i := len(frags) - 1; i >= 0; i-- { // adverse arrival order
		v, err := fn(frags[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// TestFusedScanPerFragment runs a fused plan against the fragmented
// fake: results must equal the unfragmented bind-form execution even
// though fragments were scanned last-to-first.
func TestFusedScanPerFragment(t *testing.T) {
	catalog := map[string]*bat.BAT{
		"t.id":   bat.MakeInts("t.id", []int64{1, 2, 3, 4, 5, 6, 7}),
		"t.name": bat.MakeStrs("t.name", []string{"a", "b", "c", "d", "e", "f", "g"}),
		"c.t_id": bat.MakeInts("c.t_id", []int64{2, 2, 3, 9}),
		"c.val":  bat.MakeInts("c.val", []int64{10, 20, 30, 40}),
	}
	for _, src := range []string{
		"select name from t where id >= 3",
		"select val from c where t_id = 2",
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
		if st.Fused == 0 {
			t.Fatalf("%s: nothing fused", src)
		}
		rt := &fragDC{memDC: memDC{cat: catalog}, fragRows: 3}
		got, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), DC: rt}, dc)
		if err != nil {
			t.Fatalf("%s (fragmented): %v", src, err)
		}
		if !reflect.DeepEqual(want.(*mal.ResultSet).Rows(), got.(*mal.ResultSet).Rows()) {
			t.Fatalf("%s: per-fragment result differs:\nwant %v\ngot  %v",
				src, want.(*mal.ResultSet).Rows(), got.(*mal.ResultSet).Rows())
		}
		if rt.pinMaps != st.Fused {
			t.Fatalf("%s: %d PinMap calls for %d fused scans", src, rt.pinMaps, st.Fused)
		}
	}
}

// TestNoFusionWhenColumnReused: a column consumed by the select AND a
// later instruction keeps the plain pin/unpin form — fusing it would
// leave the later use without a pinned value.
func TestNoFusionWhenColumnReused(t *testing.T) {
	p := compile(t, "select id from t where id >= 2")
	dc, st, err := Rewrite(p)
	if err != nil {
		t.Fatal(err)
	}
	// id appears in both the predicate and the projection, so its select
	// is not the last use: the rewrite must keep the plain pin.
	if st.Fused != 0 {
		t.Fatalf("fused a reused column (stats %+v):\n%s", st, dc)
	}
	if !strings.Contains(dc.String(), "datacyclotron.pin") {
		t.Fatalf("reused column lost its pin:\n%s", dc)
	}
	rt := &fragDC{memDC: memDC{cat: map[string]*bat.BAT{
		"t.id":   bat.MakeInts("t.id", []int64{1, 2, 3, 4}),
		"t.name": bat.MakeStrs("t.name", []string{"a", "b", "c", "d"}),
	}}, fragRows: 2}
	got, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), DC: rt}, dc)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, dc)
	}
	if got.(*mal.ResultSet).NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", got.(*mal.ResultSet).NumRows())
	}
}

func TestRewritePlanWithoutBinds(t *testing.T) {
	b := mal.NewBuilder("nobind")
	x := b.Emit("sql", "scalarResult", mal.L("v"), mal.L(int64(1)))
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
