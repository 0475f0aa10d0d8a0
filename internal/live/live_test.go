package live

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
	"repro/internal/minisql"
	"repro/internal/tpch"
)

func testColumns() (map[string]*bat.BAT, minisql.Schema) {
	cols := map[string]*bat.BAT{
		"t.id":   bat.MakeInts("t.id", []int64{1, 2, 3, 4}),
		"t.name": bat.MakeStrs("t.name", []string{"one", "two", "three", "four"}),
		"c.t_id": bat.MakeInts("c.t_id", []int64{2, 2, 3, 9}),
		"c.val":  bat.MakeInts("c.val", []int64{100, 200, 300, 400}),
	}
	schema := minisql.MapSchema{
		"t": {"id", "name"},
		"c": {"t_id", "val"},
	}
	return cols, schema
}

func newTestRing(t *testing.T, n int) *Ring {
	t.Helper()
	cols, schema := testColumns()
	r, err := NewRing(n, cols, schema, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPaperQueryOnLiveRing(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	// The paper's running example, executed on a node that owns none or
	// some of the data — fragments must flow around the ring.
	rs, err := r.Node(1).ExecSQL("select c.t_id from t, c where c.t_id = t.id")
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range rs.Rows() {
		got = append(got, row[0].(int64))
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if want := []int64{2, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("result = %v, want %v", got, want)
	}
}

func TestEveryNodeCanExecute(t *testing.T) {
	r := newTestRing(t, 4)
	defer r.Close()
	// A query can be executed at any node in the ring (§1): results
	// must be identical everywhere.
	var want [][]any
	for i := 0; i < r.Size(); i++ {
		rs, err := r.Node(i).ExecSQL("select name from t where id >= 2 order by name")
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		if want == nil {
			want = rs.Rows()
			continue
		}
		if !reflect.DeepEqual(rs.Rows(), want) {
			t.Fatalf("node %d result differs: %v vs %v", i, rs.Rows(), want)
		}
	}
}

func TestLiveMatchesLocalExecution(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	cols, schema := testColumns()
	queries := []string{
		"select c.t_id from t, c where c.t_id = t.id",
		"select name from t where id >= 2 order by name",
		"select t.name, c.val from t, c where c.t_id = t.id and c.val > 150 order by c.val",
		"select sum(val), count(*) from c",
	}
	for _, q := range queries {
		plan, err := minisql.Compile(q, schema, "sys")
		if err != nil {
			t.Fatal(err)
		}
		local, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), Catalog: catalogOf(cols)}, plan)
		if err != nil {
			t.Fatalf("%s local: %v", q, err)
		}
		liveRes, err := r.Node(2).ExecSQL(q)
		if err != nil {
			t.Fatalf("%s live: %v", q, err)
		}
		if !sameRowMultiset(local.(*mal.ResultSet).Rows(), liveRes.Rows()) {
			t.Fatalf("%s: live result differs\nlocal: %v\nlive:  %v",
				q, local.(*mal.ResultSet).Rows(), liveRes.Rows())
		}
	}
}

type catalogOf map[string]*bat.BAT

func (c catalogOf) Bind(schema, table, column string) (mal.Value, error) {
	b, ok := c[table+"."+column]
	if !ok {
		return nil, fmt.Errorf("no column %s.%s", table, column)
	}
	return b, nil
}

// sameRowMultiset compares results ignoring row order.
func sameRowMultiset(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r []any) string { return fmt.Sprint(r) }
	count := map[string]int{}
	for _, r := range a {
		count[key(r)]++
	}
	for _, r := range b {
		count[key(r)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestConcurrentQueriesAcrossNodes(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	const perNode = 5
	var wg sync.WaitGroup
	errs := make(chan error, r.Size()*perNode)
	for i := 0; i < r.Size(); i++ {
		for k := 0; k < perNode; k++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				rs, err := r.Node(node).ExecSQL("select c.t_id from t, c where c.t_id = t.id")
				if err != nil {
					errs <- fmt.Errorf("node %d: %w", node, err)
					return
				}
				if rs.NumRows() != 3 {
					errs <- fmt.Errorf("node %d: rows = %d", node, rs.NumRows())
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestUnknownColumnFails(t *testing.T) {
	r := newTestRing(t, 2)
	defer r.Close()
	if _, err := r.Node(0).ExecSQL("select nosuch from t"); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestBATIDResolution(t *testing.T) {
	r := newTestRing(t, 2)
	defer r.Close()
	if ids, ok := r.Fragments("t.id"); !ok || len(ids) != 1 {
		t.Fatalf("t.id resolves to %v, want one fragment", ids)
	}
	if _, ok := r.Fragments("nope.nope"); ok {
		t.Fatal("phantom column resolved")
	}
}

func TestTPCHQ1OnLiveRing(t *testing.T) {
	db := tpch.GenDB(0.0005, 11)
	cols := db.ColumnMap()
	r, err := NewRing(3, cols, db.Schema(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rs, err := r.Node(1).ExecSQL(tpch.Q1SQL)
	if err != nil {
		t.Fatal(err)
	}
	// Compare against local execution.
	plan, err := minisql.Compile(tpch.Q1SQL, db.Schema(), "sys")
	if err != nil {
		t.Fatal(err)
	}
	local, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), Catalog: db}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRowMultiset(local.(*mal.ResultSet).Rows(), rs.Rows()) {
		t.Fatal("live TPC-H Q1 differs from local execution")
	}
	// The ring actually moved data: some node forwarded BATs.
	forwarded := uint64(0)
	for i := 0; i < r.Size(); i++ {
		forwarded += r.Node(i).Stats().BATsForwarded
	}
	if forwarded == 0 {
		t.Fatal("no BATs flowed through the ring")
	}
}

func TestRingTooSmall(t *testing.T) {
	cols, schema := testColumns()
	if _, err := NewRing(1, cols, schema, DefaultConfig()); err == nil {
		t.Fatal("expected error for 1-node ring")
	}
}

// TestExecPlanErrorDoesNotLeakInterpreter drives the errCh failure path
// of ExecPlan: a plan pins both a real column and a phantom fragment no
// node owns, so the phantom request returns to origin and fails the
// query while the other pin may still be blocked. The interpreter
// goroutine must exit (via cancellation), not strand forever against a
// cancelled query.
func TestExecPlanErrorDoesNotLeakInterpreter(t *testing.T) {
	r := newTestRing(t, 3)
	defer r.Close()
	n := r.Node(0)

	r.idsMu.Lock()
	r.cols["ghost.col"] = &colFrags{ids: []core.BATID{777}}
	r.idsMu.Unlock()

	for i := 0; i < 5; i++ {
		b := mal.NewBuilder("leaky")
		g := b.Emit("datacyclotron", "request", mal.L("sys"), mal.L("ghost"), mal.L("col"))
		h := b.Emit("datacyclotron", "request", mal.L("sys"), mal.L("t"), mal.L("id"))
		pg := b.Emit("datacyclotron", "pin", mal.V(g))
		ph := b.Emit("datacyclotron", "pin", mal.V(h))
		_ = pg
		b.SetResult(ph)
		if _, err := n.ExecPlan(b.MustBuild()); err == nil {
			t.Fatal("query over phantom fragment succeeded")
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.InterpRunning() == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := n.InterpRunning(); got != 0 {
		t.Fatalf("%d interpreter goroutines still running after failed queries", got)
	}
	// The aborted pins must not leave refcounted payloads behind.
	n.mu.Lock()
	leftover := pinnedEntries(n)
	n.mu.Unlock()
	if leftover != 0 {
		t.Fatalf("%d cached payloads leaked by aborted queries", leftover)
	}
	checkTable(t, n)
}
