package datacyclotron

import (
	"strings"
	"testing"
	"time"
)

func TestFacadeSimulation(t *testing.T) {
	cfg := DefaultSimConfig()
	cfg.Nodes = 4
	c := NewSimCluster(cfg)
	for i := 0; i < 8; i++ {
		c.AddBAT(BATSpec{ID: BATID(i), Size: 1 << 20, Owner: NodeID(i % 4)})
	}
	c.Submit(QuerySpec{ID: 1, Node: 0, Arrival: 0,
		Steps: []Step{{BAT: 1, Proc: 20 * time.Millisecond}}})
	c.Run(time.Minute)
	if c.QueriesDone() != 1 {
		t.Fatalf("done = %d", c.QueriesDone())
	}
	if c.Metrics().Finished.Count() != 1 {
		t.Fatal("metrics not recorded")
	}
}

func TestFacadeLiveRingSQL(t *testing.T) {
	columns := map[string]*BAT{
		"t.id":   MakeInts("t.id", []int64{1, 2, 3}),
		"t.name": MakeStrs("t.name", []string{"a", "b", "c"}),
		"t.w":    MakeFloats("t.w", []float64{0.5, 1.5, 2.5}),
	}
	schema := MapSchema{"t": {"id", "name", "w"}}
	ring, err := NewLiveRing(2, columns, schema, DefaultLiveConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	rs, err := ring.Node(1).ExecSQL("select name from t where id >= 2 order by name")
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 2 || rs.Row(0)[0] != "b" {
		t.Fatalf("rows = %v", rs.Rows())
	}
	// The hot-set cache surface: repeat queries hit, stats aggregate.
	if _, err := ring.Node(1).ExecSQL("select name from t where id >= 2 order by name"); err != nil {
		t.Fatal(err)
	}
	var cs LiveCacheStats = ring.CacheStats()
	if cs.Hits == 0 {
		t.Fatal("repeated query never hit the hot-set cache")
	}
}

func TestFacadeCompileAndRewrite(t *testing.T) {
	schema := MapSchema{"t": {"id"}}
	plan, err := CompileSQL("select id from t where id > 1", schema)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "sql.bind") {
		t.Fatal("plan missing bind")
	}
	dcPlan, err := RewriteDC(plan)
	if err != nil {
		t.Fatal(err)
	}
	text := dcPlan.String()
	for _, want := range []string{"datacyclotron.request", "datacyclotron.pin", "datacyclotron.unpin"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rewritten plan missing %s", want)
		}
	}
}

func TestFacadeExperimentDispatch(t *testing.T) {
	if len(ExperimentIDs()) < 6 {
		t.Fatal("experiment list too short")
	}
	res, err := RunExperiment("fig1", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "Figure 1") {
		t.Fatal("fig1 report wrong")
	}
	if _, err := RunExperiment("nope", 1, 1); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestFacadeExperimentSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res, err := RunExperiment("fig9", 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "Figure 9") {
		t.Fatal("fig9 report wrong")
	}
}
