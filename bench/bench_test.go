package main

import (
	"encoding/json"
	"errors"
	"os"
	"regexp"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/mal"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.samples); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
	var v []float64
	for i := 1; i <= 200; i++ {
		v = append(v, float64(i))
	}
	// Nearest rank: p90 of 1..200 is the 180th value, leaving 20 beyond it.
	for p, want := range map[float64]float64{50: 100, 90: 180, 100: 200, 0.1: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 40, Parent: 1},
		{ID: 3, Name: "b", Start: 30, End: 60, Parent: 1},  // overlaps a: the union 10..60 counts once
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1}, // sticks out: only 90..100 is inside root
		{ID: 5, Name: "leaf", Start: 12, End: 20, Parent: 2},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 22, 3: 30, 4: 30, 5: 8} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRecordsParentAndQuery(t *testing.T) {
	tr := newTracer()
	root := tr.begin("replay", 0, 7)
	kid := tr.begin("live.execplan", root, 7)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Query != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].End < tr.spans[1].Start {
		t.Fatalf("span times out of order: %+v", tr.spans)
	}
	if got := tr.millis("live.execplan"); len(got) != 1 {
		t.Fatalf("millis = %v, want one duration", got)
	}
	// The untraced windows run the same code against a nil tracer.
	var off *tracer
	off.end(off.begin("x", 0, 0))
	off.timed("x", func() {})
}

func TestCounterDeltaPerQuery(t *testing.T) {
	if got := perQuery(250, 100); got != 2.5 {
		t.Errorf("perQuery(250, 100) = %v, want 2.5", got)
	}
	if got := perQuery(250, 0); got != 0 {
		t.Errorf("perQuery with no queries = %v, want 0", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
}

func TestSameResult(t *testing.T) {
	rs := func(ints []int64, floats []float64) *mal.ResultSet {
		return &mal.ResultSet{Names: []string{"i", "f"}, Cols: []*bat.BAT{bat.MakeInts("i", ints), bat.MakeFloats("f", floats)}}
	}
	want := rs([]int64{1, 2}, []float64{1e9, 0.5})
	if err := sameResult(want, rs([]int64{1, 2}, []float64{1e9 + 1e-3, 0.5}), true); err != nil {
		t.Errorf("summation-order float noise rejected: %v", err)
	}
	for name, got := range map[string]*mal.ResultSet{
		"fewer rows":  rs([]int64{1}, []float64{1e9}),
		"wrong int":   rs([]int64{1, 3}, []float64{1e9, 0.5}),
		"wrong float": rs([]int64{1, 2}, []float64{1e9, 0.5001}),
	} {
		if err := sameResult(want, got, true); !errors.Is(err, errIncorrect) {
			t.Errorf("%s: err = %v, want errIncorrect", name, err)
		}
	}
	if err := sameResult(want, rs([]int64{1, 3}, []float64{1e9, 0.5}), false); err != nil {
		t.Errorf("shape-only check looked at cells: %v", err)
	}
}

func TestTallyClassifiesFailures(t *testing.T) {
	var tl tally
	tl.fail(errTimeout)
	tl.fail(errIncorrect)
	tl.fail(errors.New("connection reset"))
	if tl.Timeouts != 1 || tl.Incorrect != 1 || tl.Errors != 1 || tl.failed() != 3 {
		t.Errorf("tally = %+v", tl)
	}
}

// TestBenchmarkJSONMatchesWhatRuns holds BENCHMARK.json to the program:
// every name is well formed, every workload exists, and a real (short)
// untraced and traced run of the cheapest workload emit exactly the
// end-to-end and per-layer metrics the file lists, with its units.
func TestBenchmarkJSONMatchesWhatRuns(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var file struct {
		Workloads []listed `json:"workloads"`
		EndToEnd  []listed `json:"end_to_end"`
		PerLayer  []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, l := range append(append(file.Workloads, file.EndToEnd...), file.PerLayer...) {
		if !wellFormed.MatchString(l.Name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+", l.Name)
		}
	}
	if len(file.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(file.Workloads), len(workloads))
	}
	for _, w := range file.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q does not exist", w.Name)
		}
	}

	spec, _ := findWorkload("point_storm")
	spec.warmup = 20
	timed, r, err := runTimed(spec, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r.tearDown()
	traced, r, _, err := runTraced(spec, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	r.tearDown()
	if timed.failed()+traced.failed() > 0 {
		t.Errorf("failures: %v %v", timed.Notes, traced.Notes)
	}

	emitted := map[string]metric{}
	for _, n := range bounded {
		m, ok := timed.Metrics[n]
		if !ok {
			t.Errorf("untraced run did not emit bounded metric %q", n)
		}
		emitted[n] = m
	}
	compare := func(kind string, want []listed, got map[string]metric) {
		var missing, extra []string
		seen := map[string]bool{}
		for _, l := range want {
			seen[l.Name] = true
			m, ok := got[l.Name]
			if !ok {
				missing = append(missing, l.Name)
			} else if m.Unit != l.Unit {
				t.Errorf("%s metric %q has unit %q, BENCHMARK.json says %q", kind, l.Name, m.Unit, l.Unit)
			}
		}
		for n := range got {
			if !seen[n] {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		if len(missing)+len(extra) > 0 {
			t.Errorf("%s: listed but not emitted %v; emitted but not listed %v", kind, missing, extra)
		}
	}
	compare("end_to_end", file.EndToEnd, emitted)
	compare("per_layer", file.PerLayer, traced.Metrics)
}
