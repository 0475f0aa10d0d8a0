package experiments

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSuitesGate runs every registered suite at its Short size and
// holds it to its own Gate() — the same checks, thresholds and messages
// `dcsweep -short <suite>` enforces: every check but the timing ratios
// (Gates.timing), which only a full-size run judges.
func TestSuitesGate(t *testing.T) {
	for _, s := range Suites {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			if s.Name == "wire" {
				if _, err := exec.LookPath("go"); err != nil {
					t.Skip("wire suite shells out to the go tool:", err)
				}
			}
			res, err := s.Run(true, s.Seed)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("\n%s", res)
			if res.String() == "" {
				t.Error("empty report")
			}
			gates := res.Gate()
			if len(gates) == 0 {
				t.Error("suite judged nothing")
			}
			for _, c := range gates {
				if err := (Gates{c}).Err(true); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestEnvelopeRoundTrip: the snapshot carries the run's provenance and
// one gates[] entry per check, observed value filled in whether the
// check passed or not, and survives encoding/json.
func TestEnvelopeRoundTrip(t *testing.T) {
	res := &FragResult{LineitemRows: 8192, Nodes: 3, Runs: []FragRun{
		{FragmentRows: 0, Fragments: 1, RegionBytes: 80000, MaxHopBytes: 70000, Queries: 2, P50Micros: 5, P99Micros: 9},
		{FragmentRows: 1024, Fragments: 8, RegionBytes: 10000, MaxHopBytes: 9000, Queries: 2, P50Micros: 5, P99Micros: 9},
	}}
	env := NewEnvelope("frag", true, res)
	if err := env.Gates.Err(true); err == nil || err.Error() != "FragmentRows=1024: max hop: 9000 vs unfragmented 70000 — want ≥8× reduction" {
		t.Fatalf("gate error = %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_frag.json")
	if err := env.Write(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Suite, Date, Commit, Go, Kernel string
		Short                           bool
		GOMAXPROCS                      int
		Gates                           Gates
		Result                          FragResult
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Suite != "frag" || !got.Short || got.Commit == "" || got.Go == "" || got.Kernel == "" || got.GOMAXPROCS < 1 {
		t.Fatalf("provenance lost: %+v", got)
	}
	if _, err := time.Parse(time.RFC3339, got.Date); err != nil {
		t.Fatalf("date %q: %v", got.Date, err)
	}
	if len(got.Gates) != len(res.Gate()) || len(got.Gates) != 7 {
		t.Fatalf("gates[] has %d entries, Gate() made %d, want 7", len(got.Gates), len(res.Gate()))
	}
	failed := 0
	for _, c := range got.Gates {
		if c.Name == "" || c.Threshold == "" || c.Observed == "" {
			t.Errorf("incomplete check: %+v", c)
		}
		if !c.Pass {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed checks, want exactly the 8× one", failed)
	}
	if len(got.Result.Runs) != 2 || got.Result.Runs[1].MaxHopBytes != 9000 {
		t.Fatalf("result lost: %+v", got.Result)
	}
}

// TestTimingChecksJudgedAtFullSize: a failed timing ratio fails a
// full-size run and not a short one; any other failed check fails both.
func TestTimingChecksJudgedAtFullSize(t *testing.T) {
	var g Gates
	g.timing(false, "p99 ratio", "≤ 2×", "3×")
	if err := g.Err(true); err != nil {
		t.Fatalf("short run judged a timing ratio: %v", err)
	}
	if err := g.Err(false); err == nil {
		t.Fatal("full-size run passed a failed timing ratio")
	}
	g.check(false, "answers", "0 incorrect", "1")
	if err := g.Err(true); err == nil || err.Error() != "answers: 1 — want 0 incorrect" {
		t.Fatalf("short run error = %v, want the failed non-timing check", err)
	}
}

// TestCachePinRatioIsTiming: the cache suite's pin p99 reduction is a
// timing ratio, so a short run records a missed one without failing.
func TestCachePinRatioIsTiming(t *testing.T) {
	run := CacheRun{PinP50Micros: 100, PinP99Micros: 400, QueryP50Micros: 500, QueryP99Micros: 900}
	cached := run
	cached.CacheBytes, cached.Hits, cached.HitRate = 64<<20, 10, 1
	cached.PinP99Micros = 200 // 2× below cache-off, against the 5× the gate asks
	off := run
	off.RingWaitMicros = 1000
	r := &CacheResult{Repeats: 10, Runs: []CacheRun{off, cached}}
	if err := r.Gate().Err(true); err != nil {
		t.Fatalf("short run judged the pin ratio: %v", err)
	}
	if err := r.Gate().Err(false); err == nil {
		t.Fatal("full-size run passed a 2× pin p99 reduction")
	}
}

func TestQuantile(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		lat  []time.Duration
		p    float64
		want time.Duration
	}{
		{nil, 0, 0}, {nil, 0.5, 0}, {nil, 0.99, 0}, {nil, 1, 0},
		{[]time.Duration{7 * ms}, 0, 7 * ms}, {[]time.Duration{7 * ms}, 0.5, 7 * ms},
		{[]time.Duration{7 * ms}, 0.99, 7 * ms}, {[]time.Duration{7 * ms}, 1, 7 * ms},
		// Floor rank int(p·(n−1)): with two samples only p = 1 reaches
		// the larger. The input is unsorted and must stay so.
		{[]time.Duration{9 * ms, 3 * ms}, 0, 3 * ms}, {[]time.Duration{9 * ms, 3 * ms}, 0.5, 3 * ms},
		{[]time.Duration{9 * ms, 3 * ms}, 0.99, 3 * ms}, {[]time.Duration{9 * ms, 3 * ms}, 1, 9 * ms},
	} {
		if got := quantile(c.lat, c.p); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.lat, c.p, got, c.want)
		}
		if len(c.lat) == 2 && c.lat[0] != 9*ms {
			t.Errorf("quantile sorted its input in place: %v", c.lat)
		}
	}
}

func TestParseBenchOutput(t *testing.T) {
	got := parseBenchOutput(`goos: linux
BenchmarkMarshal/codec/rows=1000-2         	14411694	        79.52 ns/op	101407.72 MB/s	       0 B/op	       0 allocs/op
BenchmarkMarshalStrings/gob-16             	     274	   4262588 ns/op	 7840800 B/op	      57 allocs/op
PASS
ok  	repro/internal/bat	1.2s
`)
	want := []WireBenchmark{
		{Name: "BenchmarkMarshal/codec/rows=1000", Iters: 14411694, NsPerOp: 79.52, MBPerS: 101407.72},
		{Name: "BenchmarkMarshalStrings/gob", Iters: 274, NsPerOp: 4262588, BytesPerOp: 7840800, AllocsPerOp: 57},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
}
