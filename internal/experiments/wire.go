package experiments

// Wire suite: the codec-versus-gob and ring-hop microbenchmarks of
// internal/bat and internal/live, run through `go test -bench` and
// recorded in the common envelope. It needs the go tool and the
// module's source, which is where `go run ./cmd/dcsweep` already is.
// The codec/gob equivalence tests that make a wire-format regression
// impossible to hide behind speed are tier-1 tests; scripts/bench.sh
// runs them in front of this suite.

import (
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// wireBenchmarks names what the suite runs: package, -bench pattern.
var wireBenchmarks = [][2]string{
	{"repro/internal/bat", "BenchmarkMarshal|BenchmarkUnmarshal"},
	{"repro/internal/live", "BenchmarkRingHop"},
}

// WireBenchmark is one benchmark result line.
type WireBenchmark struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// WireResult is the whole suite.
type WireResult struct {
	Benchtime  string          `json:"benchtime"`
	Benchmarks []WireBenchmark `json:"benchmarks"`
}

// WireBench runs the wire benchmarks: one second each, or (short) one
// iteration each.
func WireBench(short bool) (*WireResult, error) {
	res := &WireResult{Benchtime: "1s"}
	if short {
		res.Benchtime = "1x"
	}
	for _, b := range wireBenchmarks {
		out, err := exec.Command("go", "test", b[0], "-run", "NONE", "-bench", b[1],
			"-benchmem", "-benchtime="+res.Benchtime).CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("wire bench %s: %w\n%s", b[0], err, out)
		}
		res.Benchmarks = append(res.Benchmarks, parseBenchOutput(string(out))...)
	}
	return res, nil
}

var cpuSuffix = regexp.MustCompile(`-[0-9]+$`)

// parseBenchOutput reads the result lines of `go test -bench -benchmem`
// output: a name, an iteration count, then value/unit pairs.
func parseBenchOutput(out string) []WireBenchmark {
	var res []WireBenchmark
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		// A field that does not parse stays zero, which Gate() rejects.
		b := WireBenchmark{Name: cpuSuffix.ReplaceAllString(f[0], "")}
		b.Iters, _ = strconv.ParseInt(f[1], 10, 64)
		for i := 2; i+1 < len(f); i += 2 {
			v, _ := strconv.ParseFloat(f[i], 64)
			switch f[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "MB/s":
				b.MBPerS = v
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			}
		}
		res = append(res, b)
	}
	return res
}

// Gate checks that every benchmark family of the suite produced a
// timed result: a benchmark that stopped compiling, matching or
// finishing must not leave a quietly shorter snapshot.
func (r *WireResult) Gate() Gates {
	var g Gates
	for _, family := range []string{"BenchmarkMarshal/", "BenchmarkUnmarshal/", "BenchmarkRingHop/"} {
		n := 0
		for _, b := range r.Benchmarks {
			if strings.HasPrefix(b.Name, family) && b.Iters > 0 && b.NsPerOp > 0 {
				n++
			}
		}
		g.check(n > 0, family+"*", "≥ 1 timed result", "%d", n)
	}
	return g
}

func (r *WireResult) String() string {
	var rows [][]any
	for _, b := range r.Benchmarks {
		rows = append(rows, []any{b.Name, b.Iters, fmt.Sprintf("%.1f", b.NsPerOp), fmt.Sprintf("%.2f", b.MBPerS), b.BytesPerOp, b.AllocsPerOp})
	}
	return table("Wire codec benchmarks — benchtime "+r.Benchtime,
		[]string{"benchmark", "iters", "ns/op", "MB/s", "B/op", "allocs/op"}, rows)
}
