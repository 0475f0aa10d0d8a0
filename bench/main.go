// Command dcbench is the repository's benchmark: served-query latency
// and throughput on four workloads, with an outside-in per-layer
// breakdown. README.md in this directory says what each workload and
// metric is for; BENCHMARK.json at the repository root is the contract
// an outside driver holds it to.
//
// Every measurement runs in a child process of its own, one at a time,
// so peak memory and CPU are per workload and a wedged ring can be
// killed without losing the numbers.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// extraSetups is how many set-up-only children run before a timed
	// run; setup_s is the median over them and the run's own set-up.
	extraSetups = 2
	// teardownGrace bounds Server.Close and Ring.Close in a child.
	teardownGrace = 5 * time.Second
	// childSlack is what a child may take beyond its windows (build-up,
	// probes, teardown) before the parent kills it.
	childSlack = 40 * time.Second
)

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload (default: all four)")
		seed      = flag.Int64("seed", 1, "seeds tpch.GenDB and the slate order")
		seconds   = flag.Float64("seconds", 30, "length of the timed window (-window is the same flag)")
		trace     = flag.Int("trace", -1, "0: one untraced run, end-to-end metrics; 1: one traced run, per-layer metrics; unset: both, for each workload")
		short     = flag.Bool("short", false, "3 s windows, for a quick smoke")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced set twice and fail if an end-to-end metric moves by more than its bound in BENCHMARK.json")
		repro     = flag.String("repro", "", "run one known-issue reproduction: "+strings.Join(reproNames(), ", "))
		child     = flag.String("child", "", "internal: run in this process (timed, traced or setup)")
	)
	flag.Float64Var(seconds, "window", *seconds, "same as -seconds")
	flag.Parse()
	if *short {
		*seconds = 3
	}
	specs := workloads
	if *name != "" {
		spec, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		specs = []workload{spec}
	}

	switch {
	case *child != "":
		runAsChild(*child, specs[0], *seed, *seconds)
	case *repro != "":
		fn, ok := repros[*repro]
		if !ok {
			fatalf("unknown reproduction %q; have %s", *repro, strings.Join(reproNames(), ", "))
		}
		if !fn() {
			fmt.Println("not reproduced")
			os.Exit(1)
		}
	case *selfcheck:
		if !selfCheck(specs, *seed, *seconds) {
			os.Exit(1)
		}
	case *trace == 0 || *trace == 1:
		if *name == "" {
			fatalf("-trace needs -workload")
		}
		res, err := measure(specs[0], *seed, *seconds, *trace == 1)
		if err != nil {
			fatalf("%s: %v", specs[0].name, err)
		}
		printLines(res)
		printContract(res)
		if res.Incorrect > 0 {
			os.Exit(1)
		}
	default:
		if !fullSet(specs, *seed, *seconds) {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dcbench: "+format+"\n", args...)
	os.Exit(2)
}

// runAsChild does one measurement in this process, prints its result as
// one JSON line, and only then tears the ring down — under a deadline,
// because Server.Close does not return while a served query is wedged in
// a pin (README.md, known issue a).
func runAsChild(mode string, spec workload, seed int64, seconds float64) {
	var (
		res *runResult
		r   *rig
		tr  *tracer
		err error
	)
	switch mode {
	case "timed":
		res, r, err = runTimed(spec, seed, seconds)
	case "traced":
		res, r, tr, err = runTraced(spec, seed, seconds)
	case "setup":
		res, r, err = runSetupOnly(spec, seed)
	default:
		fatalf("unknown child mode %q", mode)
	}
	if err != nil {
		fatalf("%s: %v", spec.name, err)
	}
	if tr != nil {
		path := "bench/out/trace-" + spec.name + ".json"
		if err := tr.write(path); err != nil {
			fatalf("write %s: %v", path, err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Printf("%s\n", line)

	done := make(chan struct{})
	go func() {
		r.tearDown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(teardownGrace):
		fmt.Fprintf(os.Stderr, "dcbench: %s: teardown still blocked after %v; exiting without it\n", spec.name, teardownGrace)
	}
}

// spawn runs one child to completion or to its deadline, whichever is
// first, and decodes the result line it printed.
func spawn(mode string, spec workload, seed int64, seconds float64) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	deadline := time.Duration(seconds*float64(time.Second)) + childSlack
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", mode, "-workload", spec.name,
		"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	// A child that printed its result and then hung in teardown was
	// killed at the deadline; its numbers are still good.
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var res runResult
		if json.Unmarshal(sc.Bytes(), &res) == nil && res.Metrics != nil {
			return &res, nil
		}
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("%s child killed after %v without a result", mode, deadline)
	}
	return nil, fmt.Errorf("%s child gave no result: %v", mode, runErr)
}

// measure is one run of one workload as an outside driver sees it.
func measure(spec workload, seed int64, seconds float64, traced bool) (*runResult, error) {
	if traced {
		return spawn("traced", spec, seed, seconds)
	}
	var setups []float64
	for i := 0; i < extraSetups; i++ {
		res, err := spawn("setup", spec, seed, 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, res.Metrics["setup_s"].Value)
	}
	res, err := spawn("timed", spec, seed, seconds)
	if err != nil {
		return nil, err
	}
	setups = append(setups, res.Metrics["setup_s"].Value)
	res.set("setup_s", median(setups), "s")
	return res, nil
}

func sortedNames(metrics map[string]metric) []string {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printLines prints one `workload metric value unit` line per metric.
func printLines(res *runResult) {
	for _, n := range sortedNames(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("%s %s %.6g %s\n", res.Workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%s samples %d count\n", res.Workload, res.Samples)
	if res.failed() > 0 {
		fmt.Printf("%s failures: %d of %d attempted (%d errors, %d timeouts, %d rejected, %d incorrect): %s\n",
			res.Workload, res.failed(), res.Attempted, res.Errors, res.Timeouts, res.Rejected, res.Incorrect,
			strings.Join(res.Notes, "; "))
	}
}

// printContract prints the line BENCHMARK.json's driver reads: the
// bounded end-to-end metrics of an untraced run, or every per-layer
// metric of a traced one.
func printContract(res *runResult) {
	metrics := res.Metrics
	if !res.Traced {
		metrics = map[string]metric{}
		for _, n := range bounded {
			metrics[n] = res.Metrics[n]
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Incorrect == 0, res.Attempted, res.failed(), metrics})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Printf("%s\n", line)
}

// environment is what a reader needs to compare two result files.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Kernel     string `json:"kernel"`
}

func describeEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(out))
	}
	return env
}

// fullSet runs every workload untraced and then traced, prints every
// metric, and ends with one JSON object holding all of it. It reports
// whether every result was correct.
func fullSet(specs []workload, seed int64, seconds float64) bool {
	var runs []*runResult
	ok := true
	for _, spec := range specs {
		for _, traced := range []bool{false, true} {
			res, err := measure(spec, seed, seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dcbench: %s: %v\n", spec.name, err)
				ok = false
				continue
			}
			printLines(res)
			ok = ok && res.Incorrect == 0
			runs = append(runs, res)
		}
	}
	line, err := json.Marshal(struct {
		Environment environment  `json:"environment"`
		Seed        int64        `json:"seed"`
		Seconds     float64      `json:"seconds"`
		Runs        []*runResult `json:"runs"`
	}{describeEnvironment(), seed, seconds, runs})
	if err != nil {
		fatalf("encode results: %v", err)
	}
	fmt.Printf("%s\n", line)
	return ok
}

// selfCheck runs the untraced set twice on this binary and prints both
// side by side. It fails when any bounded metric is worse in the second
// set than in the first by more than its bound, or better by more than
// that: two runs of the same code must agree either way.
func selfCheck(specs []workload, seed int64, seconds float64) bool {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	ok := true
	for _, spec := range specs {
		var sets [2]*runResult
		for i := range sets {
			if sets[i], err = measure(spec, seed, seconds, false); err != nil {
				fatalf("%s: %v", spec.name, err)
			}
			ok = ok && sets[i].failed() == 0
		}
		for _, n := range sortedNames(sets[0].Metrics) {
			a, b := sets[0].Metrics[n], sets[1].Metrics[n]
			moved := ratio(b.Value-a.Value, a.Value)
			verdict := "not bounded"
			if bound, has := bounds[n]; has {
				verdict = fmt.Sprintf("bound %.0f%% ok", 100*bound)
				if moved > bound || moved < -bound {
					verdict = fmt.Sprintf("bound %.0f%% OUTSIDE BOUND", 100*bound)
					ok = false
				}
			}
			fmt.Printf("%s %s %.6g %.6g %s moved %+.1f%% %s\n", spec.name, n, a.Value, b.Value, a.Unit, 100*moved, verdict)
		}
	}
	return ok
}

// readBounds loads the end-to-end bounds from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var file struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range file.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
