package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number; the name carries the layer as prefix
// for per-layer metrics.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload reports. It is also the
// line a child process hands its parent.
type runResult struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	outcomes
	Samples int               `json:"samples"`
	Metrics map[string]metric `json:"metrics"`
}

func (r *runResult) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{value, unit}
}

// bounded lists the end-to-end metrics BENCHMARK.json puts a bound on.
// An untraced run also reports qps, fail_share and the latency tail the
// percentile rule supports (lat_tail_ms at lat_tail_pct), which the
// contract cannot carry: qps on ring_thrash spreads by up to its bound
// between runs of the same code (three to eight queries of a 20 s
// window sit out the 2 s resend timeout), fail_share is 0 on a healthy
// run, and the tail is a different percentile on different workloads.
var bounded = []string{"lat_p50_ms", "cpu_ms_per_query", "rss_peak_mb", "setup_s"}

// runTimed is the untraced run: set up, one closed-loop window, and the
// end-to-end metrics. The rig comes back for the caller to tear down
// after the numbers are safely out.
func runTimed(spec workload, seed int64, seconds float64) (*runResult, *rig, error) {
	t0 := time.Now()
	r, err := setUp(spec, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	setup := time.Since(t0)

	cpu0 := cpuTime()
	win := closedLoop(sessions, forSeconds(seconds), r.served(nil))
	cpu := cpuTime() - cpu0

	res := &runResult{Workload: spec.name, Metrics: map[string]metric{}, Samples: len(win.latMs)}
	res.add(win.outcomes)
	sort.Float64s(win.latMs)
	tail := tailPercentile(len(win.latMs))
	res.set("qps", ratio(float64(len(win.latMs)), win.elapsed.Seconds()), "1/s")
	res.set("lat_p50_ms", percentile(win.latMs, 50), "ms")
	res.set("lat_tail_ms", percentile(win.latMs, tail), "ms")
	res.set("lat_tail_pct", tail, "%")
	res.set("fail_share", ratio(float64(win.failed()), float64(win.Attempted)), "share")
	res.set("cpu_ms_per_query", ratio(float64(cpu)/1e6, float64(len(win.latMs))), "ms")
	res.set("rss_peak_mb", peakRSSMB(), "MB")
	res.set("setup_s", setup.Seconds(), "s")
	return res, r, nil
}

// runSetupOnly measures one more set-up, so that setup_s can be a
// median of several without the extra rings inflating the measured
// process's memory and CPU.
func runSetupOnly(spec workload, seed int64) (*runResult, *rig, error) {
	t0 := time.Now()
	r, err := setUp(spec, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &runResult{Workload: spec.name, Metrics: map[string]metric{}}
	res.set("setup_s", time.Since(t0).Seconds(), "s")
	return res, r, nil
}

// cpuTime is the process's user plus system CPU so far. It includes the
// ring's background circulation — the paper's standing cost — and the
// two client sessions, which live in the same process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}
