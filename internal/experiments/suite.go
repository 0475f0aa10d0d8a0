package experiments

// The gated sweeps: one table of suites, one result shape, one snapshot
// envelope. cmd/dcsweep, CI and `go test` all go through Suites, so a
// gate is written once — in the suite's Gate() — and judged the same
// way everywhere.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"repro/internal/live"
)

// Result is what a suite's sweep returns: the numbers, printable, and
// the checks that judge them.
type Result interface {
	String() string
	Gate() Gates
}

// Suite is one row of the sweep table.
type Suite struct {
	Name string // the dcsweep argument; the committed snapshot is BENCH_<Name>.json
	Seed int64  // the dataset/workload seed the suite runs with by default
	Run  func(short bool, seed int64) (Result, error)
}

// Suites lists every gated sweep, in the order `dcsweep all` runs them.
var Suites = []Suite{
	{"wire", 0, func(short bool, _ int64) (Result, error) { return WireBench(short) }},
	{"frag", 42, sweep(DefaultFragOpts, FragmentSweep)},
	{"cache", 42, sweep(DefaultCacheOpts, CacheSweep)},
	{"hop", 42, sweep(DefaultHopOpts, HopSweep)},
	{"failover", 42, sweep(DefaultFailoverOpts, FailoverSweep)},
	{"join", 42, sweep(DefaultJoinOpts, JoinSweep)},
	{"tier", 1, sweep(DefaultTierOpts, TierSweep)},
}

// sweep adapts a suite's (default opts, Short preset, sweep function)
// triple to a table row.
func sweep[O interface{ Short() O }, R Result](def func() O, run func(O, int64) (R, error)) func(bool, int64) (Result, error) {
	return func(short bool, seed int64) (Result, error) {
		o := def()
		if short {
			o = o.Short()
		}
		return run(o, seed)
	}
}

// Check is one gate check as the snapshot records it. FullSizeOnly
// marks a timing-ratio check (Gates.timing), which a short run records
// but does not judge.
type Check struct {
	Name         string `json:"name"`
	Threshold    string `json:"threshold"`
	Observed     string `json:"observed"`
	Pass         bool   `json:"pass"`
	FullSizeOnly bool   `json:"full_size_only,omitempty"`
}

// Gates is every check a result's Gate() made, passed or not.
type Gates []Check

// check records one check: whether it held, what it demanded and what
// it saw (a format and its arguments).
func (g *Gates) check(pass bool, name, threshold, observed string, args ...any) {
	*g = append(*g, Check{Name: name, Threshold: threshold, Observed: fmt.Sprintf(observed, args...), Pass: pass})
}

// timing records a timing-ratio check: one latency held against
// another. A short run measures each side over a fraction of a second,
// too few samples for the ratio to be the system's rather than the
// scheduler's, so the check is judged only at full size.
func (g *Gates) timing(pass bool, name, threshold, observed string, args ...any) {
	g.check(pass, name, threshold, observed, args...)
	(*g)[len(*g)-1].FullSizeOnly = true
}

// latencies records the sanity check every latency-reporting run
// shares: it answered queries and its quantiles are ordered.
func (g *Gates) latencies(scope string, queries int, p50, p99 int64) {
	g.check(queries > 0 && p50 > 0 && p99 >= p50, scope+": answered", "queries > 0, 0 < p50 ≤ p99",
		"%d queries, p50 %dµs, p99 %dµs", queries, p50, p99)
}

// lossFree records the check every run of a suite that kills no node
// shares: loopback links lose nothing and a paced owner keeps a
// requested BAT for one more revolution (core.Config.ParkIdleCycles), so
// no request is ever resent and no query sits out the resend timer.
func (g *Gates) lossFree(scope string, resends uint64, p99 int64) {
	timeout := live.DefaultConfig().Core.ResendTimeout
	g.check(resends == 0 && p99 < timeout.Microseconds(), scope+": loss-free", fmt.Sprintf("0 resends, p99 < %v", timeout),
		"%d resends, p99 %dµs", resends, p99)
}

// Err is the first failed check, nil when every check passed. A short
// run's timing-ratio checks are not judged.
func (g Gates) Err(short bool) error {
	for _, c := range g {
		if !c.Pass && !(short && c.FullSizeOnly) {
			return fmt.Errorf("%s: %s — want %s", c.Name, c.Observed, c.Threshold)
		}
	}
	return nil
}

// Envelope is the snapshot every suite writes: where and when the
// numbers were taken, every gate check with its observed value, then
// the suite's own result.
type Envelope struct {
	Suite      string `json:"suite"`
	Date       string `json:"date"`
	Short      bool   `json:"short"`
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Gates      Gates  `json:"gates"`
	Result     Result `json:"result"`
}

// NewEnvelope wraps res, judged, in the run's provenance.
func NewEnvelope(suite string, short bool, res Result) Envelope {
	commit, kernel := "unknown", runtime.GOOS
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(rel))
	}
	return Envelope{
		Suite:      suite,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Short:      short,
		Commit:     commit,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernel,
		Gates:      res.Gate(),
		Result:     res,
	}
}

// Write stores the envelope as indented JSON.
func (e Envelope) Write(path string) error {
	buf, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
