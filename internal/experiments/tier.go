package experiments

// Hot/cold tier sweep: the measurement behind the routed multi-ring
// runtime. One wide ring forces every fragment to share a revolution
// time; the two-tier runtime gives the Zipf head a small fast ring and
// leaves the tail on the wide cold one, migrating fragments as their
// observed interest crosses the thresholds. The sweep runs the same
// seeded Zipf access stream against a single-ring baseline and the
// tiered runtime and records:
//
//   - correctness: every fetched column is checksummed against the
//     generator (zero incorrect answers, whichever tier served it);
//   - latency: p50/p99 over the stream, and for the tiered run the
//     split between accesses that found their column hot-homed versus
//     cold-homed;
//   - the tiers themselves: measured revolution time per ring, the
//     migration counters, and residency;
//   - the flash-crowd path: after the stream, a column reserved outside
//     the Zipf key space (so still cold) is hit with a burst and the
//     wall-clock from the burst's first
//     access to the observed home flip is compared against one cold
//     revolution (the promotion must land before the cold ring could
//     even bring the fragment around).
//
// Gate() turns the three contracts into checks.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bat"
	"repro/internal/live"
	"repro/internal/workload"
)

// TierOpts sizes the sweep.
type TierOpts struct {
	Columns  int               // distinct columns (the Zipf key space)
	Rows     int               // rows per column (single-fragment sized)
	Accesses int               // fetches in the measured stream
	Theta    float64           // Zipf skew
	Router   live.RouterConfig // tiered topology
}

// DefaultTierOpts is the full sweep; Short shrinks it to CI size.
func DefaultTierOpts() TierOpts {
	return TierOpts{
		Columns:  24,
		Rows:     8 << 10,
		Accesses: 600,
		Theta:    1.1,
		Router:   live.DefaultRouterConfig(),
	}
}

// Short returns the CI-sized variant of o.
func (o TierOpts) Short() TierOpts {
	o.Columns = 10
	o.Rows = 2 << 10
	o.Accesses = 220
	o.Router.TierScan = 25 * time.Millisecond
	return o
}

// TierRun is one side of the comparison.
type TierRun struct {
	Label     string `json:"label"`
	Accesses  int    `json:"accesses"`
	Incorrect int    `json:"incorrect"`
	P50Micros int64  `json:"p50_us"`
	P99Micros int64  `json:"p99_us"`
	// Tiered run only: the latency split by the column's home ring at
	// fetch time.
	HotServed     int   `json:"hot_served,omitempty"`
	HotP50Micros  int64 `json:"hot_p50_us,omitempty"`
	ColdP50Micros int64 `json:"cold_p50_us,omitempty"`
}

// TierResult is the whole sweep.
type TierResult struct {
	Columns  int     `json:"columns"`
	Rows     int     `json:"rows"`
	Theta    float64 `json:"theta"`
	Accesses int     `json:"accesses"`

	Baseline TierRun        `json:"baseline"`
	Tiered   TierRun        `json:"tiered"`
	Stats    live.TierStats `json:"tier_stats"`

	// Flash-crowd probe: wall-clock from the burst's first access to
	// the observed cold→hot home flip, against the one-cold-revolution
	// bound (the measured cold revolution when available, else the cold
	// fetch p99 as a conservative proxy — a cold fetch waits for at
	// most one revolution).
	FlashPromoteMicros int64 `json:"flash_promote_us"`
	FlashBoundMicros   int64 `json:"flash_bound_us"`
	ColdRevMeasured    bool  `json:"cold_rev_measured"`
	FlashProbed        bool  `json:"flash_probed"`
}

// tierColName names column k (every column is its own single-fragment
// table entry).
func tierColName(k int) string { return fmt.Sprintf("t.c%03d", k) }

// tierColumns builds the dataset and its per-column checksums.
func tierColumns(cols, rows int, seed int64) (map[string]*bat.BAT, []int64) {
	rng := rand.New(rand.NewSource(seed))
	columns := make(map[string]*bat.BAT, cols)
	sums := make([]int64, cols)
	for k := 0; k < cols; k++ {
		vals := make([]int64, rows)
		var sum int64
		for i := range vals {
			vals[i] = rng.Int63n(1 << 20)
			sum += vals[i]
		}
		columns[tierColName(k)] = bat.MakeInts("c", vals)
		sums[k] = sum
	}
	return columns, sums
}

// TierSweep runs the baseline-versus-tiered comparison and the
// flash-crowd probe; seed fixes both the dataset and the access stream.
func TierSweep(o TierOpts, seed int64) (*TierResult, error) {
	if o.Columns < 2 || o.Rows < 1 || o.Accesses < 1 {
		return nil, fmt.Errorf("tier sweep: bad sizes %+v", o)
	}
	res := &TierResult{
		Columns:  o.Columns,
		Rows:     o.Rows,
		Theta:    o.Theta,
		Accesses: o.Accesses,
	}

	// Baseline: one standalone ring in the cold ring's configuration and
	// at the cold ring's node count — the wide capacity ring every
	// fragment shares when there is no hot tier. (A cache big enough to
	// swallow the whole dataset would hide exactly the constraint the
	// tiering addresses.) Both sides carry one column beyond the Zipf
	// key space, which the stream never touches: the flash probe's
	// victim, cold by construction.
	columns, sums := tierColumns(o.Columns+1, o.Rows, seed)
	ring, err := live.NewRing(o.Router.ColdNodes, columns, nil, o.Router.Cold)
	if err != nil {
		return nil, err
	}
	run, _, err := tierStream("single-ring", ring.Node(0).Fetch, nil, o, seed, sums)
	ring.Close()
	if err != nil {
		return nil, err
	}
	res.Baseline = run

	// Tiered: the same dataset and the same seeded access stream
	// against the two-tier runtime.
	columns, sums = tierColumns(o.Columns+1, o.Rows, seed)
	rtr, err := live.NewRouter(columns, nil, o.Router)
	if err != nil {
		return nil, err
	}
	defer rtr.Close()
	run, coldP99, err := tierStream("tiered", rtr.Fetch, rtr, o, seed, sums)
	if err != nil {
		return nil, err
	}
	res.Tiered = run

	// The flash-crowd probe, before reading the final stats.
	if err := tierFlashProbe(rtr, o, sums, res); err != nil {
		return nil, err
	}
	res.Stats = rtr.TierStats()
	if res.Stats.ColdRevolutionMicros > 0 {
		res.FlashBoundMicros = res.Stats.ColdRevolutionMicros
		res.ColdRevMeasured = true
	} else {
		res.FlashBoundMicros = coldP99
	}
	return res, nil
}

// tierStream fires the seeded Zipf access stream through fetch,
// checksumming every answer. It returns the run and the p99 of the
// accesses that found their column cold-homed (the revolution proxy
// the flash bound falls back to); rtr is nil for the single-ring
// baseline, where every access is cold-homed.
func tierStream(label string, fetch func(string) (*bat.BAT, error), rtr *live.Router, o TierOpts, seed int64, sums []int64) (TierRun, int64, error) {
	z := workload.NewZipf(o.Columns, o.Theta)
	rng := rand.New(rand.NewSource(seed + 1))
	run := TierRun{Label: label, Accesses: o.Accesses}
	var all, hotLat, coldLat []time.Duration
	for i := 0; i < o.Accesses; i++ {
		k := z.Draw(rng)
		hot := false
		if rtr != nil {
			if homes, ok := rtr.Homes(tierColName(k)); ok && homes[0] == live.HotRing {
				hot = true
			}
		}
		start := time.Now()
		b, err := fetch(tierColName(k))
		lat := time.Since(start)
		if err != nil {
			return run, 0, fmt.Errorf("%s: fetch %s: %w", label, tierColName(k), err)
		}
		var sum int64
		for j := 0; j < b.Len(); j++ {
			sum += b.Tail().Int(j)
		}
		if sum != sums[k] || b.Len() != o.Rows {
			run.Incorrect++
		}
		all = append(all, lat)
		if hot {
			hotLat = append(hotLat, lat)
		} else {
			coldLat = append(coldLat, lat)
		}
	}
	run.P50Micros = quantile(all, 0.50).Microseconds()
	run.P99Micros = quantile(all, 0.99).Microseconds()
	if rtr != nil {
		run.HotServed = len(hotLat)
		run.HotP50Micros = quantile(hotLat, 0.50).Microseconds()
		run.ColdP50Micros = quantile(coldLat, 0.50).Microseconds()
	}
	return run, quantile(coldLat, 0.99).Microseconds(), nil
}

// tierFlashProbe hits the reserved column (index o.Columns, which the
// Zipf stream never draws, so it is still cold) with a burst past
// FlashCrowdHits, and clocks the cold→hot home flip.
func tierFlashProbe(rtr *live.Router, o TierOpts, sums []int64, res *TierResult) error {
	victim := o.Columns
	name := tierColName(victim)
	// The trigger counts accesses inside one tier-scan window, and a
	// scan may tick mid-burst: 2·hits−1 accesses leave a full crowd on
	// one side of any single tick (a burst of exactly hits that
	// straddled one never promoted — 1 run in 5 under `go test ./...`).
	burst := 2*o.Router.FlashCrowdHits - 1
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := rtr.Fetch(name)
			if err != nil {
				errs[i] = err
				return
			}
			var sum int64
			for j := 0; j < b.Len(); j++ {
				sum += b.Tail().Int(j)
			}
			if sum != sums[victim] {
				errs[i] = fmt.Errorf("flash probe: bad checksum for %s", name)
			}
		}(i)
	}
	// The flip is what the flash path promises within one cold
	// revolution; poll for it while the burst drains.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if homes, ok := rtr.Homes(name); ok && homes[0] == live.HotRing {
			res.FlashPromoteMicros = time.Since(start).Microseconds()
			res.FlashProbed = true
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if !res.FlashProbed {
		return fmt.Errorf("flash probe: %s never promoted (burst %d)", name, burst)
	}
	return nil
}

// Gate enforces the tier contracts:
//
//	(a) zero incorrect answers on both sides;
//	(b) the hot ring revolves measurably faster than the cold one
//	    (falling back to the hot/cold latency split when a revolution
//	    went unmeasured) — a timing ratio, judged at full size;
//	(c) the flash-crowd promotion landed within one cold revolution.
func (r *TierResult) Gate() Gates {
	var g Gates
	g.check(r.Baseline.Incorrect+r.Tiered.Incorrect == 0, "incorrect answers", "0",
		"%d single-ring, %d tiered", r.Baseline.Incorrect, r.Tiered.Incorrect)
	hot, cold := r.Stats.HotRevolutionMicros, r.Stats.ColdRevolutionMicros
	switch {
	case hot > 0 && cold > 0:
		g.timing(hot < cold, "hot revolution", "below cold", "hot %dus vs cold %dus", hot, cold)
	case r.Tiered.HotServed > 0 && r.Tiered.ColdP50Micros > 0:
		g.timing(r.Tiered.HotP50Micros < r.Tiered.ColdP50Micros, "hot-homed p50 (revolutions unmeasured)", "below cold-homed p50",
			"hot %dus vs cold %dus", r.Tiered.HotP50Micros, r.Tiered.ColdP50Micros)
	default:
		g.check(false, "hot-versus-cold evidence", "measured revolutions or a hot/cold latency split",
			"hot rev %dus, cold rev %dus, hot served %d", hot, cold, r.Tiered.HotServed)
	}
	g.check(r.FlashProbed && (r.FlashBoundMicros <= 0 || r.FlashPromoteMicros <= r.FlashBoundMicros), "flash promotion",
		"probed, within one cold revolution", "probed=%v, %dus vs bound %dus", r.FlashProbed, r.FlashPromoteMicros, r.FlashBoundMicros)
	return g
}

func (r *TierResult) String() string {
	var rows [][]any
	for _, run := range []TierRun{r.Baseline, r.Tiered} {
		rows = append(rows, []any{run.Label, run.P50Micros, run.P99Micros, run.Incorrect,
			run.HotServed, run.HotP50Micros, run.ColdP50Micros})
	}
	s, bound := r.Stats, "cold p99 proxy"
	if r.ColdRevMeasured {
		bound = "measured cold revolution"
	}
	return table(fmt.Sprintf("Hot/cold tier sweep — %d columns x %d rows, Zipf θ=%.2f, %d accesses",
		r.Columns, r.Rows, r.Theta, r.Accesses),
		[]string{"run", "p50_us", "p99_us", "incorrect", "hot_served", "hot_p50us", "cold_p50us"}, rows) +
		fmt.Sprintf("tiers: %d hot / %d cold resident; %d promotions (%d flash), %d demotions, %d remote fetches\n",
			s.HotResident, s.ColdResident, s.Promotions, s.FlashPromotions, s.Demotions, s.RemoteFetches) +
		fmt.Sprintf("revolutions: hot %dus, cold %dus\n", s.HotRevolutionMicros, s.ColdRevolutionMicros) +
		fmt.Sprintf("flash crowd: promoted in %dus (bound %dus, %s)\n", r.FlashPromoteMicros, r.FlashBoundMicros, bound)
}
