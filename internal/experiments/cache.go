package experiments

// Hot-set cache repeat-query sweep: the live-ring measurement behind
// the cache's reason to exist. The paper keeps hot data flowing so a
// query meets it in flight; the dual optimisation is that a node that
// just saw a fragment should not wait a full revolution to see it
// again. The sweep runs an identical repeat workload over the TPC-H
// ring at several CacheBytes settings (0 = cache off, the
// pure-circulation behavior) and records:
//
//   - pin latency: repeated whole pins of a fully-hot single-fragment
//     probe column owned by another node — pure ring wait versus pure
//     node-local read, no merge cost mixed in;
//   - query latency: the Q6-style selective aggregate repeated against
//     the fragmented lineitem columns;
//   - the cache's own accounting (hit rate, ring-wait time) and the
//     ring traffic the repeat phase caused — with the cache on and the
//     set fully hot, circulation stops entirely.
//
// The repeats are spaced by a think time: intermittent re-reads are
// exactly the access pattern where pure circulation keeps paying ring
// latency for bytes the node already held.

import (
	"fmt"
	"time"

	"repro/internal/bat"
	"repro/internal/live"
	"repro/internal/tpch"
)

// CacheRun is one CacheBytes setting of the sweep.
type CacheRun struct {
	CacheBytes     int     `json:"cache_bytes"` // 0 = cache off
	PinP50Micros   int64   `json:"pin_p50_us"`
	PinP99Micros   int64   `json:"pin_p99_us"`
	QueryP50Micros int64   `json:"query_p50_us"`
	QueryP99Micros int64   `json:"query_p99_us"`
	Hits           int64   `json:"cache_hits"`
	Misses         int64   `json:"cache_misses"`
	HitRate        float64 `json:"hit_rate"`
	RingWaitMicros int64   `json:"ring_wait_us"`     // total time pins blocked on circulation
	RepeatHopBytes int64   `json:"repeat_hop_bytes"` // ring data traffic during the repeat phases
	Resends        uint64  `json:"resends"`          // requests re-sent after ResendTimeout
}

// CacheResult is the whole sweep.
type CacheResult struct {
	LineitemRows int        `json:"lineitem_rows"`
	Nodes        int        `json:"nodes"`
	Repeats      int        `json:"repeats"`
	ThinkMicros  int64      `json:"think_us"`
	Runs         []CacheRun `json:"runs"`
}

// probeRows sizes the single-fragment probe column (published by node
// 0, pinned from node 1): big enough that a ring delivery is real work,
// small enough to stay far under any ring message limit.
const probeRows = 32 << 10

// CacheOpts sizes the sweep.
type CacheOpts struct {
	Rows, Nodes, Repeats int           // lineitem rows, ring size, repeat pins/queries per setting
	Think                time.Duration // pause between repeats (the intermittent re-read pattern)
	Budgets              []int         // CacheBytes settings; 0 = off, the baseline, goes first
}

// DefaultCacheOpts is the full sweep.
func DefaultCacheOpts() CacheOpts {
	return CacheOpts{Rows: 1 << 20, Nodes: 3, Repeats: 160, Think: 8 * time.Millisecond, Budgets: []int{0, 64 << 20}}
}

// Short is the CI-sized sweep.
func (o CacheOpts) Short() CacheOpts {
	o.Rows, o.Repeats, o.Think = 1<<17, 25, 2*time.Millisecond
	return o
}

// CacheSweep runs the repeat-query sweep: a TPC-H database with the
// given lineitem row count partitioned over a live ring of nodes, the
// repeat workload fired at each CacheBytes setting, one ring per
// setting so every run starts cold.
func CacheSweep(o CacheOpts, seed int64) (*CacheResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(o.Rows), seed)
	res := &CacheResult{
		LineitemRows: db.Rows("lineitem"),
		Nodes:        o.Nodes,
		Repeats:      o.Repeats,
		ThinkMicros:  o.Think.Microseconds(),
	}
	for _, budget := range o.Budgets {
		run, err := cacheRun(db, o.Nodes, o.Repeats, o.Think, budget)
		if err != nil {
			return nil, fmt.Errorf("cache sweep (bytes=%d): %w", budget, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

func cacheRun(db *tpch.DB, nodes, repeats int, think time.Duration, budget int) (CacheRun, error) {
	cfg := live.DefaultConfig()
	cfg.CacheBytes = budget
	ring, err := live.NewRing(nodes, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		return CacheRun{}, err
	}
	defer ring.Close()

	// The probe: a single-fragment intermediate owned by node 0, pinned
	// repeatedly from node 1 — every pin crosses the ring unless the
	// cache serves it.
	vals := make([]int64, probeRows)
	for i := range vals {
		vals[i] = int64(i)
	}
	if _, err := ring.Node(0).Publish("hot.probe", bat.MakeInts("probe", vals)); err != nil {
		return CacheRun{}, err
	}
	reader := ring.Node(1)

	// Warm: one pin and one query so code paths and (when enabled) the
	// cache are primed before measuring.
	if _, err := reader.Fetch("hot.probe"); err != nil {
		return CacheRun{}, err
	}
	if rs, err := reader.ExecSQL(tpch.Q6ishSQL); err != nil {
		return CacheRun{}, err
	} else if rs.NumRows() != 1 {
		return CacheRun{}, fmt.Errorf("bad warmup result: %d rows", rs.NumRows())
	}
	hopsBefore := settleHopBytes(ring)

	pinLat := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		time.Sleep(think)
		start := time.Now()
		b, err := reader.Fetch("hot.probe")
		if err != nil {
			return CacheRun{}, err
		}
		if b.Len() != probeRows {
			return CacheRun{}, fmt.Errorf("probe pin returned %d rows, want %d", b.Len(), probeRows)
		}
		pinLat = append(pinLat, time.Since(start))
	}

	queryLat := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		time.Sleep(think)
		start := time.Now()
		rs, err := reader.ExecSQL(tpch.Q6ishSQL)
		if err != nil {
			return CacheRun{}, err
		}
		if rs.NumRows() != 1 {
			return CacheRun{}, fmt.Errorf("bad result: %d rows", rs.NumRows())
		}
		queryLat = append(queryLat, time.Since(start))
	}
	hopsAfter := settleHopBytes(ring)

	cs := ring.CacheStats()
	return CacheRun{
		CacheBytes:     budget,
		PinP50Micros:   quantile(pinLat, 0.50).Microseconds(),
		PinP99Micros:   quantile(pinLat, 0.99).Microseconds(),
		QueryP50Micros: quantile(queryLat, 0.50).Microseconds(),
		QueryP99Micros: quantile(queryLat, 0.99).Microseconds(),
		Hits:           cs.Hits,
		Misses:         cs.Misses,
		HitRate:        cs.HitRate(),
		RingWaitMicros: cs.RingWaitNanos / 1e3,
		RepeatHopBytes: hopsAfter - hopsBefore,
		Resends:        ringResends(ring),
	}, nil
}

// quietRingBytes bounds the ring traffic of a repeat phase served from
// the cache: under two default-size fragments, over hundreds of reads.
// Cache hits are not ring interest, so the fragments park and the true
// figure is zero; the slack covers a parking tail the settle missed.
const quietRingBytes = 1 << 20

// Gate enforces the cache invariants, so a cache regression can never
// produce a quiet green run: no setting resends on the lossless ring;
// the cache-off baseline hits nothing and blocks on circulation; with
// the cache on, the repeat workload hits it (hit rate > 0), a fully-hot
// repeated pin is at least 5× faster at the 99th percentile than a
// healthy ring wait (the baseline's p99 is a few revolutions, no longer
// the resend timer; a timing ratio, judged at full size only), and the
// ring goes quiet under the repeat phase —
// node-local reads, not faster ring waits.
func (r *CacheResult) Gate() Gates {
	var g Gates
	var off *CacheRun
	for i := range r.Runs {
		run := &r.Runs[i]
		scope := "CacheBytes=" + offOr(run.CacheBytes)
		g.latencies(scope, r.Repeats, run.QueryP50Micros, run.QueryP99Micros)
		g.check(run.PinP50Micros >= 0 && run.PinP99Micros >= run.PinP50Micros, scope+": pin quantiles", "0 ≤ p50 ≤ p99",
			"p50 %dµs, p99 %dµs", run.PinP50Micros, run.PinP99Micros)
		g.lossFree(scope, run.Resends, max(run.PinP99Micros, run.QueryP99Micros))
		if run.CacheBytes == 0 {
			off = run
			g.check(run.Hits == 0 && run.HitRate == 0, scope+": cache hits", "0", "%d", run.Hits)
			g.check(run.RingWaitMicros > 0, scope+": ring wait", "> 0", "%dµs", run.RingWaitMicros)
			continue
		}
		g.check(run.Hits > 0, scope+": cache hits", "> 0", "%d", run.Hits)
		if off == nil {
			continue
		}
		g.timing(run.PinP99Micros*5 <= off.PinP99Micros, scope+": pin p99", "≥5× reduction",
			"%dµs vs cache-off %dµs", run.PinP99Micros, off.PinP99Micros)
		g.check(run.RepeatHopBytes <= quietRingBytes, scope+": repeat-phase ring traffic", fmt.Sprintf("≤ %dB", quietRingBytes),
			"%dB (cache-off %dB)", run.RepeatHopBytes, off.RepeatHopBytes)
	}
	return g
}

func (r *CacheResult) String() string {
	var rows [][]any
	for _, run := range r.Runs {
		rows = append(rows, []any{offOr(run.CacheBytes), run.PinP50Micros, run.PinP99Micros,
			run.QueryP50Micros, run.QueryP99Micros, fmt.Sprintf("%.1f%%", 100*run.HitRate),
			run.RingWaitMicros, run.RepeatHopBytes, run.Resends})
	}
	return table(fmt.Sprintf("Hot-set cache repeat sweep — lineitem %d rows over %d nodes, %d repeats, %dµs think",
		r.LineitemRows, r.Nodes, r.Repeats, r.ThinkMicros),
		[]string{"cache_bytes", "pin_p50us", "pin_p99us", "query_p50us", "query_p99us",
			"hit_rate", "ringwait_us", "repeat_hop_B", "resends"}, rows)
}
