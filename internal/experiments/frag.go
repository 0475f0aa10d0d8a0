package experiments

// Fragment-granularity sweep: the live-ring rendition of the paper's §5
// granularity experiments. The unit of circulation is the fragment; its
// size trades hop latency and ring bandwidth against per-message
// overhead and hot-set flexibility. The sweep runs the same selective
// aggregate over the TPC-H ring at several FragmentRows settings
// (0 = fragmentation off, the pre-fragmentation behavior) and records
// query latency quantiles next to the ring's message sizing — the
// trade-off curve the paper sweeps, reproduced on real data movement.

import (
	"fmt"

	"repro/internal/live"
	"repro/internal/tpch"
)

// FragRun is one fragment-size setting of the sweep.
type FragRun struct {
	FragmentRows int    `json:"fragment_rows"` // 0 = off
	Fragments    int    `json:"fragments"`     // fragments of lineitem.l_shipdate
	RegionBytes  int    `json:"region_bytes"`  // ring message limit == RDMA region sizing
	MaxHopBytes  int64  `json:"max_hop_bytes"` // largest data message observed
	HopBytes     int64  `json:"hop_bytes"`     // total ring data traffic during the run
	Queries      int    `json:"queries"`
	P50Micros    int64  `json:"p50_us"`
	P99Micros    int64  `json:"p99_us"`
	Resends      uint64 `json:"resends"` // requests re-sent after ResendTimeout
}

// FragResult is the whole sweep.
type FragResult struct {
	LineitemRows int       `json:"lineitem_rows"`
	Nodes        int       `json:"nodes"`
	Runs         []FragRun `json:"runs"`
}

// FragOpts sizes the sweep.
type FragOpts struct {
	Rows, Nodes, Queries int   // lineitem rows, ring size, queries per setting
	FragRows             []int // FragmentRows settings; 0 = off, the baseline, goes first
}

// DefaultFragOpts is the full sweep.
func DefaultFragOpts() FragOpts {
	return FragOpts{Rows: 1 << 20, Nodes: 3, Queries: 24, FragRows: []int{0, 262144, 65536, 16384}}
}

// Short is the CI-sized sweep: 16- and 32-way splits, well past the 8×
// gate.
func (o FragOpts) Short() FragOpts {
	o.Rows, o.Queries, o.FragRows = 1<<17, 6, []int{0, 8192, 4096}
	return o
}

// FragmentSweep runs the granularity sweep: a TPC-H database with the
// given lineitem row count partitioned over a live ring of nodes, the
// Q6-style selective aggregate fired Queries times per setting, one
// ring per FragmentRows setting. The hot-set cache is off (circulate)
// and so is hop batching, which would coalesce the fragments back into
// large messages — that trade-off is the hop suite's; this sweep is its
// unbatched baseline.
func FragmentSweep(o FragOpts, seed int64) (*FragResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(o.Rows), seed)
	res := &FragResult{LineitemRows: db.Rows("lineitem"), Nodes: o.Nodes}
	for _, fr := range o.FragRows {
		cfg := live.DefaultConfig()
		cfg.FragmentRows = fr
		cfg.HopBatchBytes = 0
		c, err := circulate(db, o.Nodes, o.Queries, cfg)
		if err != nil {
			return nil, fmt.Errorf("fragment sweep (rows=%d): %w", fr, err)
		}
		// MaxHopBytes is structural: answering the queries required
		// every requested fragment to complete at least one hop, so the
		// largest message size has been observed.
		res.Runs = append(res.Runs, FragRun{
			FragmentRows: fr,
			Fragments:    c.fragments,
			RegionBytes:  c.region,
			MaxHopBytes:  c.hops.MaxMsg,
			HopBytes:     c.hops.Bytes,
			Queries:      len(c.lat),
			P50Micros:    quantile(c.lat, 0.50).Microseconds(),
			P99Micros:    quantile(c.lat, 0.99).Microseconds(),
			Resends:      c.resends,
		})
	}
	return res, nil
}

// Gate enforces the fragmentation invariants, so a fragmentation
// regression can never produce a quiet green run: the unfragmented
// baseline (FragmentRows 0) is one fragment; every fragmented setting
// splits the column into exactly ⌈rows/FragmentRows⌉ fragments under a
// smaller ring message limit, shrinks the largest ring message against
// the unfragmented rotation — at least 8× on a ≥8-way split — and never
// resends or stalls a query for the resend timeout.
func (r *FragResult) Gate() Gates {
	var g Gates
	var base *FragRun
	for i := range r.Runs {
		run := &r.Runs[i]
		scope := "FragmentRows=" + offOr(run.FragmentRows)
		g.latencies(scope, run.Queries, run.P50Micros, run.P99Micros)
		if run.FragmentRows == 0 {
			// Not held to lossFree: a revolution of whole 8 MB columns
			// can outlast the resend timer with the BAT still in flight.
			base = run
			g.check(run.Fragments == 1, scope+": fragments", "1", "%d", run.Fragments)
			continue
		}
		g.lossFree(scope, run.Resends, run.P99Micros)
		want := (r.LineitemRows + run.FragmentRows - 1) / run.FragmentRows
		g.check(run.Fragments == want, scope+": fragments", fmt.Sprint(want), "%d", run.Fragments)
		if base == nil {
			continue
		}
		g.check(run.RegionBytes < base.RegionBytes, scope+": region bytes", "below unfragmented",
			"%d vs unfragmented %d", run.RegionBytes, base.RegionBytes)
		need, threshold := int64(1), "below unfragmented"
		if want >= 8 {
			need, threshold = 8, "≥8× reduction"
		}
		g.check(run.MaxHopBytes*need <= base.MaxHopBytes && run.MaxHopBytes < base.MaxHopBytes, scope+": max hop", threshold,
			"%d vs unfragmented %d", run.MaxHopBytes, base.MaxHopBytes)
	}
	return g
}

func (r *FragResult) String() string {
	var rows [][]any
	for _, run := range r.Runs {
		rows = append(rows, []any{offOr(run.FragmentRows), run.Fragments, run.RegionBytes,
			run.MaxHopBytes, run.HopBytes, run.P50Micros, run.P99Micros, run.Resends})
	}
	return table(fmt.Sprintf("Fragment granularity sweep — lineitem %d rows over %d nodes", r.LineitemRows, r.Nodes),
		[]string{"frag_rows", "fragments", "region_B", "max_hop_B", "hop_B", "p50_us", "p99_us", "resends"}, rows)
}
