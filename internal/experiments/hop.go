package experiments

// Hop-batching sweep: the live-ring measurement behind the batched hop
// transport. Fragmentation (the granularity sweep, frag.go) bought
// small flexible circulation units, but paid for them in wire messages:
// every fragment forward is one messenger send. The hop scheduler
// coalesces co-resident outbound fragments into one batch envelope per
// neighbour hop, putting the interconnect back in the few-large-
// transfers regime the paper's RDMA ring assumes — without giving up
// fragment granularity at the runtime layer. The sweep runs the same
// selective aggregate over the fragmented TPC-H ring at several
// HopBatchBytes budgets (0 = batching off, the byte-identical
// pre-batching ring, directly comparable to frag.go's runs) and records
// hop-message counts, batch fill, and query latency quantiles: the
// messages-vs-latency trade the batching claims to win.

import (
	"fmt"

	"repro/internal/live"
	"repro/internal/tpch"
)

// HopRun is one HopBatchBytes setting of the sweep.
type HopRun struct {
	HopBatchBytes int      `json:"hop_batch_bytes"` // 0 = batching off
	Fragments     int      `json:"fragments"`       // fragments of lineitem.l_shipdate
	Msgs          int64    `json:"hop_msgs"`        // data wire messages sent
	Singles       int64    `json:"hop_singles"`     // one-fragment messages
	Batches       int64    `json:"hop_batches"`     // multi-fragment envelopes
	Frags         int64    `json:"hop_frags"`       // fragments forwarded
	MeanFill      float64  `json:"mean_fill"`       // Frags / Msgs
	Fill          [8]int64 `json:"fill_hist"`       // 1,2,3-4,...,33-64,>64
	HopBytes      int64    `json:"hop_bytes"`       // total ring data traffic
	MaxMsg        int64    `json:"max_msg_bytes"`   // largest data message
	ParkedTotal   int64    `json:"parked_total"`    // LOI-pacing park events
	Unparked      int64    `json:"unparked"`        // re-admissions on interest
	PoolWaits     int64    `json:"pool_waits"`      // sends that waited for a send-queue slot
	Queries       int      `json:"queries"`
	P50Micros     int64    `json:"p50_us"`
	P99Micros     int64    `json:"p99_us"`
	Resends       uint64   `json:"resends"` // requests re-sent after ResendTimeout
}

// HopResult is the whole sweep.
type HopResult struct {
	LineitemRows int      `json:"lineitem_rows"`
	Nodes        int      `json:"nodes"`
	FragmentRows int      `json:"fragment_rows"`
	Runs         []HopRun `json:"runs"`
}

// HopOpts sizes the sweep.
type HopOpts struct {
	Rows, Nodes, Queries int   // lineitem rows, ring size, queries per setting
	FragRows             int   // FragmentRows of the fragmented column
	Budgets              []int // HopBatchBytes settings; 0 = off, the baseline, goes first
}

// DefaultHopOpts is the full sweep: 1M rows / 16384 = 64 fragments.
func DefaultHopOpts() HopOpts {
	return HopOpts{Rows: 1 << 20, Nodes: 3, Queries: 24, FragRows: 16384, Budgets: []int{0, 1 << 20}}
}

// Short is the CI-sized sweep: a 64-way split at 128K rows, the same
// fill regime as the full run.
func (o HopOpts) Short() HopOpts {
	o.Rows, o.Queries, o.FragRows = 1<<17, 6, 2048
	return o
}

// HopSweep runs the hop-batching sweep: a TPC-H database with the given
// lineitem row count partitioned over a live ring of nodes at a fixed
// fragment granularity, the Q6-style selective aggregate fired Queries
// times per HopBatchBytes setting, one cache-less ring per setting so
// every run's counters start at zero (budget 0 reproduces the
// granularity sweep's circulation byte for byte).
func HopSweep(o HopOpts, seed int64) (*HopResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(o.Rows), seed)
	res := &HopResult{LineitemRows: db.Rows("lineitem"), Nodes: o.Nodes, FragmentRows: o.FragRows}
	for _, budget := range o.Budgets {
		cfg := live.DefaultConfig()
		cfg.FragmentRows = o.FragRows
		cfg.HopBatchBytes = budget
		c, err := circulate(db, o.Nodes, o.Queries, cfg)
		if err != nil {
			return nil, fmt.Errorf("hop sweep (batch=%d): %w", budget, err)
		}
		hs := c.hops
		fill := 0.0
		if hs.Msgs > 0 {
			fill = float64(hs.Frags) / float64(hs.Msgs)
		}
		res.Runs = append(res.Runs, HopRun{
			HopBatchBytes: budget,
			Fragments:     c.fragments,
			Msgs:          hs.Msgs,
			Singles:       hs.Singles,
			Batches:       hs.Batches,
			Frags:         hs.Frags,
			MeanFill:      fill,
			Fill:          hs.Fill,
			HopBytes:      hs.Bytes,
			MaxMsg:        hs.MaxMsg,
			ParkedTotal:   hs.ParkedTotal,
			Unparked:      hs.Unparked,
			PoolWaits:     hs.PoolWaits,
			Queries:       len(c.lat),
			P50Micros:     quantile(c.lat, 0.50).Microseconds(),
			P99Micros:     quantile(c.lat, 0.99).Microseconds(),
			Resends:       c.resends,
		})
	}
	return res, nil
}

// hopGateRatio is the hop-message reduction floor a batched run must
// clear against the unbatched baseline.
const hopGateRatio = 4

// Gate enforces the batching invariants, so a batching regression can
// never produce a quiet green run: the unbatched baseline
// (HopBatchBytes 0) sends all singles, one fragment per message; every
// batched setting fills multi-fragment envelopes (a populated fill
// histogram that accounts for every batch, mean fill above 1) and cuts
// hop wire messages at least 4× against the baseline on the same
// workload.
func (r *HopResult) Gate() Gates {
	var g Gates
	var base *HopRun
	for i := range r.Runs {
		run := &r.Runs[i]
		scope := "HopBatchBytes=" + offOr(run.HopBatchBytes)
		g.latencies(scope, run.Queries, run.P50Micros, run.P99Micros)
		g.lossFree(scope, run.Resends, run.P99Micros)
		g.check(run.Fragments > 1, scope+": fragments", "> 1", "%d", run.Fragments)
		if run.HopBatchBytes == 0 {
			base = run
			g.check(run.Batches == 0 && run.Singles == run.Msgs && run.Msgs == run.Frags, scope+": all singles",
				"0 batches, singles = msgs = frags", "%d batches, %d singles, %d msgs, %d frags",
				run.Batches, run.Singles, run.Msgs, run.Frags)
			continue
		}
		var multi int64
		for _, n := range run.Fill[1:] {
			multi += n
		}
		g.check(run.Batches > 0 && multi == run.Batches && run.Frags > run.Msgs, scope+": multi-fragment fill",
			"batches > 0, all in the fill histogram, frags > msgs", "%d batches, histogram %v, %d frags over %d msgs",
			run.Batches, run.Fill, run.Frags, run.Msgs)
		if base != nil {
			g.check(run.Msgs*hopGateRatio <= base.Msgs, scope+": hop messages", fmt.Sprintf("≥%d× reduction", hopGateRatio),
				"%d vs unbatched %d", run.Msgs, base.Msgs)
		}
	}
	return g
}

func (r *HopResult) String() string {
	var rows [][]any
	for _, run := range r.Runs {
		rows = append(rows, []any{offOr(run.HopBatchBytes), run.Msgs, run.Frags, fmt.Sprintf("%.2f", run.MeanFill),
			run.ParkedTotal, run.HopBytes, run.MaxMsg, run.P50Micros, run.P99Micros, run.Resends})
	}
	return table(fmt.Sprintf("Hop batching sweep — lineitem %d rows over %d nodes, %d-row fragments",
		r.LineitemRows, r.Nodes, r.FragmentRows),
		[]string{"batch_bytes", "hop_msgs", "hop_frags", "fill", "parked", "hop_B", "max_msg_B", "p50_us", "p99_us", "resends"}, rows)
}
