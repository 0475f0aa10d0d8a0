package main

import "repro/internal/tpch"

// workload is one traffic mix against one ring configuration. The ring
// sees only the generated columns and the SQL text; the seed feeds
// tpch.GenDB and the order of the slate.
type workload struct {
	name string
	// rows sizes lineitem; the other tables scale with it.
	rows int
	// cacheBytes is live.Config.CacheBytes, the per-node hot-set budget.
	cacheBytes int
	// slate is issued round-robin by every session.
	slate []string
	// warmup is the number of queries each session completes before the
	// window opens: enough to fill the hot set and the plan cache. It is
	// a count, not a time, so set-up time follows the system's speed.
	warmup int
	// checkEvery compares every cell of one result in checkEvery with
	// the reference; the shape (columns, rows) is checked on all of them.
	checkEvery int
}

const (
	bigRows   = 1 << 20 // 1,048,576 lineitem rows: 16 fragments of 64K per column
	smallRows = 3000    // sf 0.0005: every column is one small fragment

	wideSQL = `select l_orderkey, l_suppkey, l_extendedprice from lineitem where l_quantity < 25`
)

var workloads = []workload{
	{
		// 1M-row Q6 with the working set inside the 64 MB hot-set cache:
		// bat/mal kernels and live's fragment merge do the work, the
		// ring idles.
		name:       "hot_repeat",
		rows:       bigRows,
		cacheBytes: 64 << 20,
		slate:      []string{tpch.Q6ishSQL},
		warmup:     4,
		checkEvery: 1,
	},
	{
		// Same data and SQL with an 8 MB cache (working set 2.6x the
		// cache): pins block on circulation, so live hops, rdma wire,
		// core LOI and eviction dominate.
		name:       "ring_thrash",
		rows:       bigRows,
		cacheBytes: 8 << 20,
		slate:      []string{tpch.Q6ishSQL},
		// One query fills a cache this small, and a longer warm-up makes
		// setup_s a lottery: a session's second or third query on a fresh
		// ring sits out the 2 s resend timeout three times in four.
		warmup:     1,
		checkEvery: 1,
	},
	{
		// 3,000-row tables, Q6/Q1/Q3 round-robin: data work is
		// negligible, so per-query fixed cost in server, mal dispatch and
		// dcclient, and background circulation, is what is measured.
		name:       "point_storm",
		rows:       smallRows,
		cacheBytes: 64 << 20,
		slate:      []string{tpch.Q6ishSQL, tpch.Q1SQL, tpch.Q3ishSQL},
		warmup:     600,
		checkEvery: 1,
	},
	{
		// Hot ring, half-million-row 3-column projection (12 MB frame):
		// result materialisation, server.AppendResult, multi-MB socket
		// writes and decode.
		name:       "wide_result",
		rows:       bigRows,
		cacheBytes: 64 << 20,
		slate:      []string{wideSQL},
		warmup:     6,
		checkEvery: 16, // so that checking 12 MB frames does not become the load
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
