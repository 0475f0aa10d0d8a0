// Command dcload is a concurrent load driver for the Data Cyclotron
// query service: it fires N client sessions at a served ring, verifies
// every result against a per-query reference, and reports throughput,
// latency quantiles, and admission-control outcomes.
//
// Drive an external server (see cmd/dcserve):
//
//	dcload -addrs 127.0.0.1:4001,127.0.0.1:4002 -clients 64 -queries 2000
//
// Or let it stand up its own ring + server in-process (CI smoke mode):
//
//	dcload -selfserve -nodes 4 -clients 64 -queries 500
//
// With -metrics ADDR the in-process server also serves /metrics and
// /debug/pprof/ on ADDR, so the running ring can be profiled under load.
//
// It exits non-zero on any incorrect result or hard failure; admission
// rejections are expected under pressure and reported separately.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	dc "repro"
	"repro/internal/dcclient"
	"repro/internal/experiments"
	"repro/internal/tpch"
)

func main() {
	var (
		addrs     = flag.String("addrs", "", "comma-separated node addresses to load (alternative to -selfserve)")
		selfserve = flag.Bool("selfserve", false, "start an in-process ring + server and load that")
		nodes     = flag.Int("nodes", 4, "ring size (selfserve)")
		sf        = flag.Float64("sf", 0.0005, "TPC-H scale factor (selfserve)")
		seed      = flag.Int64("seed", 1, "data generator seed (selfserve)")
		inflight  = flag.Int("inflight", 8, "max in-flight queries per node (selfserve)")
		queue     = flag.Int("queue", 64, "max queued queries per node (selfserve)")
		metrics   = flag.String("metrics", "", "serve /metrics and /debug/pprof/ on this address (selfserve; port 0 = ephemeral)")
		clients   = flag.Int("clients", 64, "concurrent client sessions")
		queries   = flag.Int("queries", 2000, "total queries to fire")
		sql       = flag.String("q", "", "single SQL query (default: TPC-H demo mix)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-query timeout")
		hopstats  = flag.Bool("hopstats", false, "report hop-transport stats: messages, batch fill, parked fragments")
		replicas  = flag.Int("replicas", 0, "fragment replicas per owner, enables membership (selfserve)")
		hb        = flag.Duration("hb", 0, "heartbeat interval for the failure detector (selfserve, 0 = default)")
		kill      = flag.Duration("kill", 0, "kill one node this long into the run (selfserve failover drill)")
		killnode  = flag.Int("killnode", 1, "node to kill in -kill mode")
		memstats  = flag.Bool("memstats", false, "report membership stats: view, liveness, replicas, failovers")
		zipf      = flag.Float64("zipf", 0, "Zipf θ skew for query selection over the mix (0 = round-robin)")
	)
	flag.Parse()

	var (
		targets []string
		srv     *dc.QueryServer
	)
	switch {
	case *selfserve:
		served, err := startRing(*nodes, *sf, *seed, *inflight, *queue, *replicas, *hb, *metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcload:", err)
			os.Exit(1)
		}
		defer served.Close()
		srv = served.Srv
		targets = srv.Addrs()
		fmt.Printf("selfserve: %d-node ring over TPC-H sf=%g, inflight=%d queue=%d replicas=%d\n",
			*nodes, *sf, *inflight, *queue, *replicas)
		if a := srv.MetricsAddr(); a != "" {
			fmt.Printf("metrics: %s\n", a)
		}
	case *addrs != "":
		targets = strings.Split(*addrs, ",")
	default:
		fmt.Fprintln(os.Stderr, "dcload: need -addrs or -selfserve")
		os.Exit(1)
	}

	if *metrics != "" && srv == nil {
		fmt.Fprintln(os.Stderr, "dcload: -metrics needs -selfserve (an external server has its own)")
		os.Exit(1)
	}
	if *kill > 0 {
		if srv == nil {
			fmt.Fprintln(os.Stderr, "dcload: -kill needs -selfserve (an external server is not ours to kill)")
			os.Exit(1)
		}
		if *replicas <= 0 {
			fmt.Fprintln(os.Stderr, "dcload: -kill needs -replicas > 0 (no failover without replica copies)")
			os.Exit(1)
		}
		if *killnode < 0 || *killnode >= len(targets) {
			fmt.Fprintf(os.Stderr, "dcload: -killnode %d out of range for a %d-node ring\n", *killnode, len(targets))
			os.Exit(1)
		}
		s, victim := srv, *killnode
		killTimer := time.AfterFunc(*kill, func() {
			fmt.Printf("kill: node %d down at t=%s\n", victim, *kill)
			s.KillNode(victim)
		})
		defer killTimer.Stop()
	}

	mix := []string{tpch.Q6ishSQL, tpch.Q1SQL, tpch.Q3ishSQL}
	if *sql != "" {
		mix = []string{*sql}
	}

	// Sessions spread round-robin over the targets and the mix — or,
	// with -zipf, draw each query from a seeded Zipf(θ) so the load skews
	// onto a hot head. The first answer to each statement is its
	// reference; every later one must match it (zero-incorrect guarantee).
	res := experiments.StartLoad(experiments.LoadSpec{Targets: targets, Clients: *clients, Queries: *queries,
		Mix: mix, Zipf: *zipf, Seed: *seed, Timeout: *timeout}).Wait()

	fmt.Printf("\n%d clients x %d queries against %d node(s) in %.2fs\n%s",
		*clients, *queries, len(targets), res.Wall.Seconds(), res)
	if srv != nil {
		fmt.Println("\nper-node server stats:")
		for i := range targets {
			fmt.Printf("node %d: %s\n", i, srv.Stats(i))
		}
	}
	stats := fetchStats(targets)
	reportCache(stats, res.OK)
	if *hopstats {
		reportHop(stats)
	}
	if *memstats {
		reportMemb(stats)
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "dcload:", e)
	}
	if *kill > 0 {
		// Failover drill: correctness is absolute (a single wrong answer
		// fails the run), but a bounded number of hard failures is the
		// cost of killing a node under load — every client session may
		// lose at most the query it had in flight on the dead node.
		if res.Incorrect > 0 || res.OK == 0 || res.Failed > int64(*clients) {
			os.Exit(1)
		}
		return
	}
	if res.Failed > 0 || res.Incorrect > 0 || res.OK == 0 {
		os.Exit(1)
	}
}

// reportMemb prints the membership outcome of the run: view version,
// liveness counts, replica health, and how many failovers/promotions
// the ring performed.
func reportMemb(stats []dc.ServerNodeStats) {
	var ms dc.LiveMembershipStats
	for _, st := range stats {
		ms.Merge(st.Memb)
	}
	if !ms.Enabled {
		fmt.Println("\nmembership: disabled (replicas=0)")
		return
	}
	fmt.Printf("\nmembership: view v%d, %d alive / %d suspect / %d dead\n",
		ms.ViewVersion, ms.Alive, ms.Suspect, ms.Dead)
	fmt.Printf("replication: %d replica copies held, %d behind the catalog, %d lost\n",
		ms.Replicas, ms.ReplicaLag, ms.LostFrags)
	fmt.Printf("failover: %d failovers, %d promotions, beats %d sent / %d received\n",
		ms.Failovers, ms.Promotions, ms.BeatsSent, ms.BeatsRecv)
}

// reportCache prints the hot-set cache outcome of the run: how many
// pins were node-local reads versus ring waits, and the time spent
// blocked on circulation.
func reportCache(stats []dc.ServerNodeStats, completed int64) {
	var cs dc.LiveCacheStats
	for _, st := range stats {
		cs.Merge(st.Cache)
	}
	if cs.Hits+cs.Misses == 0 && cs.RingWaits == 0 {
		return
	}
	fmt.Printf("\nhot-set cache: hits=%d misses=%d (hit rate %.1f%%)\n",
		cs.Hits, cs.Misses, 100*cs.HitRate())
	ringWait := time.Duration(cs.RingWaitNanos)
	perQuery := time.Duration(0)
	if completed > 0 {
		perQuery = ringWait / time.Duration(completed)
	}
	fmt.Printf("ring wait: %d blocked pins, %s total (%s per completed query)\n",
		cs.RingWaits, ringWait, perQuery)
}

// reportHop prints the hop-transport outcome of the run: how many wire
// messages the ring's forwards cost versus how many fragments they
// carried (the batching win), the batch fill distribution, and how many
// fragments LOI pacing is holding parked at their owners.
func reportHop(stats []dc.ServerNodeStats) {
	var hs dc.LiveHopStats
	for _, st := range stats {
		hs.Merge(st.Hop)
	}
	if hs.Msgs == 0 {
		fmt.Println("\nhop transport: no data messages sent")
		return
	}
	fill := float64(hs.Frags) / float64(hs.Msgs)
	bytesPerMsg := hs.Bytes / hs.Msgs
	fmt.Printf("\nhop transport: %d messages carried %d fragments (fill %.2f): %d singles, %d batches\n",
		hs.Msgs, hs.Frags, fill, hs.Singles, hs.Batches)
	fmt.Printf("hop bytes: %d total, %d/msg mean, %d max message\n",
		hs.Bytes, bytesPerMsg, hs.MaxMsg)
	labels := [8]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", ">64"}
	var parts []string
	for i, c := range hs.Fill {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", labels[i], c))
		}
	}
	fmt.Printf("batch fill: %s\n", strings.Join(parts, " "))
	fmt.Printf("pacing: %d fragments parked now (%d parked / %d unparked total)\n",
		hs.Parked, hs.ParkedTotal, hs.Unparked)
	if hs.PoolWaits > 0 {
		fmt.Printf("link writes: %d waited for the write mutex / %d writes\n", hs.PoolWaits, hs.PoolAcquires)
	}
}

// fetchStats asks every target for its stats frame over the wire,
// skipping (with a note) the ones that do not answer, such as a node
// the failover drill killed.
func fetchStats(targets []string) []dc.ServerNodeStats {
	var stats []dc.ServerNodeStats
	for _, addr := range targets {
		var st dc.ServerNodeStats
		cl, err := dcclient.Dial(addr)
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			st, err = cl.Stats(ctx)
			cancel()
			cl.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcload: stats: skipping %s: %v\n", addr, err)
			continue
		}
		stats = append(stats, st)
	}
	return stats
}

func startRing(nodes int, sf float64, seed int64, inflight, queue, replicas int, hb time.Duration, metrics string) (*experiments.Served, error) {
	ringCfg := dc.DefaultLiveConfig()
	ringCfg.Replicas = replicas
	if hb > 0 {
		ringCfg.Heartbeat.HeartbeatInterval = hb
	}
	srvCfg := dc.DefaultServerConfig()
	srvCfg.MaxInFlight = inflight
	srvCfg.MaxQueue = queue
	srvCfg.MetricsAddr = metrics
	return experiments.ServeRing(nodes, tpch.GenDB(sf, seed), ringCfg, srvCfg)
}
