package experiments

// Kill-and-recover sweep: the end-to-end measurement behind the elastic
// membership layer. A replicated ring is served over the network query
// service, concurrent clients hammer it through dcclient, and one node
// is killed mid-run. The sweep records what the membership layer
// promises: zero incorrect answers (every post-kill result fingerprints
// identically to the pre-kill reference), every fragment re-owned from
// its replica, and recovery bounded by a small multiple of the failure
// detector's death timeout. Unlike the unit tests, the whole path is
// exercised through TCP — detection, promotion, ring splice, client
// failover onto survivors — so the recorded times are what an
// application would actually observe.

import (
	"fmt"
	"time"

	"repro/internal/membership"
	"repro/internal/tpch"
)

// FailoverRun is one ring size of the kill-and-recover sweep.
type FailoverRun struct {
	Nodes         int   `json:"nodes"`
	Victim        int   `json:"victim"`
	Replicas      int   `json:"replicas"`
	HeartbeatMs   int64 `json:"heartbeat_ms"`
	DeadTimeoutMs int64 `json:"dead_timeout_ms"`
	OK            int64 `json:"ok"`
	Rejected      int64 `json:"rejected"`    // admission rejections (IsTemporary)
	Failed        int64 `json:"failed"`      // hard query failures
	Incorrect     int64 `json:"incorrect"`   // fingerprint mismatches vs reference
	DetectMs      int64 `json:"detect_ms"`   // kill → death declared on a survivor
	ReownMs       int64 `json:"reown_ms"`    // kill → every fragment re-owned
	FirstOKMs     int64 `json:"first_ok_ms"` // kill → first fully post-kill correct answer
	Reowned       bool  `json:"reowned"`
	Failovers     int64 `json:"failovers"`
	Promotions    int64 `json:"promotions"`
	LostFrags     int64 `json:"lost_frags"`
	P50Micros     int64 `json:"p50_us"`
	P99Micros     int64 `json:"p99_us"`
}

// FailoverResult is the whole sweep.
type FailoverResult struct {
	LineitemRows int           `json:"lineitem_rows"`
	Clients      int           `json:"clients"`
	Queries      int           `json:"queries"` // per ring size
	Runs         []FailoverRun `json:"runs"`
}

// failoverHeartbeat is the detector tuning the sweep runs with: a
// 300 ms death verdict, roomy enough that the recovery gate (2× the
// death timeout) holds on a loaded CI box.
func failoverHeartbeat() membership.Config {
	return membership.Config{
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectAfter:      3,
		DeadAfter:         6,
	}
}

// FailoverOpts sizes the sweep.
type FailoverOpts struct {
	Rows, Clients, Queries int   // lineitem rows, concurrent network clients, queries per ring size
	Sizes                  []int // ring sizes; one node is killed in each
}

// DefaultFailoverOpts is the full sweep.
func DefaultFailoverOpts() FailoverOpts {
	return FailoverOpts{Rows: 1 << 17, Clients: 8, Queries: 300, Sizes: []int{3, 4, 5}}
}

// Short is the CI-sized sweep.
func (o FailoverOpts) Short() FailoverOpts {
	o.Rows, o.Queries, o.Sizes = 1<<15, 150, []int{3, 5}
	return o
}

// FailoverSweep runs the kill-and-recover sweep: for each ring size, a
// TPC-H database with the given lineitem row count is served with one
// replica per fragment, Clients concurrent network clients fire Queries
// queries total, and one node is killed a third of the way through.
// Every answer is fingerprinted against the pre-kill reference.
func FailoverSweep(o FailoverOpts, seed int64) (*FailoverResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(o.Rows), seed)
	res := &FailoverResult{
		LineitemRows: db.Rows("lineitem"),
		Clients:      o.Clients,
		Queries:      o.Queries,
	}
	for _, nodes := range o.Sizes {
		run, err := failoverRun(db, nodes, o.Clients, o.Queries)
		if err != nil {
			return nil, fmt.Errorf("failover sweep (%d nodes): %w", nodes, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

func failoverRun(db *tpch.DB, nodes, clients, queries int) (FailoverRun, error) {
	hb := failoverHeartbeat()
	s, refs, err := serveReplicated(nodes, db, hb)
	if err != nil {
		return FailoverRun{}, err
	}
	defer s.Close()
	ring := s.Ring
	run := FailoverRun{
		Nodes:         nodes,
		Victim:        nodes / 2,
		Replicas:      1,
		HeartbeatMs:   hb.HeartbeatInterval.Milliseconds(),
		DeadTimeoutMs: hb.DeadTimeout().Milliseconds(),
		FirstOKMs:     -1,
	}
	load := StartLoad(LoadSpec{Targets: s.Srv.Addrs(), Clients: clients, Queries: queries,
		Mix: []string{tpch.Q6ishSQL}, Timeout: 10 * time.Second, Refs: refs})

	// The assassin: once a third of the budget has completed, so the
	// kill lands mid-stream with clients bound to every node, take the
	// victim down and watch the ring recover.
	<-load.Third()
	killT := time.Now()
	s.Srv.KillNode(run.Victim)
	deadline := killT.Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if run.DetectMs == 0 && ring.MembershipStats().Dead > 0 {
			run.DetectMs = time.Since(killT).Milliseconds()
		}
		if run.DetectMs > 0 && ring.UnownedFragments() == 0 {
			run.ReownMs = time.Since(killT).Milliseconds()
			run.Reowned = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	lr := load.Wait()

	run.OK, run.Rejected, run.Failed, run.Incorrect = lr.OK, lr.Rejected, lr.Failed, lr.Incorrect
	// The first correct answer whose whole lifetime is post-kill is the
	// client-visible recovery point.
	for _, a := range lr.Samples {
		if a.Start.Before(killT) {
			continue
		}
		if ms := a.Start.Add(a.Lat).Sub(killT).Milliseconds(); run.FirstOKMs < 0 || ms < run.FirstOKMs {
			run.FirstOKMs = ms
		}
	}
	ms := ring.MembershipStats()
	run.Failovers, run.Promotions, run.LostFrags = ms.Failovers, ms.Promotions, ms.LostFrags
	lats := lr.lats()
	run.P50Micros = quantile(lats, 0.50).Microseconds()
	run.P99Micros = quantile(lats, 0.99).Microseconds()
	return run, nil
}

// failoverGateFactor bounds recovery as a multiple of the failure
// detector's death timeout: detection itself costs one timeout, so
// promotion, splice, and client failover together get at most one more.
const failoverGateFactor = 2

// Gate enforces the membership layer's promises on every ring size, so
// a failover regression can never produce a quiet green run: zero
// incorrect answers (correctness is absolute), zero hard query
// failures, every fragment re-owned from its replica with nothing lost,
// a kill that actually promoted replicas, and recovery — both
// re-ownership and the first fully post-kill answer — inside 2× the
// death timeout.
func (r *FailoverResult) Gate() Gates {
	var g Gates
	for i := range r.Runs {
		run := &r.Runs[i]
		scope := fmt.Sprintf("%d nodes", run.Nodes)
		budget := failoverGateFactor * run.DeadTimeoutMs
		within := fmt.Sprintf("≤ %dms (%d× death timeout)", budget, failoverGateFactor)
		g.check(run.Incorrect == 0, scope+": incorrect answers", "0", "%d", run.Incorrect)
		g.check(run.Failed == 0, scope+": hard query failures", "0", "%d", run.Failed)
		g.check(run.Reowned && run.LostFrags == 0, scope+": fragments recovered", "re-owned, 0 lost",
			"reowned=%v, lost=%d", run.Reowned, run.LostFrags)
		g.check(run.Promotions > 0, scope+": promotions", "> 0", "%d", run.Promotions)
		g.check(run.ReownMs <= budget, scope+": re-ownership", within, "%dms", run.ReownMs)
		g.check(run.FirstOKMs >= 0 && run.FirstOKMs <= budget, scope+": first post-kill answer", within, "%dms", run.FirstOKMs)
	}
	return g
}

func (r *FailoverResult) String() string {
	var rows [][]any
	for _, run := range r.Runs {
		rows = append(rows, []any{run.Nodes, run.Victim, run.OK, run.Incorrect, run.Failed, run.DetectMs, run.ReownMs,
			run.FirstOKMs, run.Promotions, run.LostFrags, run.P50Micros, run.P99Micros})
	}
	return table(fmt.Sprintf("Failover sweep — lineitem %d rows, %d clients, %d queries per ring, kill node mid-run",
		r.LineitemRows, r.Clients, r.Queries),
		[]string{"nodes", "victim", "ok", "incorrect", "failed", "detect_ms", "reown_ms", "firstok_ms", "promo", "lost", "p50_us", "p99_us"}, rows)
}
