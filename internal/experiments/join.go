package experiments

// Grow-the-ring sweep: the end-to-end measurement behind runtime ring
// growth. A replicated ring is served over the network query service,
// concurrent clients hammer it through dcclient, and a new node joins
// mid-run — admission handshake, link splice-in, and state transfer all
// while answers keep flowing. The sweep records what the join protocol
// promises: zero incorrect answers (every result fingerprints
// identically to the pre-join reference), the newcomer ends up owning
// its fair share and serving queries itself, and the admission phase is
// a vanishing fraction of the total join (the transfer dominates).
// Latency quantiles are split at the join-completion instant so a
// grown ring's tail can be compared against the same-size ring of the
// next run before *its* join.

import (
	"fmt"
	"time"

	"repro/internal/membership"
	"repro/internal/tpch"
)

// JoinRun is one ring size of the grow-the-ring sweep: a ring of Nodes
// nodes serving queries while node Nodes (the newcomer) joins.
type JoinRun struct {
	Nodes    int `json:"nodes"` // pre-join ring size
	Joined   int `json:"joined"`
	Replicas int `json:"replicas"`

	OK        int64 `json:"ok"`
	Rejected  int64 `json:"rejected"`  // admission rejections (IsTemporary)
	Failed    int64 `json:"failed"`    // hard query failures
	Incorrect int64 `json:"incorrect"` // fingerprint mismatches vs reference

	Share      int   `json:"share"`    // fragments planned for the newcomer
	Migrated   int   `json:"migrated"` // fragments it actually owns
	Skipped    int   `json:"skipped"`
	SpliceMs   int64 `json:"splice_ms"`   // admission + link splice-in
	TransferMs int64 `json:"transfer_ms"` // state transfer + rebalancing
	TotalMs    int64 `json:"total_ms"`
	Converged  bool  `json:"converged"` // every fragment has a live owner
	Failovers  int64 `json:"failovers"` // death verdicts during the run (must be 0)

	NewcomerOKMs int64 `json:"newcomer_ok_ms"` // join end -> newcomer's first correct answer

	PreP50Micros  int64 `json:"pre_p50_us"` // queries started before the join completed
	PreP99Micros  int64 `json:"pre_p99_us"`
	PostP50Micros int64 `json:"post_p50_us"` // queries started on the grown ring
	PostP99Micros int64 `json:"post_p99_us"`
}

// JoinResult is the whole sweep.
type JoinResult struct {
	LineitemRows int       `json:"lineitem_rows"`
	Clients      int       `json:"clients"`
	Queries      int       `json:"queries"` // per ring size
	Runs         []JoinRun `json:"runs"`
}

// JoinOpts sizes the sweep.
type JoinOpts struct {
	Rows, Clients, Queries int   // lineitem rows, concurrent network clients, queries per ring size
	Sizes                  []int // consecutive pre-join ring sizes; one node joins each
}

// DefaultJoinOpts is the full sweep.
func DefaultJoinOpts() JoinOpts {
	return JoinOpts{Rows: 1 << 17, Clients: 8, Queries: 300, Sizes: []int{3, 4}}
}

// Short is the CI-sized sweep.
func (o JoinOpts) Short() JoinOpts {
	o.Rows, o.Queries = 1<<15, 150
	return o
}

// JoinSweep runs the grow-the-ring sweep: for each pre-join ring size,
// a TPC-H database with the given lineitem row count is served with one
// replica per fragment, Clients concurrent network clients fire Queries
// queries total, and a new node joins a third of the way through. Every
// answer is fingerprinted against the pre-join reference.
func JoinSweep(o JoinOpts, seed int64) (*JoinResult, error) {
	db := tpch.GenDB(tpch.SFForLineitemRows(o.Rows), seed)
	res := &JoinResult{
		LineitemRows: db.Rows("lineitem"),
		Clients:      o.Clients,
		Queries:      o.Queries,
	}
	for _, nodes := range o.Sizes {
		run, err := joinRun(db, nodes, o.Clients, o.Queries)
		if err != nil {
			return nil, fmt.Errorf("join sweep (%d nodes): %w", nodes, err)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// joinHeartbeat is the detector tuning the grow-the-ring sweep runs
// with. Unlike the failover sweep — an otherwise idle ring where fast
// detection is the whole point — this ring spends the entire run under
// concurrent client load moving multi-megabyte fragments, and on a
// small CI box a node mid-marshal can go genuinely silent for hundreds
// of milliseconds without being dead. The death verdict (3 s) is sized
// to out-wait those stalls: the sweep gates on Failovers == 0, so a
// false verdict here doesn't degrade gracefully, it fails the run.
func joinHeartbeat() membership.Config {
	return membership.Config{
		HeartbeatInterval: 100 * time.Millisecond,
		SuspectAfter:      10,
		DeadAfter:         30,
	}
}

func joinRun(db *tpch.DB, nodes, clients, queries int) (JoinRun, error) {
	s, refs, err := serveReplicated(nodes, db, joinHeartbeat())
	if err != nil {
		return JoinRun{}, err
	}
	defer s.Close()
	run := JoinRun{Nodes: nodes, Replicas: 1, NewcomerOKMs: -1}
	load := StartLoad(LoadSpec{Targets: s.Srv.Addrs(), Clients: clients, Queries: queries,
		Mix: []string{tpch.Q6ishSQL}, Timeout: 10 * time.Second, Refs: refs})

	// The sponsor: once a third of the budget has completed, so the
	// join lands mid-stream with clients bound to every original node,
	// grow the ring and bring the newcomer's listener up.
	<-load.Third()
	joinEnd, joinErr := sponsorJoin(s, refs[tpch.Q6ishSQL], &run)
	lr := load.Wait()
	if joinErr != nil {
		return run, joinErr
	}
	run.OK, run.Rejected, run.Failed, run.Incorrect = lr.OK, lr.Rejected, lr.Failed, lr.Incorrect

	// A join sweep with deaths in it measured the failover path, not the
	// join path: any verdict here was false (nobody is killed), and the
	// ring silently fell back on replicas for correctness. Surface it so
	// the gate can hold it to zero.
	run.Failovers = s.Ring.MembershipStats().Failovers

	// Split the latencies at the join-completion instant: a query that
	// started on the grown ring is post-join.
	var pre, post []time.Duration
	for _, a := range lr.Samples {
		if a.Start.Before(joinEnd) {
			pre = append(pre, a.Lat)
		} else {
			post = append(post, a.Lat)
		}
	}
	run.PreP50Micros = quantile(pre, 0.50).Microseconds()
	run.PreP99Micros = quantile(pre, 0.99).Microseconds()
	run.PostP50Micros = quantile(post, 0.50).Microseconds()
	run.PostP99Micros = quantile(post, 0.99).Microseconds()
	return run, nil
}

// sponsorJoin grows the served ring by one node, records the join
// report in run, serves the newcomer and waits until it answers the
// workload query for itself, over the wire, with the data it just
// received. It returns the instant the join completed.
func sponsorJoin(s *Served, ref string, run *JoinRun) (time.Time, error) {
	rep, err := s.Ring.Join()
	joinEnd := time.Now()
	if err != nil {
		return joinEnd, fmt.Errorf("join: %w", err)
	}
	run.Joined, run.Share, run.Migrated, run.Skipped = rep.Node, rep.Share, rep.Migrated, rep.Skipped
	run.SpliceMs, run.TransferMs, run.TotalMs = rep.SpliceMs, rep.TransferMs, rep.TotalMs
	run.Converged = s.Ring.UnownedFragments() == 0

	addr, err := s.Srv.ServeNode(rep.Node)
	if err != nil {
		return joinEnd, fmt.Errorf("serve joined node: %w", err)
	}
	for deadline := joinEnd.Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if fp, err := queryFingerprint(addr, tpch.Q6ishSQL, 5*time.Second); err == nil && fp == ref {
			run.NewcomerOKMs = time.Since(joinEnd).Milliseconds()
			return joinEnd, nil
		}
	}
	return joinEnd, fmt.Errorf("joined node never answered correctly")
}

// joinGateFactor bounds the whole join as a multiple of its transfer
// phase: admission and splice-in must stay cheap next to moving data.
// joinTotalFloorMs absorbs fixed costs on runs whose transfer rounds to
// nearly nothing. joinP99Factor bounds a grown ring's post-join tail
// against the same-size ring of the next run before its join (run N's
// post state and run N+1's pre state are both an (N+1)-node ring under
// identical load).
const (
	joinGateFactor   = 2
	joinTotalFloorMs = 250
	joinP99Factor    = 2
)

// Gate enforces the join protocol's promises on every ring size, so an
// admission or rebalancing regression can never produce a quiet green
// run: zero incorrect answers, zero hard failures, the newcomer owning
// its full planned share with nothing skipped, a converged catalog,
// zero failovers (nobody is killed in this sweep: any death verdict was
// a false positive the ring quietly papered over with replica
// promotion, and the other numbers would still look green), the
// newcomer answering for itself, join completion dominated by the
// transfer (total ≤ 2× transfer + 250 ms), and — at full size, a timing
// ratio — a grown ring's tail no worse than 2× that of a ring born at
// that size.
func (r *JoinResult) Gate() Gates {
	var g Gates
	for i := range r.Runs {
		run := &r.Runs[i]
		scope := fmt.Sprintf("%d nodes", run.Nodes)
		g.check(run.Incorrect == 0, scope+": incorrect answers", "0", "%d", run.Incorrect)
		g.check(run.Failed == 0, scope+": hard query failures", "0", "%d", run.Failed)
		g.check(run.Migrated > 0 && run.Skipped == 0 && run.Migrated == run.Share, scope+": newcomer share",
			"owns its full share, 0 skipped", "owns %d of %d (%d skipped)", run.Migrated, run.Share, run.Skipped)
		g.check(run.Converged, scope+": catalog", "converged", "converged=%v", run.Converged)
		g.check(run.Failovers == 0, scope+": false failovers", "0", "%d", run.Failovers)
		g.check(run.NewcomerOKMs >= 0, scope+": newcomer answered", "a correct answer", "%dms after the join", run.NewcomerOKMs)
		budget := joinGateFactor*run.TransferMs + joinTotalFloorMs
		g.check(run.TotalMs <= budget, scope+": join total",
			fmt.Sprintf("≤ %dms (%d× the %dms transfer + %dms floor)", budget, joinGateFactor, run.TransferMs, joinTotalFloorMs),
			"%dms", run.TotalMs)
		for j := range r.Runs {
			peer := &r.Runs[j]
			if peer.Nodes == run.Nodes+1 && run.PostP99Micros != 0 && peer.PreP99Micros != 0 {
				g.timing(run.PostP99Micros <= joinP99Factor*peer.PreP99Micros, fmt.Sprintf("%d->%d join: post-join p99", run.Nodes, peer.Nodes),
					fmt.Sprintf("≤ %d× a born-%d-node ring", joinP99Factor, peer.Nodes), "%dus vs %dus", run.PostP99Micros, peer.PreP99Micros)
			}
		}
	}
	return g
}

func (r *JoinResult) String() string {
	var rows [][]any
	for _, run := range r.Runs {
		rows = append(rows, []any{run.Nodes, run.OK, run.Incorrect, run.Failed, run.Share, run.Migrated, run.SpliceMs,
			run.TransferMs, run.TotalMs, run.NewcomerOKMs, run.PreP99Micros, run.PostP99Micros, run.Converged, run.Failovers})
	}
	return table(fmt.Sprintf("Join sweep — lineitem %d rows, %d clients, %d queries per ring, join node mid-run",
		r.LineitemRows, r.Clients, r.Queries),
		[]string{"nodes", "ok", "incorrect", "failed", "share", "migrated", "splice_ms", "transfer_ms", "total_ms",
			"newok_ms", "pre_p99", "post_p99", "converged", "failovers"}, rows)
}
