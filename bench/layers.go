package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/dcopt"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/minisql"
	"repro/internal/rdma"
	"repro/internal/server"
)

// The traced run splits its --seconds between closed loops of the same
// concurrency, so every latency below is taken under the load the
// end-to-end numbers see: an untraced served window (the base for
// trace.overhead_share), the traced served window (spans per query,
// counter deltas at its edges), and two in-process replays that call
// the layers under the front door directly. The replays alternate in
// short phases, so that the machine's drift over tens of seconds lands
// on both and live.ring_overhead_ms, their difference, is not made of
// it. The unloaded probes that follow are short and counted, not timed.
const (
	shareUntraced = 0.25
	shareTraced   = 0.35
	shareReplays  = 0.40
	replayRounds  = 2

	probeReps    = 15       // repetitions of each unloaded probe
	fragmentRows = 64 << 10 // live.DefaultConfig().FragmentRows
	wireMsgBytes = 512 << 10
	wireStreamed = 64 // messages streamed one way for rdma.stream_mb_s
	wireDeadline = 10 * time.Second
)

// plans is one slate entry compiled both ways.
type plans struct {
	plain *mal.Plan // as minisql compiles it: sql.bind against a catalog
	dc    *mal.Plan // after dcopt.Rewrite: request/pin/unpin against the ring
}

// counters is every layer's cumulative counters at one instant. The
// ring must be idle when it is taken: the core getter is only safe, and
// the hop counters only settled, once no query is in flight.
type counters struct {
	cache live.CacheStats
	hop   live.HopStats
	core  core.Stats
	srv   server.NodeStats // Accepted, Rejected and plan-cache fields summed over nodes
}

func (r *rig) counters() (counters, error) {
	if !r.ring.Quiesce(queryTimeout) {
		return counters{}, fmt.Errorf("ring did not quiesce within %v", queryTimeout)
	}
	c := counters{cache: r.ring.CacheStats(), hop: r.ring.HopStats()}
	for i := 0; i < r.ring.Size(); i++ {
		cs := r.ring.Node(i).Stats()
		c.core.RequestsSent += cs.RequestsSent
		c.core.BATsLoaded += cs.BATsLoaded
		c.core.BATsUnloaded += cs.BATsUnloaded
		c.core.Resends += cs.Resends
		ss := r.srv.Stats(i)
		c.srv.Accepted += ss.Accepted
		c.srv.Rejected += ss.Rejected
		c.srv.PlanCacheHits += ss.PlanCacheHits
		c.srv.PlanCacheMisses += ss.PlanCacheMisses
	}
	return c, nil
}

// runTraced is the second run of a workload: a fresh ring, spans around
// every call the benchmark makes into a layer, and the per-layer
// metrics derived from those spans and from counter deltas.
func runTraced(spec workload, seed int64, seconds float64) (*runResult, *rig, *tracer, error) {
	tr := newTracer()
	r, err := setUp(spec, seed, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	res := &runResult{Workload: spec.name, Traced: true, Metrics: map[string]metric{}}

	untraced := closedLoop(sessions, forSeconds(seconds*shareUntraced), r.served(nil))
	res.add(untraced.outcomes)

	before, err := r.counters()
	if err != nil {
		return nil, nil, nil, err
	}
	traced := closedLoop(sessions, forSeconds(seconds*shareTraced), r.served(tr))
	res.add(traced.outcomes)
	after, err := r.counters()
	if err != nil {
		return nil, nil, nil, err
	}
	res.Samples = len(traced.latMs)

	compiled, err := r.compileSlate(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	phase := forSeconds(seconds * shareReplays / (2 * replayRounds))
	for round := 0; round < replayRounds; round++ {
		res.add(closedLoop(sessions, phase, r.replayed(tr, compiled)).outcomes)
		res.add(closedLoop(sessions, phase, r.localOnly(tr, compiled)).outcomes)
	}

	fragmentMB, err := r.probeKernels(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := r.probePin(tr); err != nil {
		return nil, nil, nil, err
	}
	rtt, stream, err := probeWire(tr)
	if err != nil {
		return nil, nil, nil, err
	}

	med := func(name string) float64 { return median(tr.millis(name)) }
	q := len(traced.latMs)
	sort.Float64s(traced.latMs)
	tail := tailPercentile(q)
	qpsU := ratio(float64(len(untraced.latMs)), untraced.elapsed.Seconds())
	qpsT := ratio(float64(q), traced.elapsed.Seconds())
	query, exec, local := percentile(traced.latMs, 50), med("live.execplan"), med("mal.local_exec")
	encode, decode := med("server.encode_result"), med("server.decode_result")

	res.set("tpch.gendb_s", med("tpch.gendb")/1e3, "s")
	res.set("dcclient.dial_us", med("dcclient.dial")*1e3, "us")
	res.set("dcclient.query_p50_ms", query, "ms")
	res.set("dcclient.query_tail_ms", percentile(traced.latMs, tail), "ms")
	res.set("dcclient.query_tail_pct", tail, "%")
	res.set("minisql.compile_us", med("minisql.compile")*1e3, "us")
	res.set("dcopt.rewrite_us", med("dcopt.rewrite")*1e3, "us")
	res.set("mal.local_exec_ms", local, "ms")
	res.set("bat.select_ms", med("bat.select"), "ms")
	res.set("bat.semijoin_ms", med("bat.semijoin"), "ms")
	res.set("bat.concat_ms", med("bat.concat"), "ms")
	res.set("bat.marshal_mb_s", ratio(fragmentMB, med("bat.marshal")/1e3), "MB/s")
	res.set("bat.unmarshal_us", med("bat.unmarshal")*1e3, "us")
	res.set("live.execplan_ms", exec, "ms")
	res.set("live.ring_overhead_ms", exec-local, "ms")
	res.set("live.pin_ms", med("live.pin"), "ms")

	cache := after.cache
	pins := float64(cache.Hits - before.cache.Hits + cache.Misses - before.cache.Misses)
	res.set("live.cache_hit_ratio", ratio(float64(cache.Hits-before.cache.Hits), pins), "ratio")
	res.set("live.cache_evictions_per_query", perQuery(cache.Evictions-before.cache.Evictions, q), "count")
	res.set("live.ring_waits_per_query", perQuery(cache.RingWaits-before.cache.RingWaits, q), "count")
	res.set("live.ring_wait_ms_per_query", perQuery(cache.RingWaitNanos-before.cache.RingWaitNanos, q)/1e6, "ms")

	hop := after.hop
	msgs := hop.Msgs - before.hop.Msgs
	res.set("live.hop_msgs_per_query", perQuery(msgs, q), "count")
	res.set("live.hop_mb_per_query", perQuery(hop.Bytes-before.hop.Bytes, q)/(1<<20), "MB")
	res.set("live.hop_fill", ratio(float64(hop.Frags-before.hop.Frags), float64(msgs)), "frags/msg")
	res.set("live.revolution_us", float64(r.ring.RevolutionTime())/1e3, "us")
	res.set("rdma.syscalls_per_hop", ratio(float64(hop.WireSyscalls-before.hop.WireSyscalls), float64(msgs)), "count")
	res.set("rdma.pool_wait_ratio", ratio(float64(hop.PoolWaits-before.hop.PoolWaits), float64(hop.PoolAcquires-before.hop.PoolAcquires)), "ratio")
	res.set("rdma.msg_rtt_us", rtt, "us")
	res.set("rdma.stream_mb_s", stream, "MB/s")

	res.set("core.requests_per_query", perQuery(int64(after.core.RequestsSent-before.core.RequestsSent), q), "count")
	res.set("core.loads_per_query", perQuery(int64(after.core.BATsLoaded-before.core.BATsLoaded), q), "count")
	res.set("core.unloads_per_query", perQuery(int64(after.core.BATsUnloaded-before.core.BATsUnloaded), q), "count")
	res.set("core.resends_per_kquery", 1000*perQuery(int64(after.core.Resends-before.core.Resends), q), "count")

	// Server.Stats keeps its latency histogram and in-flight peak from
	// Serve on, so these two cover the warm-up and both served windows.
	var execP50 []float64
	var maxInflight int64
	for s := 0; s < sessions; s++ {
		st := r.srv.Stats(s)
		execP50 = append(execP50, float64(st.P50)/1e6)
		maxInflight = max(maxInflight, st.MaxInFlight)
	}
	res.set("server.exec_p50_ms", median(execP50), "ms")
	res.set("server.max_inflight", float64(maxInflight), "count")
	lookups := after.srv.PlanCacheHits - before.srv.PlanCacheHits + after.srv.PlanCacheMisses - before.srv.PlanCacheMisses
	res.set("server.plancache_hit_ratio", ratio(float64(after.srv.PlanCacheHits-before.srv.PlanCacheHits), float64(lookups)), "ratio")
	arrivals := after.srv.Accepted - before.srv.Accepted + after.srv.Rejected - before.srv.Rejected
	res.set("server.rejected_share", ratio(float64(after.srv.Rejected-before.srv.Rejected), float64(arrivals)), "share")
	res.set("server.encode_result_us", encode*1e3, "us")
	res.set("server.decode_result_us", decode*1e3, "us")
	// What the front door adds over the layers beneath it: protocol
	// framing, admission, plan-cache lookup, sockets and dcclient.
	res.set("server.residual_ms", query-exec-encode-decode, "ms")
	res.set("trace.overhead_share", ratio(qpsU-qpsT, qpsU), "share")
	return res, r, tr, nil
}

// compileSlate times minisql.Compile and dcopt.Rewrite on every slate
// entry and keeps one compiled pair per entry for the replays.
func (r *rig) compileSlate(tr *tracer) (map[string]plans, error) {
	out := map[string]plans{}
	for _, sql := range r.slate {
		var p plans
		var err error
		for i := 0; i < probeReps; i++ {
			tr.timed("minisql.compile", func() { p.plain, err = minisql.Compile(sql, r.db.Schema(), "sys") })
			if err != nil {
				return nil, fmt.Errorf("compile: %w", err)
			}
			tr.timed("dcopt.rewrite", func() { p.dc, _, err = dcopt.Rewrite(p.plain) })
			if err != nil {
				return nil, fmt.Errorf("rewrite: %w", err)
			}
		}
		out[sql] = p
	}
	return out, nil
}

// replayed is the served query minus the front door: Node.ExecPlan of
// the rewritten plan on the session's own node, then the result codec
// on what it returned. The decoded copy is what gets checked, so the
// codec pair is verified along with the ring.
func (r *rig) replayed(tr *tracer, compiled map[string]plans) op {
	return op{
		call: func(s, i int) (*mal.ResultSet, error) {
			qid := tr.newQuery()
			root := tr.begin("replay", 0, qid)
			defer tr.end(root)
			id := tr.begin("live.execplan", root, qid)
			rs, err := r.ring.Node(s).ExecPlan(compiled[r.sqlFor(s, i)].dc)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("server.encode_result", root, qid)
			payload, err := server.EncodeResult(rs)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			id = tr.begin("server.decode_result", root, qid)
			rs, err = server.DecodeResult(payload)
			tr.end(id)
			return rs, err
		},
		check: r.checkResult,
	}
}

// localOnly runs the plan as compiled on the generator's whole columns:
// the kernel and interpreter work of the query with no ring under it.
func (r *rig) localOnly(tr *tracer, compiled map[string]plans) op {
	return op{
		call: func(s, i int) (rs *mal.ResultSet, err error) {
			id := tr.begin("mal.local_exec", 0, tr.newQuery())
			rs, err = r.localExec(compiled[r.sqlFor(s, i)].plain)
			tr.end(id)
			return rs, err
		},
		check: r.checkResult,
	}
}

func (r *rig) lineitem(column string) (*bat.BAT, error) {
	b, ok := r.db.Column("lineitem", column)
	if !ok {
		return nil, fmt.Errorf("no column lineitem.%s", column)
	}
	return b, nil
}

// probeKernels times the bat operators Q6's candidate chain is made of,
// fragment merge, and the wire codec, each alone on this workload's
// lineitem columns. The codec works on l_extendedprice's first fragment
// — what one hop carries on the 1M-row workloads, the whole column on
// point_storm — whose encoded size in MB it returns.
func (r *rig) probeKernels(tr *tracer) (fragmentMB float64, err error) {
	shipdate, err := r.lineitem("l_shipdate")
	if err != nil {
		return 0, err
	}
	quantity, err := r.lineitem("l_quantity")
	if err != nil {
		return 0, err
	}
	price, err := r.lineitem("l_extendedprice")
	if err != nil {
		return 0, err
	}
	var frags []*bat.BAT
	for from := 0; from < price.Len(); from += fragmentRows {
		frags = append(frags, price.Slice(from, min(price.Len(), from+fragmentRows)))
	}
	wire := make([]byte, 0, bat.MarshalSize(frags[0]))
	for i := 0; i < probeReps; i++ {
		var inYear, cheap *bat.BAT
		tr.timed("bat.select", func() {
			inYear = shipdate.Select(&bat.Bound{Value: int64(19940101), Inclusive: true}, &bat.Bound{Value: int64(19950101)})
		})
		cheap = quantity.Select(nil, &bat.Bound{Value: int64(24)})
		tr.timed("bat.semijoin", func() { cheap.Mirror().Semijoin(inYear.Mirror()) })
		tr.timed("bat.concat", func() { bat.Concat(frags) })
		tr.timed("bat.marshal", func() { wire = bat.AppendMarshal(wire[:0], frags[0]) })
		tr.timed("bat.unmarshal", func() { _, err = bat.UnmarshalView(wire) })
		if err != nil {
			return 0, fmt.Errorf("unmarshal fragment: %w", err)
		}
	}
	return float64(len(wire)) / (1 << 20), nil
}

// probePin times Node.Fetch of one lineitem column — request, wait for
// every fragment to flow past, pin, merge, unpin — alternating between
// the two nodes the sessions use. Two thirds of the fragments are
// remote to either.
func (r *rig) probePin(tr *tracer) error {
	for i := 0; i < probeReps; i++ {
		var err error
		tr.timed("live.pin", func() { _, err = r.ring.Node(i % sessions).Fetch("lineitem.l_extendedprice") })
		if err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
	}
	return nil
}

// errWireWedged reports a Messenger exchange that stopped making
// progress (README.md, known issue d: a send completion that overtakes
// its ticket is dropped, and the sender then waits for it forever).
var errWireWedged = errors.New("rdma probe made no progress")

// probeWire measures the rdma layer alone: a Messenger pair over one
// loopback TCP connection (not a real link), the way the ring wires
// neighbours, moving 512 KB payloads. It returns the round trip of one
// message echoed back, in microseconds, and one-way streaming MB/s. A
// wedged exchange is torn down and tried again on a fresh connection,
// loudly, so that a rare lost completion costs the run ten seconds and
// not its result.
func probeWire(tr *tracer) (rttUs, streamMBs float64, err error) {
	for attempt := 1; ; attempt++ {
		streamMBs, err = wireExchange(tr)
		if !errors.Is(err, errWireWedged) || attempt == 3 {
			return median(tr.millis("rdma.msg_rtt")) * 1e3, streamMBs, err
		}
		fmt.Fprintf(os.Stderr, "dcbench: %v after %v (attempt %d); retrying on a fresh connection\n", err, wireDeadline, attempt)
	}
}

// loopbackPair connects two Messengers through one loopback TCP
// connection.
func loopbackPair() (a, b *rdma.Messenger, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	far, err := ln.Accept() // the dial is already in the listen backlog
	if err != nil {
		near.Close()
		return nil, nil, err
	}
	messenger := func(c net.Conn) (*rdma.Messenger, error) {
		qp, _, err := rdma.NewConnQP(c, rdma.BackendTCP, wireMsgBytes)
		if err != nil {
			c.Close()
			return nil, err
		}
		return rdma.NewMessenger(qp, wireMsgBytes)
	}
	if a, err = messenger(near); err != nil {
		far.Close()
		return nil, nil, err
	}
	if b, err = messenger(far); err != nil {
		a.Close()
		return nil, nil, err
	}
	return a, b, nil
}

// wireExchange runs probeReps echoed round trips (a span each) and then
// streams wireStreamed messages one way, acknowledged by one byte.
func wireExchange(tr *tracer) (streamMBs float64, err error) {
	a, b, err := loopbackPair()
	if err != nil {
		return 0, err
	}
	defer a.Close()
	defer b.Close()

	payload := make([]byte, wireMsgBytes)
	send := func(m *rdma.Messenger) error {
		return m.SendEncoded(len(payload), func(dst []byte) int { return copy(dst, payload) })
	}
	echo := func() error {
		for i := 0; i < probeReps; i++ {
			if _, err := b.Recv(); err != nil {
				return err
			}
			if err := send(b); err != nil {
				return err
			}
		}
		for i := 0; i < wireStreamed; i++ {
			if _, err := b.Recv(); err != nil {
				return err
			}
		}
		return b.Send([]byte{1})
	}
	drive := func() error {
		for i := 0; i < probeReps; i++ {
			var err error
			tr.timed("rdma.msg_rtt", func() {
				if err = send(a); err == nil {
					_, err = a.Recv()
				}
			})
			if err != nil {
				return fmt.Errorf("round trip: %w", err)
			}
		}
		t0 := time.Now()
		for i := 0; i < wireStreamed; i++ {
			if err := send(a); err != nil {
				return fmt.Errorf("stream: %w", err)
			}
		}
		if _, err := a.Recv(); err != nil {
			return fmt.Errorf("stream ack: %w", err)
		}
		streamMBs = float64(wireStreamed*wireMsgBytes) / (1 << 20) / time.Since(t0).Seconds()
		return nil
	}

	results := make(chan error, 2)
	go func() { results <- echo() }()
	go func() { results <- drive() }()
	timeout := time.After(wireDeadline)
	for pending := 2; pending > 0; {
		select {
		case e := <-results:
			pending--
			if err == nil && e != nil {
				err = fmt.Errorf("rdma probe: %w", e)
			}
		case <-timeout:
			// Closing both ends fails every blocked Send and Recv, so
			// the two goroutines drain into results.
			err = errWireWedged
			a.Close()
			b.Close()
		}
	}
	return streamMBs, err
}
