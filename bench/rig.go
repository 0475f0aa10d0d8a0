package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bat"
	"repro/internal/dcclient"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/minisql"
	"repro/internal/server"
	"repro/internal/tpch"
)

const (
	ringNodes = 3
	// sessions is the number of closed-loop dcclient sessions, on nodes
	// 0 and 1. The box has two cores; more sessions would measure the
	// load generator queueing against the ring for CPU.
	sessions     = 2
	queryTimeout = 10 * time.Second
)

// rig is one served ring with its clients and reference results.
type rig struct {
	spec    workload
	slate   []string
	db      *tpch.DB
	ring    *live.Ring
	srv     *server.Server
	clients []*dcclient.Client
	// refs holds, per SQL text, the result of the plain plan run on the
	// unfragmented local columns: what every served answer must equal.
	refs map[string]*mal.ResultSet
}

// setUp builds everything the window needs, through the warm-up; the
// time it takes is setup_s. tr (may be nil) gets a span per step.
func setUp(spec workload, seed int64, tr *tracer) (*rig, error) {
	r := &rig{spec: spec, refs: map[string]*mal.ResultSet{}}
	r.slate = append([]string(nil), spec.slate...)
	rand.New(rand.NewSource(seed)).Shuffle(len(r.slate), func(i, j int) {
		r.slate[i], r.slate[j] = r.slate[j], r.slate[i]
	})

	tr.timed("tpch.gendb", func() { r.db = tpch.GenDB(tpch.SFForLineitemRows(spec.rows), seed) })

	cfg := live.DefaultConfig()
	cfg.Transport = live.TCP
	cfg.CacheBytes = spec.cacheBytes
	var err error
	if r.ring, err = live.NewRing(ringNodes, r.db.ColumnMap(), r.db.Schema(), cfg); err != nil {
		return nil, fmt.Errorf("new ring: %w", err)
	}
	if r.srv, err = server.Serve(r.ring, server.DefaultConfig()); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for s := 0; s < sessions; s++ {
		var cl *dcclient.Client
		tr.timed("dcclient.dial", func() { cl, err = dcclient.Dial(r.srv.Addr(s)) })
		if err != nil {
			return nil, fmt.Errorf("dial node %d: %w", s, err)
		}
		r.clients = append(r.clients, cl)
	}
	for _, sql := range r.slate {
		plan, err := minisql.Compile(sql, r.db.Schema(), "sys")
		if err != nil {
			return nil, fmt.Errorf("compile reference: %w", err)
		}
		ref, err := r.localExec(plan)
		if err != nil {
			return nil, fmt.Errorf("reference result: %w", err)
		}
		r.refs[sql] = ref
	}
	warm := closedLoop(sessions, func(done int, _ time.Duration) bool { return done >= spec.warmup }, r.served(nil))
	if warm.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d queries failed: %v", warm.failed(), warm.Attempted, warm.Notes)
	}
	return r, nil
}

// localExec runs a plan as compiled — no Data Cyclotron rewrite — on
// the generator's whole columns: kernel and interpreter with no ring.
func (r *rig) localExec(plan *mal.Plan) (*mal.ResultSet, error) {
	v, err := mal.Run(&mal.Context{Registry: mal.NewRegistry(), Catalog: r.db, Workers: live.DefaultConfig().Workers}, plan)
	if err != nil {
		return nil, err
	}
	rs, ok := v.(*mal.ResultSet)
	if !ok {
		return nil, fmt.Errorf("plan produced %T, want a result set", v)
	}
	return rs, nil
}

// tearDown closes clients, server and ring. Server.Close does not
// return while a served query is wedged in a pin, so callers run it
// under a deadline, after the results are out.
func (r *rig) tearDown() {
	for _, cl := range r.clients {
		cl.Close()
	}
	r.srv.Close()
	r.ring.Close()
}

// sqlFor is the slate entry session s issues as its i-th query.
func (r *rig) sqlFor(s, i int) string { return r.slate[(s+i)%len(r.slate)] }

var (
	errIncorrect = errors.New("incorrect result")
	errTimeout   = errors.New("query deadline exceeded")
)

// op is one closed-loop call: call is timed, check (after the clock
// stops) says whether what it returned is right.
type op struct {
	call  func(session, i int) (*mal.ResultSet, error)
	check func(session, i int, rs *mal.ResultSet) error
}

// served is the end-to-end operation: Client.Query through the node's
// listener, checked against the reference. With a tracer, every call is
// a span with a query id of its own.
func (r *rig) served(tr *tracer) op {
	return op{
		call: func(s, i int) (*mal.ResultSet, error) {
			ctx, cancel := context.WithTimeout(context.Background(), queryTimeout)
			defer cancel()
			id := tr.begin("dcclient.query", 0, tr.newQuery())
			rs, err := r.clients[s].Query(ctx, r.sqlFor(s, i))
			tr.end(id)
			if err != nil && ctx.Err() != nil {
				return nil, errTimeout
			}
			return rs, err
		},
		check: r.checkResult,
	}
}

func (r *rig) checkResult(s, i int, rs *mal.ResultSet) error {
	return sameResult(r.refs[r.sqlFor(s, i)], rs, i%r.spec.checkEvery == 0)
}

// sameResult compares a served result with the reference: always the
// shape, and with cells every value. Floats are compared to 1e-9
// relative, because the ring sums per fragment and then across
// fragments while the reference sums the whole column in one pass.
func sameResult(want, got *mal.ResultSet, cells bool) error {
	if len(got.Cols) != len(want.Cols) || got.NumRows() != want.NumRows() {
		return fmt.Errorf("%w: %d columns x %d rows, want %d x %d",
			errIncorrect, len(got.Cols), got.NumRows(), len(want.Cols), want.NumRows())
	}
	if !cells {
		return nil
	}
	for c := range want.Cols {
		w, g := want.Cols[c].Tail(), got.Cols[c].Tail()
		if w.Kind() != g.Kind() {
			return fmt.Errorf("%w: column %d is %v, want %v", errIncorrect, c, g.Kind(), w.Kind())
		}
		for i, n := 0, w.Len(); i < n; i++ {
			same := true
			switch w.Kind() {
			case bat.KInt:
				same = w.Int(i) == g.Int(i)
			case bat.KFloat:
				a, b := w.Float(i), g.Float(i)
				same = a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
			default:
				same = w.Value(i) == g.Value(i)
			}
			if !same {
				return fmt.Errorf("%w: column %d row %d is %v, want %v", errIncorrect, c, i, g.Value(i), w.Value(i))
			}
		}
	}
	return nil
}

// outcomes counts what calls came to. A call that fails, times out, is
// refused or answers wrongly counts as attempted and as failed, and
// never contributes a latency sample.
type outcomes struct {
	Attempted int      `json:"attempted"`
	Errors    int      `json:"errors"`
	Timeouts  int      `json:"timeouts"`
	Rejected  int      `json:"rejected"`
	Incorrect int      `json:"incorrect"`
	Notes     []string `json:"notes,omitempty"` // the first few failures, for the report
}

func (o *outcomes) failed() int { return o.Errors + o.Timeouts + o.Rejected + o.Incorrect }

func (o *outcomes) note(msg string) {
	if len(o.Notes) < 5 {
		o.Notes = append(o.Notes, msg)
	}
}

func (o *outcomes) fail(err error) {
	switch {
	case errors.Is(err, errIncorrect):
		o.Incorrect++
	case errors.Is(err, errTimeout):
		o.Timeouts++
	case dcclient.IsRejected(err):
		o.Rejected++
	default:
		o.Errors++
	}
	o.note(err.Error())
}

func (o *outcomes) add(p outcomes) {
	o.Attempted += p.Attempted
	o.Errors += p.Errors
	o.Timeouts += p.Timeouts
	o.Rejected += p.Rejected
	o.Incorrect += p.Incorrect
	for _, n := range p.Notes {
		o.note(n)
	}
}

// tally is what a closed loop observed: its outcomes, the latency of
// every correct answer, and how long the loop ran.
type tally struct {
	outcomes
	latMs   []float64
	elapsed time.Duration
}

// closedLoop runs o from n goroutines, each issuing its next call only
// once the previous one has returned and been checked, until stop —
// given the session's completed calls and the time since the loop
// started — says so. A slow system therefore receives less load.
func closedLoop(n int, stop func(done int, since time.Duration) bool, o op) *tally {
	per := make([]tally, n)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			t := &per[s]
			for i := 0; !stop(i, time.Since(start)); i++ {
				t.Attempted++
				t0 := time.Now()
				rs, err := o.call(s, i)
				lat := time.Since(t0)
				if err == nil && o.check != nil {
					err = o.check(s, i, rs)
				}
				if err != nil {
					t.fail(err)
					continue
				}
				t.latMs = append(t.latMs, float64(lat)/1e6)
			}
		}(s)
	}
	wg.Wait()
	total := &tally{elapsed: time.Since(start)}
	for i := range per {
		total.add(per[i].outcomes)
		total.latMs = append(total.latMs, per[i].latMs...)
	}
	return total
}

// forSeconds is the stop rule of a timed window.
func forSeconds(sec float64) func(int, time.Duration) bool {
	d := time.Duration(sec * float64(time.Second))
	return func(_ int, since time.Duration) bool { return since >= d }
}
