package experiments

// Shared fixtures of the live-ring sweeps: ring bring-up (bare and
// served), the closed-loop client fan-out, the one quantile, the hop
// counter settle and table printing. cmd/dcload drives the same
// ServeRing and StartLoad.

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"repro/internal/bat"
	"repro/internal/dcclient"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/membership"
	"repro/internal/server"
	"repro/internal/tpch"
	"repro/internal/workload"
)

// quantile is the p-quantile of lat by the floor rank int(p·(n−1)):
// p = 0 is the minimum, p = 1 the maximum, an empty sample is 0.
func quantile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p*float64(len(sorted)-1))]
}

// settleHopBytes reads the ring's cumulative data traffic once it has
// held still for three reads in a row — on a paced ring that is every
// idle fragment parked — or after 300 ms: a ring with work left keeps
// rotating, and the total only has to reflect what the queries caused.
func settleHopBytes(r *live.Ring) int64 {
	settle := time.Now().Add(300 * time.Millisecond)
	last, still := r.HopStats().Bytes, 0
	for still < 3 && time.Now().Before(settle) {
		time.Sleep(10 * time.Millisecond)
		if cur := r.HopStats().Bytes; cur == last {
			still++
		} else {
			last, still = cur, 0
		}
	}
	return last
}

// table renders a title line, a column header and one line per row,
// right-aligned.
func table(title string, cols []string, rows [][]any) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	w := tabwriter.NewWriter(&b, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, strings.Join(cols, "\t")+"\t")
	for _, row := range rows {
		for _, v := range row {
			fmt.Fprintf(w, "%v\t", v)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// ringResends sums the nodes' resend counters: requests the ring lost,
// or — on a ring that loses nothing — a BAT that left a requester behind.
func ringResends(r *live.Ring) (n uint64) {
	for i := 0; i < r.Size(); i++ {
		n += r.Node(i).Stats().Resends
	}
	return n
}

// offOr names a swept setting whose zero value switches the feature off.
func offOr(v int) string {
	if v == 0 {
		return "off"
	}
	return fmt.Sprint(v)
}

// circulation is what one pass of the Q6-style aggregate over a bare
// ring leaves behind.
type circulation struct {
	lat       []time.Duration
	digest    string        // FNV over every query's rows, in firing order
	hops      live.HopStats // after the sends settled
	resends   uint64        // core.Stats.Resends over all nodes
	fragments int           // fragments of lineitem.l_shipdate
	region    int           // ring message limit
}

// circulate brings up a ring under cfg with the hot-set cache off — so
// every pin rides the ring and the sweep measures circulation, not the
// cache (that trade-off is the cache suite's) — fires the Q6-style
// selective aggregate queries times round-robin over the nodes, and
// snapshots the hop transport once in-flight sends have settled.
func circulate(db *tpch.DB, nodes, queries int, cfg live.Config) (circulation, error) {
	cfg.CacheBytes = 0
	ring, err := live.NewRing(nodes, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		return circulation{}, err
	}
	defer ring.Close()
	c := circulation{region: ring.MaxMessage()}
	digest := fnv.New64a()
	for i := 0; i < queries; i++ {
		start := time.Now()
		rs, err := ring.Node(i % nodes).ExecSQL(tpch.Q6ishSQL)
		if err != nil {
			return c, err
		}
		c.lat = append(c.lat, time.Since(start))
		if rs.NumRows() != 1 {
			return c, fmt.Errorf("bad result: %d rows", rs.NumRows())
		}
		for _, row := range rs.Rows() {
			fmt.Fprintln(digest, row...)
		}
	}
	settleHopBytes(ring)
	c.hops = ring.HopStats()
	c.resends = ringResends(ring)
	c.digest = fmt.Sprintf("%016x", digest.Sum64())
	frags, _ := ring.Fragments("lineitem.l_shipdate")
	c.fragments = len(frags)
	return c, nil
}

// Served is a live TPC-H ring behind the network query service.
type Served struct {
	Ring *live.Ring
	Srv  *server.Server
}

// ServeRing builds an n-node ring over db and serves every node on a
// loopback listener.
func ServeRing(nodes int, db *tpch.DB, cfg live.Config, scfg server.Config) (*Served, error) {
	ring, err := live.NewRing(nodes, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		return nil, err
	}
	srv, err := server.Serve(ring, scfg)
	if err != nil {
		ring.Close()
		return nil, err
	}
	return &Served{Ring: ring, Srv: srv}, nil
}

// Close stops the listeners, then the ring.
func (s *Served) Close() {
	s.Srv.Close()
	s.Ring.Close()
}

// serveReplicated is the served ring the failover and join sweeps
// share: one replica per fragment, the given failure detector, a short
// resend timeout, and the healthy ring's fingerprint of the workload
// query, which every later answer must reproduce.
func serveReplicated(nodes int, db *tpch.DB, hb membership.Config) (*Served, map[string]string, error) {
	cfg := live.DefaultConfig()
	cfg.Replicas = 1
	cfg.Heartbeat = hb
	cfg.Core.ResendTimeout = 100 * time.Millisecond
	s, err := ServeRing(nodes, db, cfg, server.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	ref, err := queryFingerprint(s.Srv.Addrs()[0], tpch.Q6ishSQL, 30*time.Second)
	if err != nil {
		s.Close()
		return nil, nil, fmt.Errorf("reference query: %w", err)
	}
	return s, map[string]string{tpch.Q6ishSQL: ref}, nil
}

// queryFingerprint runs sql once on a fresh session to addr.
func queryFingerprint(addr, sql string, timeout time.Duration) (string, error) {
	cl, err := dcclient.Dial(addr)
	if err != nil {
		return "", err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	rs, err := cl.Query(ctx, sql)
	if err != nil {
		return "", err
	}
	return fingerprintRows(rs.Rows()), nil
}

// fingerprintRows reduces a result to an order-insensitive key (row
// order is not part of the result contract).
func fingerprintRows(rows [][]any) string {
	keys := make([]string, len(rows))
	for i, row := range rows {
		keys[i] = fmt.Sprint(row)
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// reference is what every answer to one statement must reproduce: the
// fingerprint of its rows and, for a statement that adopted its first
// answer, that answer, whose cells a later one is compared with first.
type reference struct {
	rs *mal.ResultSet // nil for a fingerprint from LoadSpec.Refs
	fp func() string
}

// answerRef adopts rs as the reference; its fingerprint is taken only
// if an answer's cells differ from it.
func answerRef(rs *mal.ResultSet) *reference {
	return &reference{rs: rs, fp: sync.OnceValue(func() string { return fingerprintRows(rs.Rows()) })}
}

// matches reports whether rs answers what the reference does: the same
// cells in the same order or, since row order is not part of the
// result contract, the same fingerprint. The in-order comparison
// accepts only answers the fingerprint accepts too.
func (r *reference) matches(rs *mal.ResultSet) bool {
	return r.rs != nil && sameCells(r.rs, rs) || fingerprintRows(rs.Rows()) == r.fp()
}

// sameCells reports whether two results hold the same columns of the
// same kinds with equal values row by row (floats to the bit). A column
// whose wire form is the other's, byte for byte, decodes to the same
// values, so only a column that differs there is read value by value.
func sameCells(a, b *mal.ResultSet) bool {
	if len(a.Cols) != len(b.Cols) {
		return false
	}
	for c := range a.Cols {
		if slices.EqualFunc(bat.MarshalVec(a.Cols[c]), bat.MarshalVec(b.Cols[c]), bytes.Equal) {
			continue
		}
		x, y := a.Cols[c].Tail(), b.Cols[c].Tail()
		n := x.Len()
		if x.Kind() != y.Kind() || y.Len() != n {
			return false
		}
		switch x.Kind() {
		case bat.KInt:
			for i := 0; i < n; i++ {
				if x.Int(i) != y.Int(i) {
					return false
				}
			}
		case bat.KFloat:
			for i := 0; i < n; i++ {
				if math.Float64bits(x.Float(i)) != math.Float64bits(y.Float(i)) {
					return false
				}
			}
		case bat.KStr:
			for i := 0; i < n; i++ {
				if x.Str(i) != y.Str(i) {
					return false
				}
			}
		default:
			for i := 0; i < n; i++ {
				if x.Value(i) != y.Value(i) {
					return false
				}
			}
		}
	}
	return true
}

// LoadSpec describes one closed-loop client fan-out.
type LoadSpec struct {
	Targets []string // node addresses; session w dials Targets[w%len]
	Clients int      // concurrent sessions
	Queries int      // total query budget, shared by the sessions
	Mix     []string // statements; the n-th query runs Mix[n%len]
	Zipf    float64  // θ > 0: each session draws from a Seed-ed Zipf(θ) over Mix instead
	Seed    int64
	Timeout time.Duration // per query
	// Refs holds the fingerprint every answer to a statement must
	// reproduce; a statement without one adopts its first answer, and
	// a later answer is fingerprinted only when its cells differ from
	// that one's.
	Refs map[string]string
}

// Sample is one correct answer: when its query started, how long it took.
type Sample struct {
	Start time.Time
	Lat   time.Duration
}

// LoadResult aggregates a fan-out.
type LoadResult struct {
	OK, Rejected, Failed, Incorrect int64
	Samples                         []Sample // the OK answers
	Wall                            time.Duration
	Errors                          []string // the first maxLoadErrors
}

const maxLoadErrors = 10

// Load is a running fan-out.
type Load struct {
	third chan struct{}
	done  chan struct{}
	res   LoadResult
}

// Third is closed once a third of the query budget has completed (or
// the load ended short of it): the instant the sweeps inject their
// mid-run event, with sessions bound to every node.
func (l *Load) Third() <-chan struct{} { return l.third }

// Wait blocks until every session has drained the budget.
func (l *Load) Wait() *LoadResult {
	<-l.done
	return &l.res
}

// StartLoad dials spec.Clients sessions and, once every dial has
// returned, has them drain the query budget, each firing its next query
// as soon as the previous one answers: no query completes, and so no
// Third fires, while a session is still dialling. Every answer is
// checked against the statement's reference (reference.matches);
// admission rejections (IsTemporary) are counted apart from hard
// failures.
func StartLoad(spec LoadSpec) *Load {
	l := &Load{third: make(chan struct{}), done: make(chan struct{})}
	refs := make(map[string]*reference, len(spec.Refs))
	for sql, fp := range spec.Refs {
		refs[sql] = &reference{fp: func() string { return fp }}
	}
	var (
		mu        sync.Mutex // guards refs, completed and l.res
		completed int
		next      atomic.Int64
		thirdOnce sync.Once
		wg        sync.WaitGroup
		dialed    sync.WaitGroup // every session's dial returned
		started   = time.Now()
		res       = &l.res
	)
	closeThird := func() { thirdOnce.Do(func() { close(l.third) }) }
	// note keeps the first few error messages; called with mu held.
	note := func(w int, err error) {
		if len(res.Errors) < maxLoadErrors {
			res.Errors = append(res.Errors, fmt.Sprintf("client %d: %v", w, err))
		}
	}
	dialed.Add(spec.Clients)
	for w := 0; w < spec.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := dcclient.Dial(spec.Targets[w%len(spec.Targets)])
			dialed.Done()
			if err != nil {
				mu.Lock()
				res.Failed++
				note(w, err)
				mu.Unlock()
				return
			}
			defer cl.Close()
			dialed.Wait()
			var pick func(*rand.Rand) int
			var rng *rand.Rand
			if spec.Zipf > 0 {
				pick = workload.ZipfPick(len(spec.Mix), spec.Zipf)
				rng = rand.New(rand.NewSource(spec.Seed + int64(w)))
			}
			for {
				n := next.Add(1)
				if n > int64(spec.Queries) {
					return
				}
				sql := spec.Mix[int(n)%len(spec.Mix)]
				if pick != nil {
					sql = spec.Mix[pick(rng)]
				}
				ctx, cancel := context.WithTimeout(context.Background(), spec.Timeout)
				start := time.Now()
				rs, err := cl.Query(ctx, sql)
				lat := time.Since(start)
				cancel()
				var ref *reference
				correct := true
				if err == nil {
					mu.Lock()
					if ref = refs[sql]; ref == nil {
						refs[sql] = answerRef(rs)
					}
					mu.Unlock()
					correct = ref == nil || ref.matches(rs)
				}
				mu.Lock()
				if completed++; completed >= spec.Queries/3 {
					closeThird()
				}
				switch {
				case err == nil && !correct:
					res.Incorrect++
					note(w, fmt.Errorf("result mismatch for %.40q", sql))
				case err == nil:
					res.OK++
					res.Samples = append(res.Samples, Sample{start, lat})
				case dcclient.IsTemporary(err):
					res.Rejected++
				default:
					res.Failed++
					note(w, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	go func() {
		wg.Wait()
		res.Wall = time.Since(started)
		closeThird()
		close(l.done)
	}()
	return l
}

// lats returns the latencies of the correct answers.
func (r *LoadResult) lats() []time.Duration {
	out := make([]time.Duration, len(r.Samples))
	for i, s := range r.Samples {
		out[i] = s.Lat
	}
	return out
}

// String is the throughput / outcome / latency summary dcload prints.
func (r *LoadResult) String() string {
	s := fmt.Sprintf("throughput: %.0f q/s (completed %d)\noutcomes: ok=%d rejected=%d failed=%d incorrect=%d\n",
		float64(r.OK)/r.Wall.Seconds(), r.OK, r.OK, r.Rejected, r.Failed, r.Incorrect)
	if lat := r.lats(); len(lat) > 0 {
		s += fmt.Sprintf("latency: p50=%s p95=%s p99=%s max=%s\n",
			quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 1))
	}
	return s
}
