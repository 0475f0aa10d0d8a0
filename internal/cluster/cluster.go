// Package cluster assembles a simulated Data Cyclotron ring: N nodes,
// each running the core runtime, wired through the netsim storage ring,
// driven by the discrete-event kernel. It is the counterpart of the
// paper's NS-2 setup (§5): queries arrive at nodes, issue request() for
// the BATs they touch, block in pin() until fragments flow past, spend
// CPU time per fragment, and finish. The package records every metric
// the evaluation section plots.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Config describes one simulated ring.
type Config struct {
	// Nodes is the ring size (paper base topology: 10).
	Nodes int
	// Ring holds the link parameters (defaults are the paper's:
	// 10 Gb/s, 350 µs, 200 MB DropTail BAT queues).
	Ring netsim.RingConfig
	// Core configures the DC runtime on every node.
	Core core.Config
	// CoresPerNode bounds CPU parallelism per node (TPC-H uses 4).
	// Zero means unlimited (the synthetic workloads of §5.1-5.3).
	CoresPerNode int
	// SpareNodes are built inactive, awaiting ActivateNode — the named
	// service of §6.3's pulsating rings.
	SpareNodes int
	// SampleEvery controls metric sampling granularity.
	SampleEvery time.Duration
}

// DefaultConfig mirrors the paper's base topology.
func DefaultConfig() Config {
	return Config{
		Nodes:       10,
		Ring:        netsim.DefaultRingConfig(),
		Core:        core.DefaultConfig(),
		SampleEvery: time.Second,
	}
}

// BATSpec declares one data fragment.
type BATSpec struct {
	ID    core.BATID
	Size  int
	Owner core.NodeID
	Tag   string // workload tag (e.g. "dh1") for per-hot-set accounting
}

// Step is one pin in a query's execution: pin BAT, then spend Proc of
// CPU once it is delivered, then unpin.
type Step struct {
	BAT  core.BATID
	Proc time.Duration
}

// QuerySpec declares one query.
type QuerySpec struct {
	ID      core.QueryID
	Node    core.NodeID
	Arrival time.Duration
	// InitialThink is CPU time before the first pin (the OpT1 of the
	// TPC-H calibration, §5.4); zero for the synthetic workloads.
	InitialThink time.Duration
	Steps        []Step
	Tag          string // workload tag (e.g. "sw1") for Figure 8b
}

// TotalProc reports the net execution time: the sum of all CPU segments.
func (q *QuerySpec) TotalProc() time.Duration {
	total := q.InitialThink
	for _, s := range q.Steps {
		total += s.Proc
	}
	return total
}

// Metrics aggregates everything the experiments plot.
type Metrics struct {
	Registered *metrics.Events // query arrival times
	Finished   *metrics.Events // query completion times
	Lifetime   *metrics.Histogram
	// FinishedByTag and RingBytesByTag drive Figure 8.
	FinishedByTag  map[string]*metrics.Events
	RingBytesByTag map[string]*metrics.Series
	// RingBytes/RingBATs are the Figure 7 series (loaded hot set).
	RingBytes *metrics.Series
	RingBATs  *metrics.Series
	// QueueBytes samples the sum of outbound BAT queues.
	QueueBytes *metrics.Series
	// Per-BAT counters for Figures 9-11.
	Touches   *metrics.IntMap   // deliveries to queries
	Requests  *metrics.IntMap   // request messages sent (incl. resends)
	Loads     *metrics.IntMap   // hot-set admissions
	MaxCycles *metrics.IntMap   // max cycles survived
	MaxReqLat *metrics.FloatMap // max request->delivery latency (sec)
	// Errors counts queries aborted by "BAT does not exist".
	Errors int
}

func newMetrics() *Metrics {
	return &Metrics{
		Registered:     &metrics.Events{Name: "registered"},
		Finished:       &metrics.Events{Name: "finished"},
		Lifetime:       metrics.NewHistogram("lifetime", 5),
		FinishedByTag:  map[string]*metrics.Events{},
		RingBytesByTag: map[string]*metrics.Series{},
		RingBytes:      &metrics.Series{Name: "ring-bytes"},
		RingBATs:       &metrics.Series{Name: "ring-bats"},
		QueueBytes:     &metrics.Series{Name: "queue-bytes"},
		Touches:        metrics.NewIntMap("touches"),
		Requests:       metrics.NewIntMap("requests"),
		Loads:          metrics.NewIntMap("loads"),
		MaxCycles:      metrics.NewIntMap("max-cycles"),
		MaxReqLat:      metrics.NewFloatMap("max-request-latency"),
	}
}

// Cluster is one simulated Data Cyclotron ring.
type Cluster struct {
	cfg   Config
	sim   *sim.Simulator
	ring  *netsim.Ring
	nodes []*Node
	bats  map[core.BATID]BATSpec
	m     *Metrics

	queriesActive int
	queriesTotal  int
	queriesDone   int

	// hot-set accounting (sum of loaded BAT sizes, owner view)
	loadedBytes  int
	loadedBATs   int
	loadedByTag  map[string]int
	stopSampling func()
}

// New builds a cluster. BATs and queries are added afterwards.
func New(cfg Config) *Cluster {
	if cfg.Nodes < 2 {
		panic("cluster: need at least 2 nodes")
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = time.Second
	}
	c := &Cluster{
		cfg:         cfg,
		sim:         sim.New(),
		bats:        map[core.BATID]BATSpec{},
		m:           newMetrics(),
		loadedByTag: map[string]int{},
	}
	total := cfg.Nodes + cfg.SpareNodes
	handlers := make([]netsim.Handler, total)
	for i := 0; i < total; i++ {
		n := newNode(c, core.NodeID(i))
		c.nodes = append(c.nodes, n)
		handlers[i] = n
	}
	c.ring = netsim.NewRing(c.sim, cfg.Ring, handlers)
	for i, n := range c.nodes {
		if i >= cfg.Nodes {
			c.ring.SetActive(i, false) // spare, awaiting call of duty
			continue
		}
		n.rt.Start()
	}
	c.stopSampling = c.sim.Ticker(cfg.SampleEvery, c.sample)
	return c
}

// Sim exposes the event kernel (for tests and custom drivers).
func (c *Cluster) Sim() *sim.Simulator { return c.sim }

// Metrics returns the recorded measurements.
func (c *Cluster) Metrics() *Metrics { return c.m }

// Node returns node i's runtime (for inspection).
func (c *Cluster) Node(i int) *core.Runtime { return c.nodes[i].rt }

// Nodes reports the initially-active ring size (spares excluded).
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// TotalNodes reports all built nodes, including inactive spares.
func (c *Cluster) TotalNodes() int { return len(c.nodes) }

// QueriesDone reports completed queries.
func (c *Cluster) QueriesDone() int { return c.queriesDone }

// QueriesTotal reports submitted queries.
func (c *Cluster) QueriesTotal() int { return c.queriesTotal }

// LoadedBytes reports the current hot-set size in bytes (owner view).
func (c *Cluster) LoadedBytes() int { return c.loadedBytes }

// AddBAT registers a fragment with its owner's S1 catalog.
func (c *Cluster) AddBAT(spec BATSpec) {
	if _, dup := c.bats[spec.ID]; dup {
		panic(fmt.Sprintf("cluster: duplicate BAT %d", spec.ID))
	}
	if int(spec.Owner) < 0 || int(spec.Owner) >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: BAT %d owner %d out of range", spec.ID, spec.Owner))
	}
	c.bats[spec.ID] = spec
	c.nodes[spec.Owner].rt.AddOwned(spec.ID, spec.Size)
}

// BAT looks up a fragment spec.
func (c *Cluster) BAT(id core.BATID) (BATSpec, bool) {
	s, ok := c.bats[id]
	return s, ok
}

// Submit schedules a query for execution at its arrival time.
func (c *Cluster) Submit(spec QuerySpec) {
	if int(spec.Node) < 0 || int(spec.Node) >= len(c.nodes) {
		panic(fmt.Sprintf("cluster: query %d node %d out of range", spec.ID, spec.Node))
	}
	c.queriesTotal++
	c.sim.ScheduleAt(sim.Time(spec.Arrival), func() {
		// A node that left the ring (§6.3) no longer accepts queries;
		// route to its clockwise successor instead.
		if !c.ring.Active(int(spec.Node)) {
			spec.Node = core.NodeID(c.nextActiveAfter(int(spec.Node)))
		}
		c.nodes[spec.Node].startQuery(spec, nil)
	})
}

// Run advances the simulation until all submitted queries finished or
// maxTime elapses, whichever comes first. It returns the virtual time
// at the end of the run.
func (c *Cluster) Run(maxTime time.Duration) time.Duration {
	limit := sim.Time(maxTime)
	for c.sim.Now() < limit {
		if c.queriesDone >= c.queriesTotal && c.sim.Now() > 0 {
			break
		}
		if !c.sim.Step() {
			break
		}
	}
	c.sample() // final sample
	return time.Duration(c.sim.Now())
}

// RunFor advances the simulation for exactly d of virtual time,
// regardless of query completion.
func (c *Cluster) RunFor(d time.Duration) {
	c.sim.RunUntil(c.sim.Now().Add(d))
	c.sample()
}

// sample records the periodic ring-load series.
func (c *Cluster) sample() {
	t := c.sim.Now().Seconds()
	c.m.RingBytes.Add(t, float64(c.loadedBytes))
	c.m.RingBATs.Add(t, float64(c.loadedBATs))
	c.m.QueueBytes.Add(t, float64(c.ring.TotalDataQueued()))
	for tag, bytes := range c.loadedByTag {
		s := c.m.RingBytesByTag[tag]
		if s == nil {
			s = &metrics.Series{Name: "ring-bytes-" + tag}
			c.m.RingBytesByTag[tag] = s
		}
		s.Add(t, float64(bytes))
	}
}

// ---------------------------------------------------------------------
// Node: Env implementation + query execution
// ---------------------------------------------------------------------

// Node is one simulated ring participant.
type Node struct {
	c  *Cluster
	id core.NodeID
	rt *core.Runtime

	queries map[core.QueryID]*queryRun

	// CPU core scheduler (TPC-H mode): next free time per core.
	coreFree []sim.Time
	busy     time.Duration // accumulated CPU busy time

	// reqIssued records when the first outstanding request for a BAT
	// was sent, to measure the request latency of Figure 10.
	reqIssued map[core.BATID]sim.Time
}

func newNode(c *Cluster, id core.NodeID) *Node {
	n := &Node{
		c:         c,
		id:        id,
		queries:   map[core.QueryID]*queryRun{},
		reqIssued: map[core.BATID]sim.Time{},
	}
	if c.cfg.CoresPerNode > 0 {
		n.coreFree = make([]sim.Time, c.cfg.CoresPerNode)
	}
	n.rt = core.New(id, (*nodeEnv)(n), c.cfg.Core)
	return n
}

// BusyTime reports the accumulated CPU time of the node.
func (n *Node) BusyTime() time.Duration { return n.busy }

// HandleData implements netsim.Handler for clockwise BAT messages.
func (n *Node) HandleData(m netsim.Message) {
	bm := m.(core.BATMsg)
	// Pulsating rings: adopt fragments whose recorded owner left the
	// ring — the handover made this node their owner.
	if !n.c.ring.Active(int(bm.Owner)) && n.rt.Owns(bm.BAT) {
		bm.Owner = n.id
	}
	if bm.Owner == n.id {
		// About to complete a cycle: record the cycle count it reaches.
		n.c.m.MaxCycles.SetMax(int(bm.BAT), bm.Cycles+1)
	}
	n.rt.OnBAT(bm)
	n.drain()
}

// HandleRequest implements netsim.Handler for anti-clockwise requests.
func (n *Node) HandleRequest(m netsim.Message) {
	rm := m.(core.RequestMsg)
	// Requests whose origin left the ring would otherwise circulate
	// forever; drop them (the origin's queries are gone).
	if !n.c.ring.Active(int(rm.Origin)) {
		return
	}
	n.rt.OnRequest(rm)
	n.drain()
}

// nodeEnv adapts Node to core.Env. A separate type keeps the Env
// methods out of Node's public API.
type nodeEnv Node

func (e *nodeEnv) Now() time.Duration { return time.Duration(e.c.sim.Now()) }

func (e *nodeEnv) QueueLoad() (int, int) {
	return e.c.ring.DataQueued(int(e.id)), e.c.ring.DataQueueCap(int(e.id))
}

type simTimer struct{ ev *sim.Event }

func (t simTimer) Cancel() { t.ev.Cancel() }

func (e *nodeEnv) After(d time.Duration, fn func()) core.TimerHandle {
	n := (*Node)(e)
	return simTimer{ev: e.c.sim.Schedule(d, func() {
		fn()
		n.drain()
	})}
}

// drain applies the effects the runtime emitted, in emission order. It
// runs right after every runtime call that can emit, so the simulated
// links see each send at the virtual instant the runtime made it.
func (n *Node) drain() {
	var buf [8]core.Effect
	for _, e := range n.rt.Effects(buf[:0]) {
		n.apply(e)
	}
}

func (n *Node) apply(e core.Effect) {
	c := n.c
	switch e.Kind {
	case core.SendData:
		// Admitted hot-set data is never tail-dropped (§4.3).
		c.ring.SendData(int(n.id), e.Data, true)
	case core.SendRequest:
		if e.Req.Origin == n.id {
			if _, ok := n.reqIssued[e.Req.BAT]; !ok {
				n.reqIssued[e.Req.BAT] = c.sim.Now()
			}
			c.m.Requests.Inc(int(e.Req.BAT), 1)
		}
		c.ring.SendRequest(int(n.id), e.Req)
	case core.Deliver:
		if at, ok := n.reqIssued[e.BAT]; ok {
			c.m.MaxReqLat.SetMax(int(e.BAT), c.sim.Now().Sub(at).Seconds())
			delete(n.reqIssued, e.BAT)
		}
		c.m.Touches.Inc(int(e.BAT), 1)
		// Queries advance as a fresh event, so a pin() issued on delivery
		// never runs inside another query's step.
		c.sim.Schedule(0, func() { n.onDeliver(e.Query, e.BAT) })
	case core.QueryError:
		if run := n.queries[e.Query]; run != nil {
			c.m.Errors++
			n.finish(run, true)
		}
	case core.Loaded, core.Unloaded:
		size, bats := e.Size, 1
		if e.Kind == core.Unloaded {
			size, bats = -size, -1
		} else {
			c.m.Loads.Inc(int(e.BAT), 1)
		}
		c.loadedBytes += size
		c.loadedBATs += bats
		if spec, ok := c.bats[e.BAT]; ok && spec.Tag != "" {
			c.loadedByTag[spec.Tag] += size
		}
	}
}

// ---------------------------------------------------------------------
// query lifecycle
// ---------------------------------------------------------------------

type queryRun struct {
	spec    QuerySpec
	start   sim.Time
	step    int        // index into spec.Steps
	waiting core.BATID // BAT the current pin waits for, -1 if none
	parent  *parallelQuery
}

// startQuery starts a query, or with a parent one part of a split
// query (§6.1), whose completion is reported to the parent coordinator
// instead of the global metrics.
func (n *Node) startQuery(spec QuerySpec, parent *parallelQuery) {
	run := &queryRun{spec: spec, start: n.c.sim.Now(), waiting: -1, parent: parent}
	n.queries[spec.ID] = run
	n.c.queriesActive++
	if parent == nil {
		n.c.m.Registered.Add(n.c.sim.Now().Seconds())
	}
	// request() calls are injected at plan start and never block (§4.1).
	for _, s := range spec.Steps {
		n.rt.Request(spec.ID, s.BAT)
	}
	n.drain()
	n.think(spec.InitialThink, func() { n.startStep(run) })
}

// think occupies a CPU core for d (or just delays when unlimited).
func (n *Node) think(d time.Duration, then func()) {
	if d <= 0 {
		// Keep event ordering deterministic: even zero-length CPU
		// segments go through the scheduler.
		n.c.sim.Schedule(0, then)
		return
	}
	n.busy += d
	if n.coreFree == nil {
		n.c.sim.Schedule(d, then)
		return
	}
	best := 0
	for i, f := range n.coreFree {
		if f < n.coreFree[best] {
			best = i
		}
	}
	start := n.coreFree[best]
	if now := n.c.sim.Now(); start < now {
		start = now
	}
	end := start.Add(d)
	n.coreFree[best] = end
	n.c.sim.ScheduleAt(end, then)
}

func (n *Node) startStep(run *queryRun) {
	if n.queries[run.spec.ID] != run {
		return // finished or aborted concurrently
	}
	if run.step >= len(run.spec.Steps) {
		n.finish(run, false)
		return
	}
	s := run.spec.Steps[run.step]
	run.waiting = s.BAT
	n.rt.Pin(run.spec.ID, s.BAT)
	n.drain()
}

func (n *Node) onDeliver(q core.QueryID, b core.BATID) {
	run := n.queries[q]
	if run == nil || run.waiting != b {
		return
	}
	run.waiting = -1
	s := run.spec.Steps[run.step]
	n.think(s.Proc, func() {
		if n.queries[q] != run {
			return
		}
		n.rt.Unpin(q, b)
		run.step++
		n.startStep(run)
	})
}

func (n *Node) finish(run *queryRun, failed bool) {
	if n.queries[run.spec.ID] != run {
		return
	}
	delete(n.queries, run.spec.ID)
	n.c.queriesActive--
	var bats []core.BATID
	for _, s := range run.spec.Steps {
		bats = append(bats, s.BAT)
	}
	n.rt.CancelQuery(run.spec.ID, bats)
	if run.parent != nil {
		run.parent.childDone(failed)
		return
	}
	n.c.queriesDone++
	now := n.c.sim.Now()
	if !failed {
		n.c.m.Finished.Add(now.Seconds())
		n.c.m.Lifetime.Observe(now.Sub(run.start).Seconds())
		if run.spec.Tag != "" {
			ev := n.c.m.FinishedByTag[run.spec.Tag]
			if ev == nil {
				ev = &metrics.Events{Name: "finished-" + run.spec.Tag}
				n.c.m.FinishedByTag[run.spec.Tag] = ev
			}
			ev.Add(now.Seconds())
		}
	}
}

// CPUUtilization reports the fraction of CPU capacity used across all
// nodes over elapsed simulated time (Table 4's CPU%).
func (c *Cluster) CPUUtilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	cores := c.cfg.CoresPerNode
	if cores == 0 {
		cores = 1
	}
	var busy time.Duration
	for _, n := range c.nodes {
		busy += n.busy
	}
	total := time.Duration(c.cfg.Nodes*cores) * elapsed
	return float64(busy) / float64(total)
}

// NodeBusy reports node i's accumulated CPU time.
func (c *Cluster) NodeBusy(i int) time.Duration { return c.nodes[i].busy }
