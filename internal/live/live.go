// Package live runs a real Data Cyclotron ring: every node hosts the
// column-store engine, the MAL interpreter, and the same core runtime
// the simulator validates, wired to its neighbours through the emulated
// RDMA transport. SQL queries submitted to any node are compiled,
// rewritten by the DcOptimizer, and executed with pin() calls blocking
// until the fragments flow past — the full §4 architecture, live.
package live

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/dcopt"
	"repro/internal/mal"
	"repro/internal/membership"
	"repro/internal/minisql"
	"repro/internal/netsim"
	"repro/internal/rdma"
)

// Transport names the neighbour interconnect. There is one: every ring
// link is a loopback TCP connection under the rdma tcp provider.
//
// Deprecated: the type, Config.Transport and TCP are kept only for the
// benchmark harness, which still sets Config.Transport = TCP. ROADMAP
// item 1S deletes that line and then them.
type Transport int

// TCP connects neighbours through real loopback TCP sockets using the
// rdma tcp provider: full framing and serialization on the wire, the
// closest this environment gets to the RDMA fabric. It is the zero
// value.
//
// Deprecated: leave Config.Transport unset.
const TCP Transport = 0

// Config tunes the live ring.
type Config struct {
	Core core.Config
	// QueueCap is the per-node BAT queue capacity in bytes.
	QueueCap int
	// Workers is the MAL dataflow parallelism per query, and how many
	// fragments of one aligned map it processes at once.
	Workers int
	// Transport must be TCP, its zero value.
	//
	// Deprecated: leave it unset.
	Transport Transport
	// FragmentRows bounds the rows per circulated fragment: a longer
	// column is split into independently circulating fragments, each
	// with its own BATID and level of interest (the granularity axis of
	// §5). 0 puts every column in one fragment, pinned through the same
	// aligned map as any other fragment list.
	FragmentRows int
	// CacheBytes budgets the per-node hot-set fragment cache: ring
	// deliveries are kept resident so a repeat pin of an unchanged
	// fragment is a version-validated node-local read instead of a ring
	// wait (see hotcache.go). 0 disables the cache entirely, restoring
	// the pure-circulation behavior (every pin waits for the ring).
	CacheBytes int
	// HopBatchBytes budgets the batched hop transport: co-resident
	// outbound fragments coalesce into one multi-payload batch envelope
	// of at most this many wire bytes (see hop.go). 0 disables batching
	// entirely: every fragment travels as its own v2 message, exactly
	// the pre-batching ring.
	HopBatchBytes int
	// Replicas installs each fragment on its owner plus this many ring
	// successors and enables the elastic-membership subsystem:
	// heartbeat failure detection multiplexed on the data links, a
	// monotonically versioned membership view gossiped with the beats,
	// and automatic failover (replica promotion, catalog repair, ring
	// splice) when a node is declared dead. 0 disables all of it — no
	// detectors, no heartbeat traffic, no replica state — leaving the
	// single-owner ring byte-identical to the pre-membership path.
	Replicas int
	// Heartbeat tunes the failure detector (pulse interval, missed-beat
	// suspicion and death thresholds). Zero fields take membership
	// defaults; only consulted when Replicas > 0.
	Heartbeat membership.Config
	// JoinFaults, when non-nil, injects faults into join state
	// transfer: every migrated fragment's wire bytes consult the
	// injector, so tests drop or delay the donation stream (the same
	// netsim.Faults policy that drives the simulated links). Production
	// rings leave it nil.
	JoinFaults *netsim.Faults
	// placeFragment overrides the round-robin fragment placement
	// (test hook: shuffled placements exercise adverse arrival orders).
	placeFragment func(frag, nodes int) int
}

// DefaultConfig is where every live ring here starts: 64K-row
// fragments, a 64 MB hot-set cache per node, 1 MiB hop batches, and
// protocol timers short enough for a ring of a few nodes.
func DefaultConfig() Config {
	cfg := Config{
		Core:          core.DefaultConfig(),
		QueueCap:      256 << 20,
		Workers:       4,
		FragmentRows:  64 << 10,
		CacheBytes:    64 << 20,
		HopBatchBytes: 1 << 20,
	}
	// Live rings are small; short timers keep latencies low.
	cfg.Core.LoadAllPeriod = 20 * time.Millisecond
	cfg.Core.ResendTimeout = 2 * time.Second
	return cfg
}

// Ring is a live Data Cyclotron: n nodes connected through rdma queue
// pairs, with the database columns fragmented and partitioned over the
// nodes.
type Ring struct {
	// nodes is the ring's node list, published as an immutable snapshot:
	// readers (stats, placement, failover scans, the pin paths) load the
	// current slice without a lock, and Join publishes a grown copy with
	// a single atomic store — the copy-on-write analogue of the
	// membership view's monotone growth. Node ids are stable slice
	// indices; entries are never removed or reordered (a dead node stays
	// in place, marked dead in the membership view). Growth is
	// serialized by failMu.
	nodes atomic.Pointer[[]*Node]
	cfg   Config
	// name -> ordered fragment ids, global catalog agreed by all nodes.
	// Guarded by idsMu because Publish extends it at runtime (§6.2).
	idsMu sync.RWMutex
	cols  map[string]*colFrags
	names []string
	// fragVer is the catalog's current version per fragment id (base
	// data is 0). The map is extended under idsMu (Publish); the values
	// are atomics so the pin fast path validates a cache entry without
	// touching any owner lock. UpdateColumn advances them inside its
	// ordered column/owner critical section.
	fragVer map[core.BATID]*atomic.Int64
	// colLocks holds the per-column mutexes (name → *sync.Mutex) that
	// serialize every install and move of a column's fragments — see
	// move.go.
	colLocks sync.Map
	wg       sync.WaitGroup

	// Exact ring message limit, kept so failover and join can build
	// links identical to the originals (newLinks).
	maxMsgBytes int

	// fragCol maps every fragment id back to its column name (guarded
	// by idsMu, extended by Publish): failover groups a dead node's
	// fragments by column so promotion serializes against UpdateColumn
	// through the same per-column lock.
	fragCol map[core.BATID]string

	// Membership state and the placement catalog (move.go). memMu guards
	// deadNodes, fragOwner, and fragReplicas; it is a leaf lock.
	memMu        sync.RWMutex
	deadNodes    map[core.NodeID]bool
	fragOwner    map[core.BATID]core.NodeID
	fragReplicas map[core.BATID][]core.NodeID
	// failMu serializes failovers (several survivors may declare the
	// same death within one heartbeat interval).
	failMu     sync.Mutex
	failovers  int64 // atomic: nodes declared dead and failed over
	promotions int64 // atomic: fragments re-owned from replicas
	lostFrags  int64 // atomic: fragments dead with no surviving replica
	joins      int64 // atomic: nodes admitted at runtime
	migrations int64 // atomic: fragments re-owned toward a joiner
}

// nodeList loads the current node snapshot. The slice is immutable —
// Join publishes growth by storing a longer copy — so callers may
// iterate it without holding any lock.
func (r *Ring) nodeList() []*Node { return *r.nodes.Load() }

// node returns ring position i from the current snapshot.
func (r *Ring) node(i int) *Node { return (*r.nodes.Load())[i] }

// Node is one live ring participant.
type Node struct {
	ring *Ring
	id   core.NodeID
	cfg  Config

	mu sync.Mutex // guards rt and all runtime-adjacent state
	rt *core.Runtime

	// store holds the owned fragment versions ("local disk"), always in
	// GC memory.
	store map[core.BATID]*fragment
	// transit holds the fragment versions currently flowing through.
	transit map[core.BATID]*fragment
	// cached holds the ring deliveries local queries hold pinned, while
	// the runtime counts a pin on them (unrefCached).
	cached map[core.BATID]*fragment
	// slabs tracks the receive slabs this node's payloads are views of
	// (slab.go).
	slabs slabSet

	// hot is the node's hot-set fragment cache (nil when
	// Config.CacheBytes is 0: every new code path gates on it, so a
	// disabled cache leaves the pure-circulation behavior untouched).
	hot *hotCache

	// waiters holds each query's ring waits on a fragment, chained
	// through fragAcq.next, which one delivery ends; sharedPins counts
	// the holders beyond one of that delivery's runtime pin (releaseRing).
	waiters    map[waitKey]*fragAcq
	sharedPins map[waitKey]int
	errs       map[core.QueryID]queryErr

	// The four neighbour links. linkMu guards the pointers themselves:
	// failover splices fresh messengers around a dead neighbour at
	// runtime, and the receive loops re-check the current link when a
	// Recv fails (relinked vs shut down). The messengers' own methods
	// are concurrency-safe; only the pointer swap needs the lock.
	linkMu  sync.RWMutex
	dataOut *rdma.Messenger // to successor (clockwise)
	reqOut  *rdma.Messenger // to predecessor (anti-clockwise)
	dataIn  *rdma.Messenger // from predecessor
	reqIn   *rdma.Messenger // from successor
	// relinked is closed, and replaced, by every relink: a receive loop
	// whose link failed waits on it for the replacement (awaitLink).
	relinked chan struct{}

	outBytes int64 // outstanding outbound data bytes (queue load)

	schema minisql.Schema
	start  time.Time
	nextQ  int64
	closed chan struct{}

	activeQueries int64

	// Ring-hop accounting (atomic): total data bytes sent and the
	// largest single data message — the fragmentation experiments read
	// these to plot hop cost against fragment size.
	hopBytes    int64
	maxHopBytes int64

	// hop is the outbound data scheduler every hop goes through (one
	// fragment a message when Config.HopBatchBytes is 0), and reqs the
	// request sender's queue (sendLoop). The counters below feed
	// HopStats, so batched and unbatched runs compare directly.
	hop            *hopScheduler
	reqs           outQueue[core.RequestMsg]
	hopMsgs        int64
	hopSingles     int64
	hopBatchesSent int64
	hopFrags       int64
	hopFill        [8]int64

	// Ring-wait accounting (atomic): how many pins blocked on ring
	// circulation and the total time they spent blocked — the latency
	// term the hot-set cache eliminates. Counted whether or not the
	// cache is enabled, so off-vs-on runs compare directly.
	ringWaits     int64
	ringWaitNanos int64

	// Revolution-time accounting: when one of this node's own fragments
	// returns full circle, the gap since its previous return is folded
	// into an EWMA (atomic revNanos) — the measured revolution time of
	// the ring this node sits on. lastSelfSeen is guarded by mu.
	lastSelfSeen map[core.BATID]int64
	revNanos     int64

	// interpRunning counts the queries inside mal.Run (leak detector
	// and drain hook).
	interpRunning int64

	// memb is this node's membership failure detector (nil when
	// Config.Replicas is 0 — the same nil-gating as hot).
	memb *membership.Detector
	// replicas holds this node's replica copies of fragments owned
	// elsewhere (this node is within Replicas ring successors of the
	// owner). Guarded by mu; nil when Replicas is 0.
	replicas map[core.BATID]*replicaFrag

	beatsSent int64 // atomic: heartbeat pulses sent
	beatsRecv int64 // atomic: heartbeat pulses received

	// recvParked is 1 while dataLoop is blocked in Recv awaiting
	// traffic — the only state in which predecessor silence is real
	// evidence. The failure detector ticks are gated on it: a node
	// that is busy processing (or waiting on its own locks) is not
	// listening, so the silence it observes is self-inflicted and must
	// not turn into a death verdict against an innocent predecessor.
	recvParked int32 // atomic

	// killOnce makes node shutdown idempotent: KillNode (simulated
	// crash), failover (authoritative death), and Ring.Close may each
	// try to stop the same node.
	killOnce sync.Once
	// linksClosed is set, under linkMu, once kill has closed the links:
	// relink then closes a spliced-in link instead of installing it.
	linksClosed bool
}

// unrefCached drops the cached payload of id, and its slab hold, once
// the runtime counts no local pin on it. Called with n.mu held, after
// every rt.Unpin.
func (n *Node) unrefCached(id core.BATID) {
	if f, ok := n.cached[id]; ok && n.rt.CachePins(id) == 0 {
		delete(n.cached, id)
		f.slab.release()
	}
}

// queryErr is how the runtime fails a running query (QueryError): the
// error ExecPlan returns, and the abort that cancels its interpreter.
type queryErr struct {
	ch    chan error
	abort func()
}

type waitKey struct {
	q core.QueryID
	b core.BATID
}

// NewRing builds an in-process live ring of n nodes over the given
// database columns. Each column is split into bounded-size fragments
// (Config.FragmentRows) and the fragments are assigned
// to nodes round-robin in (name, fragment) order — the random upfront
// partitioning of §4 made deterministic, at fragment granularity.
func NewRing(n int, columns map[string]*bat.BAT, schema minisql.Schema, cfg Config) (*Ring, error) {
	if n < 2 {
		return nil, fmt.Errorf("live: ring needs at least 2 nodes")
	}
	if cfg.Transport != TCP {
		return nil, fmt.Errorf("live: unknown transport %d", cfg.Transport)
	}
	if cfg.CacheBytes > 0 {
		// With the hot-set cache on, a local pin at the owner is served
		// from the store and everyone else is served from their caches:
		// ring admission should be driven by actual remote interest
		// (ring requests), not by local pins — a fully-hot workload then
		// causes zero circulation.
		cfg.Core.LocalPinsSkipLoad = true
	}
	if cfg.Core.ParkIdleCycles == 0 {
		// A live ring paces by LOI: a fragment that served nobody for two
		// straight revolutions parks at its owner until the next interest
		// signal, instead of burning hops. A negative ParkIdleCycles opts
		// out explicitly.
		cfg.Core.ParkIdleCycles = 2
	}
	if cfg.Core.ParkIdleCycles < 0 {
		cfg.Core.ParkIdleCycles = 0
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	}
	if cfg.Replicas >= n {
		cfg.Replicas = n - 1 // a fragment needs at most one copy per node
	}
	r := &Ring{
		cfg:          cfg,
		cols:         map[string]*colFrags{},
		fragVer:      map[core.BATID]*atomic.Int64{},
		fragCol:      map[core.BATID]string{},
		deadNodes:    map[core.NodeID]bool{},
		fragOwner:    map[core.BATID]core.NodeID{},
		fragReplicas: map[core.BATID][]core.NodeID{},
	}
	names := make([]string, 0, len(columns))
	for name := range columns {
		names = append(names, name)
	}
	sort.Strings(names)
	r.names = names
	// Fragment every column and compute the ring message limit (and
	// thus every RDMA memory region) exactly from the codec: the
	// largest *fragment's* encoded size — doubled as growth headroom
	// for updated versions — plus the fixed envelope header. No
	// serialization slack needed: MarshalSize is byte-exact, and the
	// regions shrink with the fragment bound instead of tracking the
	// largest column. The size is the wide fragment's, taken before
	// newFragment narrows it, so an update whose values no longer fit
	// the narrow width still fits the regions.
	type fragEntry struct {
		id core.BATID
		b  *bat.BAT
	}
	var frags []fragEntry
	maxPayload := 1 << 16
	next := core.BATID(0)
	for _, name := range names {
		b := columns[name]
		spans := fragmentSpans(b.Len(), cfg.FragmentRows)
		cf := &colFrags{}
		for _, sp := range spans {
			fb := b.Slice(sp[0], sp[1])
			if s := bat.MarshalSize(fb) * 2; s > maxPayload {
				maxPayload = s
			}
			cf.ids = append(cf.ids, next)
			frags = append(frags, fragEntry{next, fb})
			r.fragVer[next] = &atomic.Int64{}
			r.fragCol[next] = name
			next++
		}
		r.cols[name] = cf
	}
	maxBytes := dataHdrSize + maxPayload
	if cfg.HopBatchBytes > maxBytes {
		// A batch tops out at the byte budget (take() only coalesces
		// while the batch stays inside it); a single oversized fragment
		// still travels alone, so a message must fit whichever is
		// larger.
		maxBytes = cfg.HopBatchBytes
	}
	if cfg.Replicas > 0 {
		// A beat gossips one status byte per ring member; make sure the
		// data regions can carry it even on tiny test rings.
		if bs := beatMsgSize(n); bs > maxBytes {
			maxBytes = bs
		}
	}
	r.maxMsgBytes = maxBytes
	// Nodes and transports. Built into a local slice and published
	// before placement; Join later publishes grown copies the same way.
	// Link i of each kind leaves node i: data clockwise, requests the
	// other way.
	links, err := r.newLinks(n, n)
	if err != nil {
		return nil, err
	}
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, r.newNode(i, n, (i-1+n)%n, schema))
	}
	for i := 0; i < n; i++ {
		data, req := links[i], links[n+i]
		nodes[i].dataOut, nodes[(i+1)%n].dataIn = data.a, data.b
		nodes[i].reqOut, nodes[(i-1+n)%n].reqIn = req.a, req.b
	}

	r.nodes.Store(&nodes)

	// Partition ownership round-robin over fragments, so one column's
	// fragments spread across the ring and a multi-fragment pin drains
	// several owners in parallel.
	place := cfg.placeFragment
	if place == nil {
		place = func(frag, nodes int) int { return frag % nodes }
	}
	for i, fe := range frags {
		owner := nodes[place(i, n)%n]
		chain := replicaChain(r, owner.id)
		installOwner(owner, fe.id, newFragment(fe.b, 0, nil, nil), 0, chain) // loops not started: no locks needed
		r.setPlacement(fe.id, owner, chain)
	}

	// Start receive loops, the hop scheduler, heartbeats, and runtime
	// tickers.
	for _, node := range nodes {
		node.startLoops()
	}
	return r, nil
}

// newNode builds ring position id of a ring of size nodes, monitoring
// predecessor pred — the node state shared by NewRing and the runtime
// join path. Links are wired and loops started by the caller.
func (r *Ring) newNode(id, nodes, pred int, schema minisql.Schema) *Node {
	cfg := r.cfg
	node := &Node{
		ring:       r,
		id:         core.NodeID(id),
		cfg:        cfg,
		store:      map[core.BATID]*fragment{},
		transit:    map[core.BATID]*fragment{},
		cached:     map[core.BATID]*fragment{},
		waiters:    map[waitKey]*fragAcq{},
		sharedPins: map[waitKey]int{},
		errs:       map[core.QueryID]queryErr{},
		schema:     schema,
		start:      time.Now(),
		closed:     make(chan struct{}),
		relinked:   make(chan struct{}),
	}
	if cfg.CacheBytes > 0 {
		node.hot = newHotCache(cfg.CacheBytes)
	}
	node.hop = newHopScheduler(cfg.HopBatchBytes)
	node.reqs.wake = make(chan struct{}, 1)
	if cfg.Replicas > 0 {
		node.replicas = map[core.BATID]*replicaFrag{}
		node.memb = membership.NewDetector(id, nodes, pred, cfg.Heartbeat)
	}
	node.rt = core.New(node.id, (*liveEnv)(node), cfg.Core)
	return node
}

// startLoops starts the node's runtime ticker, receive loops, hop and
// request senders, and the optional beat goroutine — the boot sequence
// shared by NewRing and the runtime join path. The node's links must be
// wired first.
func (n *Node) startLoops() {
	r := n.ring
	n.mu.Lock()
	n.rt.Start() // its tick may fire, under n.mu, before Start returns
	n.mu.Unlock()
	r.wg.Add(4)
	go n.dataLoop(&r.wg)
	go n.reqLoop(&r.wg)
	go n.hopLoop(&r.wg)
	go n.sendLoop(&r.wg)
	if n.memb != nil {
		r.wg.Add(1)
		go n.beatLoop(&r.wg)
	}
}

// Node returns node i.
func (r *Ring) Node(i int) *Node { return r.node(i) }

// Size reports the ring size (including dead positions — ids are
// stable; use AliveNodes for the live census).
func (r *Ring) Size() int { return len(r.nodeList()) }

// Close shuts the ring down. Nodes already killed (KillNode, failover)
// are skipped by their kill-once guard.
func (r *Ring) Close() {
	for _, n := range r.nodeList() {
		n.kill()
	}
	r.wg.Wait()
}

// ---------------------------------------------------------------------
// query execution
// ---------------------------------------------------------------------

// queryDC adapts one query's datacyclotron.* calls onto the node.
type queryDC struct {
	n *Node
	q core.QueryID
	// cancel, when non-nil, ends the query's ring waits: ExecPlan closes
	// it when the query fails so the interpreter can return instead of
	// waiting for a delivery that will never come.
	cancel <-chan struct{}
	// interest marks the fragments this query registered ring interest
	// in at the runtime (announce, waitLocked), so that a pin served off
	// the ring withdraws only interest there is (withdrawLocked).
	// Guarded by n.mu; nil until the query registers any.
	interest map[core.BATID]bool
	mu       sync.Mutex
	bats     []core.BATID
	// merged tracks pin results. The DcOptimizer emits unpin(X) on the
	// pinned variable (Table 2), and the fragments behind X were
	// unpinned when the merge collected them, so the plan's unpin only
	// drops the tracking.
	merged map[*bat.BAT]bool
	// arena is the query's mal.Context.Arena, here so that a query
	// whose merges draw nothing allocates nothing for it.
	arena bat.Arena
}

// Request implements mal.DCRuntime. A column is a fragment list: its
// interest is registered up front for every fragment so all of them
// start flowing, and the returned handle names the whole list.
func (d *queryDC) Request(schema, table, column string) (mal.Value, error) {
	name := table + "." + column
	ids, ok := d.n.ring.Fragments(name)
	if !ok {
		return nil, fmt.Errorf("live: unknown column %s", name)
	}
	d.mu.Lock()
	d.bats = append(d.bats, ids...)
	d.mu.Unlock()
	d.announce(ids)
	return &fragHandle{name: name, ids: ids}, nil
}

// announce registers this query's ring interest in the fragments it
// will have to wait for, reading the catalog's versions in one hold of
// idsMu (taken after n.mu, as acquireLocked does).
func (d *queryDC) announce(ids []core.BATID) {
	n := d.n
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.applyLocked()
	n.ring.idsMu.RLock()
	defer n.ring.idsMu.RUnlock()
	for _, id := range ids {
		// An owned fragment is read from the store when the owner's
		// pins skip the load (acquireLocked), and a fragment resident in
		// the hot-set cache at the catalog's current version will be
		// served node-locally at pin time: skip the ring request
		// entirely, so fully-hot repeat queries cause zero circulation.
		// If the entry is evicted or updated before the pin, the pin's
		// ring path re-announces interest (core.Runtime.Pin creates and
		// sends the request itself).
		if n.cfg.Core.LocalPinsSkipLoad && n.rt.Owns(id) {
			continue
		}
		if n.hot != nil && n.hot.peek(id, n.ring.versionLocked(id)) {
			continue
		}
		d.markInterestLocked(id)
		n.rt.Request(d.q, id)
	}
}

// Pin implements mal.DCRuntime: it pins every fragment of the column
// as it arrives (any order; a hot-set cache hit, validated against the
// catalog version at this instant, is a node-local zero-copy view) and
// returns the order-preserving merge.
func (d *queryDC) Pin(handle mal.Value) (mal.Value, error) {
	h, ok := handle.(*fragHandle)
	if !ok {
		return nil, fmt.Errorf("live: bad pin handle %T", handle)
	}
	return d.pinMerged(h)
}

// Unpin implements mal.DCRuntime on the pinned value (what the
// DcOptimizer emits). Its fragments were already unpinned when the
// merge collected them.
func (d *queryDC) Unpin(handle mal.Value) error {
	b, _ := handle.(*bat.BAT)
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.merged[b] {
		return fmt.Errorf("live: unpin of %T that was never pinned", handle)
	}
	delete(d.merged, b)
	return nil
}

// ExecSQL compiles src, rewrites it into Data Cyclotron form, and runs
// it on this node, waiting for fragments as they flow around the ring.
func (n *Node) ExecSQL(src string) (*mal.ResultSet, error) {
	plan, err := minisql.Compile(src, n.schema, "sys")
	if err != nil {
		return nil, err
	}
	dcPlan, _, err := dcopt.Rewrite(plan)
	if err != nil {
		return nil, err
	}
	return n.ExecPlan(dcPlan)
}

// ExecPlan runs an already-rewritten MAL plan on this node.
func (n *Node) ExecPlan(plan *mal.Plan) (*mal.ResultSet, error) {
	atomic.AddInt64(&n.activeQueries, 1)
	defer atomic.AddInt64(&n.activeQueries, -1)
	defer n.exitQuery(n.enterQuery())
	q := core.QueryID(atomic.AddInt64(&n.nextQ, 1))<<16 | core.QueryID(n.id)
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	abort := func() { cancelOnce.Do(func() { close(cancel) }) }
	dc := &queryDC{n: n, q: q, cancel: cancel}
	errCh := make(chan error, 1)
	n.mu.Lock()
	n.errs[q] = queryErr{errCh, abort}
	n.mu.Unlock()
	defer func() {
		abort()
		n.mu.Lock()
		delete(n.errs, q)
		n.rt.CancelQuery(q, dc.bats)
		n.mu.Unlock()
	}()

	ctx := &mal.Context{Registry: mal.Standard(), DC: dc, Workers: n.cfg.Workers, Cancel: cancel, Arena: &dc.arena}
	atomic.AddInt64(&n.interpRunning, 1)
	res, runErr := mal.Run(ctx, plan)
	atomic.AddInt64(&n.interpRunning, -1)
	select {
	case err := <-errCh:
		// The query failed at the protocol layer: QueryError cancelled
		// the interpreter, whatever it returned.
		return nil, err
	default:
	}
	if runErr != nil {
		return nil, runErr
	}
	rs, ok := res.(*mal.ResultSet)
	if !ok {
		return nil, fmt.Errorf("live: plan produced %T, want result set", res)
	}
	// The result outlives the query's grace period and is encoded for
	// clients: every column leaves owning its memory, narrow columns in
	// their codes, and its merged columns' buffers with the arena that
	// a caller done with it releases. A failed query releases nothing.
	for i, c := range rs.Cols {
		rs.Cols[i] = n.ownResult(c)
	}
	rs.Arena = ctx.Arena
	return rs, nil
}

// Runtime exposes the node's DC runtime for inspection (stats).
func (n *Node) Runtime() *core.Runtime { return n.rt }

// Stats snapshots the node's protocol counters.
func (n *Node) Stats() core.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rt.Stats()
}

// ID reports the node's ring position.
func (n *Node) ID() core.NodeID { return n.id }

// Schema exposes the node's SQL schema (every node shares the ring's).
func (n *Node) Schema() minisql.Schema { return n.schema }

// ActiveQueries reports how many queries are executing on this node
// right now (a load signal for admission and the nomadic phase).
func (n *Node) ActiveQueries() int64 { return atomic.LoadInt64(&n.activeQueries) }

// InterpRunning reports how many queries are inside the interpreter on
// this node; it returns to zero when the node is idle (leak detector).
func (n *Node) InterpRunning() int64 { return atomic.LoadInt64(&n.interpRunning) }
