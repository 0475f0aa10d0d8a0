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
	"repro/internal/wirebuf"
)

// Transport selects how ring neighbours are connected.
type Transport int

// Transport kinds.
const (
	// InProc connects neighbours through in-process queue pairs.
	InProc Transport = iota
	// TCP connects neighbours through real loopback TCP sockets using
	// the rdma TCP provider: full framing and serialization on the
	// wire, the closest this environment gets to the RDMA fabric.
	TCP
)

// Config tunes the live ring.
type Config struct {
	Core core.Config
	// QueueCap is the per-node BAT queue capacity in bytes.
	QueueCap int
	// Workers is the MAL dataflow parallelism per query.
	Workers int
	// Transport picks the neighbour interconnect.
	Transport Transport
	// FragmentRows bounds the rows per circulated fragment: a longer
	// column is split into independently circulating fragments, each
	// with its own BATID and level of interest (the granularity axis of
	// §5). 0 disables row-based splitting (one column = one fragment,
	// the pre-fragmentation behavior).
	FragmentRows int
	// FragWorkers bounds how many fragments of one pin a query
	// processes concurrently as they arrive (defaults to Workers).
	FragWorkers int
	// CacheBytes budgets the per-node hot-set fragment cache: ring
	// deliveries are kept resident so a repeat pin of an unchanged
	// fragment is a version-validated node-local read instead of a ring
	// wait (see hotcache.go). 0 disables the cache entirely, restoring
	// the pure-circulation behavior (every pin waits for the ring).
	CacheBytes int
	// CacheMode selects the cache eviction policy (default CacheLOI).
	CacheMode CacheMode
	// HopBatchBytes budgets the batched hop transport: co-resident
	// outbound fragments coalesce into one multi-payload batch envelope
	// of at most this many wire bytes (see hop.go). 0 disables batching
	// entirely: every fragment travels as its own v2 message, exactly
	// the pre-batching ring.
	HopBatchBytes int
	// HopBatchLinger is how long the hop scheduler waits for more
	// co-resident fragments before flushing a partial batch. Only the
	// first fragment of a batch pays it; keep it well under the query
	// latencies being protected.
	HopBatchLinger time.Duration
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
	// ringID and router are set by NewRouter when this ring is one tier
	// of a multi-ring runtime: the id makes the ring addressable, the
	// back-pointer routes pins whose fragments are homed on another
	// ring. Both stay zero for a standalone ring — every routed code
	// path gates on router being nil.
	ringID RingID
	router *Router
	// minMsgBytes floors the computed ring message limit: a tier ring
	// built empty must still size its RDMA regions for the largest
	// fragment that can migrate onto it from another tier.
	minMsgBytes int
}

// DefaultConfig suits in-process rings.
func DefaultConfig() Config {
	cfg := Config{
		Core:           core.DefaultConfig(),
		QueueCap:       256 << 20,
		Workers:        4,
		FragmentRows:   64 << 10,
		CacheBytes:     64 << 20,
		HopBatchBytes:  1 << 20,
		HopBatchLinger: 200 * time.Microsecond,
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
	// id names this ring within a multi-ring runtime (always 0 for a
	// standalone ring); router is the routing layer in front, nil when
	// the ring stands alone.
	id     RingID
	router *Router
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
	// move.go. Shared by the rings of a routed runtime.
	colLocks *sync.Map
	wg       sync.WaitGroup

	// Exact ring message limit and data-link depth, kept so failover
	// can build replacement messengers identical to the originals.
	maxMsgBytes int
	dataDepth   int
	// pinWait bounds a pin's circulation wait before it falls back to
	// the owner's store (0 = wait for the ring): set on the cache-less
	// ring of a routed runtime, where a fragment can migrate away
	// mid-wait.
	pinWait time.Duration

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

	// store holds the payloads of owned BATs ("local disk").
	store map[core.BATID]*bat.BAT
	// transit holds payloads of BATs currently flowing through, and
	// transitVer the fragment version each arrived labelled with.
	transit    map[core.BATID]*bat.BAT
	transitVer map[core.BATID]int
	// cached holds payloads pinned by local queries (refcounted).
	cached map[core.BATID]*cachedBAT

	// hot is the node's hot-set fragment cache (nil when
	// Config.CacheBytes is 0: every new code path gates on it, so a
	// disabled cache leaves the pure-circulation behavior untouched).
	hot *hotCache

	waiters map[waitKey]chan delivered
	errs    map[core.QueryID]chan error

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

	outBytes int64 // outstanding outbound data bytes (queue load)

	schema minisql.Schema
	start  time.Time
	nextQ  int64
	closed chan struct{}

	// §6 extension state.
	versions      map[core.BATID]int
	activeQueries int64

	// Ring-hop accounting (atomic): total data bytes sent and the
	// largest single data message — the fragmentation experiments read
	// these to plot hop cost against fragment size.
	hopBytes    int64
	maxHopBytes int64

	// hop is the outbound batch scheduler (nil when Config.HopBatchBytes
	// is 0, leaving the per-fragment send path untouched). The counters
	// below feed HopStats and are maintained by both paths, so batched
	// and unbatched runs compare directly.
	hop            *hopScheduler
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
	// the ring this node sits on, the quantity the hot/cold tier split
	// trades against. lastSelfSeen is guarded by mu.
	lastSelfSeen map[core.BATID]int64
	revNanos     int64

	// wireCache holds the marshalled bytes of each fragment version so
	// forwarding an unchanged fragment does not pay bat.Marshal again.
	// Fragments are immutable per version, so the payload pointer is the
	// version identity: an entry is valid exactly while its src pointer
	// still names the payload being sent. Guarded by mu; entries are
	// dropped on unload and on update.
	wireCache  map[core.BATID]*wireEntry
	wireHits   int64 // atomic
	wireMisses int64 // atomic

	// interpRunning counts live interpreter goroutines (leak detector
	// and drain hook).
	interpRunning int64

	// memb is this node's membership failure detector (nil when
	// Config.Replicas is 0 — the same nil-gating as hot and hop).
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
}

// wireEntry caches one fragment's serialized form. Entries are
// refcounted: the cache map holds one reference and every in-flight
// send holds another, so a pooled encode buffer is recycled exactly
// when the last user lets go — an update can invalidate an entry while
// the kernel is still reading its bytes for a send (sends post them as
// they are) without the buffer being reused underneath the send.
type wireEntry struct {
	src    *bat.BAT // payload the bytes were marshalled from
	raw    []byte
	pooled bool         // raw came from wirebuf and may be recycled
	refs   atomic.Int32 // cache reference + in-flight sends
}

func newWireEntry(src *bat.BAT, raw []byte, pooled bool) *wireEntry {
	e := &wireEntry{src: src, raw: raw, pooled: pooled}
	e.refs.Store(1)
	return e
}

func (e *wireEntry) acquire() { e.refs.Add(1) }

func (e *wireEntry) release() {
	if e.refs.Add(-1) == 0 && e.pooled {
		wirebuf.Put(e.raw)
	}
}

// setWireEntry installs a cache entry, releasing any entry it replaces.
// Called with n.mu held.
func (n *Node) setWireEntry(id core.BATID, e *wireEntry) {
	if old, ok := n.wireCache[id]; ok {
		old.release()
	}
	n.wireCache[id] = e
}

// dropWireEntry removes and releases a cache entry. Called with n.mu
// held.
func (n *Node) dropWireEntry(id core.BATID) {
	if old, ok := n.wireCache[id]; ok {
		delete(n.wireCache, id)
		old.release()
	}
}

type cachedBAT struct {
	b    *bat.BAT
	ver  int
	refs int
}

// delivered is what a waiter channel carries: the payload and the
// fragment version it arrived labelled with (what the hot-set cache
// and the snapshot merge validate against). A nil b fails the pin.
type delivered struct {
	b   *bat.BAT
	ver int
}

// unrefCached drops one reference on a cached payload, evicting the
// entry when the last reference goes. Called with n.mu held.
func (n *Node) unrefCached(id core.BATID) {
	if c, ok := n.cached[id]; ok {
		c.refs--
		if c.refs <= 0 {
			delete(n.cached, id)
		}
	}
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
	if cfg.CacheBytes > 0 {
		// With the hot-set cache on, a local pin at the owner is served
		// from the store and everyone else is served from their caches:
		// ring admission should be driven by actual remote interest
		// (ring requests), not by local pins — a fully-hot workload then
		// causes zero circulation.
		cfg.Core.LocalPinsSkipLoad = true
	}
	if cfg.HopBatchBytes > 0 && cfg.Core.ParkIdleCycles == 0 {
		// Batched transport turns on LOI-gated pacing by default: a
		// fragment that served nobody for two straight revolutions parks
		// at its owner until the next interest signal, instead of burning
		// batch slots. A negative ParkIdleCycles opts out explicitly; 0
		// in the core config still means "off" when batching is off.
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
		id:           cfg.ringID,
		router:       cfg.router,
		cols:         map[string]*colFrags{},
		colLocks:     &sync.Map{},
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
	// largest column.
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
			fb := b
			if len(spans) > 1 {
				fb = b.Slice(sp[0], sp[1])
			}
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
	dataDepth := 0 // 0 = messenger default
	if cfg.HopBatchBytes > 0 {
		// A batch tops out at the byte budget (take() only coalesces
		// while the batch stays inside it); a single oversized fragment
		// still travels alone, so the region must fit whichever is
		// larger. Batch-aware receive credits: one credit now admits a
		// whole batch of fragments, so the data links run a shallower
		// receive queue at the same fragment-level concurrency — and the
		// (larger) registered regions stay bounded.
		if cfg.HopBatchBytes > maxBytes {
			maxBytes = cfg.HopBatchBytes
		}
		dataDepth = 4
	}
	if cfg.Replicas > 0 {
		// A beat gossips one status byte per ring member; make sure the
		// data regions can carry it even on tiny test rings.
		if bs := beatMsgSize(n); bs > maxBytes {
			maxBytes = bs
		}
	}
	if cfg.minMsgBytes > maxBytes {
		// Tier rings admit fragments migrated from sibling rings: the
		// regions must fit the largest fragment of the whole runtime,
		// not just of the columns this ring was born with.
		maxBytes = cfg.minMsgBytes
	}
	r.maxMsgBytes = maxBytes
	r.dataDepth = dataDepth
	if cfg.router != nil && cfg.CacheBytes == 0 {
		r.pinWait = routedRingWait
	}
	// Nodes and transports. Built into a local slice and published
	// before placement; Join later publishes grown copies the same way.
	nodes := make([]*Node, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, r.newNode(i, n, (i-1+n)%n, schema))
	}
	for i := 0; i < n; i++ {
		succ := (i + 1) % n
		dataA, dataB, err := newQueuePair(cfg.Transport)
		if err != nil {
			return nil, err
		}
		mA, err := rdma.NewMessengerDepth(dataA, maxBytes, dataDepth)
		if err != nil {
			return nil, err
		}
		mB, err := rdma.NewMessengerDepth(dataB, maxBytes, dataDepth)
		if err != nil {
			return nil, err
		}
		nodes[i].dataOut = mA
		nodes[succ].dataIn = mB

		reqA, reqB, err := newQueuePair(cfg.Transport)
		if err != nil {
			return nil, err
		}
		rA, err := rdma.NewMessenger(reqA, 1<<12)
		if err != nil {
			return nil, err
		}
		rB, err := rdma.NewMessenger(reqB, 1<<12)
		if err != nil {
			return nil, err
		}
		pred := (i - 1 + n) % n
		nodes[i].reqOut = rA
		nodes[pred].reqIn = rB
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
		installOwner(owner, fe.id, fe.b, 0, 0, chain) // loops not started: no locks needed
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
		store:      map[core.BATID]*bat.BAT{},
		transit:    map[core.BATID]*bat.BAT{},
		transitVer: map[core.BATID]int{},
		cached:     map[core.BATID]*cachedBAT{},
		waiters:    map[waitKey]chan delivered{},
		errs:       map[core.QueryID]chan error{},
		wireCache:  map[core.BATID]*wireEntry{},
		versions:   map[core.BATID]int{},
		schema:     schema,
		start:      time.Now(),
		closed:     make(chan struct{}),
	}
	if cfg.CacheBytes > 0 {
		node.hot = newHotCache(cfg.CacheBytes, cfg.CacheMode)
	}
	if cfg.HopBatchBytes > 0 {
		node.hop = newHopScheduler(cfg.HopBatchBytes, cfg.HopBatchLinger)
	}
	if cfg.Replicas > 0 {
		hbCfg := cfg.Heartbeat.WithDefaults()
		if r.router != nil {
			// Per-ring detectors: each tier runs its own failure-detection
			// domain, labelled so verdicts stay attributable.
			hbCfg.Ring = r.id.String()
		}
		node.replicas = map[core.BATID]*replicaFrag{}
		node.memb = membership.NewDetector(id, nodes, pred, hbCfg)
	}
	node.rt = core.New(node.id, (*liveEnv)(node), cfg.Core)
	return node
}

// startLoops starts the node's runtime ticker, receive loops, and the
// optional hop/beat goroutines — the boot sequence shared by NewRing
// and the runtime join path. The node's links must be wired first.
func (n *Node) startLoops() {
	r := n.ring
	n.rt.Start()
	r.wg.Add(2)
	go n.dataLoop(&r.wg)
	go n.reqLoop(&r.wg)
	if n.hop != nil {
		r.wg.Add(1)
		go n.hopLoop(&r.wg)
	}
	if n.memb != nil {
		r.wg.Add(1)
		go n.beatLoop(&r.wg)
	}
}

// Node returns node i.
func (r *Ring) Node(i int) *Node { return r.node(i) }

// ID reports this ring's identity within a multi-ring runtime (0 for a
// standalone ring).
func (r *Ring) ID() RingID { return r.id }

// RevolutionTime reports the measured ring revolution time: the mean of
// every node's owner-side EWMA of the gap between successive returns of
// its own fragments. Zero until at least one fragment has come full
// circle twice.
func (r *Ring) RevolutionTime() time.Duration {
	var total int64
	var count int64
	for _, n := range r.nodeList() {
		if v := atomic.LoadInt64(&n.revNanos); v > 0 {
			total += v
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return time.Duration(total / count)
}

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

// BATID resolves a column name ("table.column") to its first fragment
// id (the only fragment for unfragmented columns). Use Fragments for
// the full per-fragment id list.
func (r *Ring) BATID(name string) (core.BATID, bool) {
	r.idsMu.RLock()
	defer r.idsMu.RUnlock()
	cf, ok := r.cols[name]
	if !ok {
		return 0, false
	}
	return cf.ids[0], true
}

// ---------------------------------------------------------------------
// receive loops
// ---------------------------------------------------------------------

func (n *Node) dataLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		in := n.linkDataIn()
		atomic.StoreInt32(&n.recvParked, 1)
		data, err := in.Recv()
		atomic.StoreInt32(&n.recvParked, 0)
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			if n.linkDataIn() != in {
				// Failover spliced a new predecessor link in and closed
				// this one under us: resume receiving from the new link.
				continue
			}
			return
		}
		if isBeatMsg(data) {
			n.onBeat(data)
			continue
		}
		if n.memb != nil {
			// Any message on the data link is implicit proof that the
			// predecessor lives: a node pushing bulk data is not dead,
			// even when its explicit beats are queued behind that data.
			n.memb.Pulse()
		}
		if isBatchMsg(data) {
			// A batch envelope is several v2 messages that shared one
			// hop: handle each entry exactly as if it had arrived alone.
			// Entry payloads are zero-copy views over the message
			// buffer, same aliasing rules as a single.
			entries, err := decodeBatchMsg(data)
			if err != nil {
				continue
			}
			for _, e := range entries {
				n.handleData(e.m, e.ver, e.payload)
			}
			continue
		}
		hdr, ver, rawPayload, err := decodeDataMsg(data)
		if err != nil {
			continue
		}
		n.handleData(hdr, ver, rawPayload)
	}
}

// handleData processes one arrived data message (or one batch entry):
// decode, hot-cache population, runtime delivery.
func (n *Node) handleData(hdr core.BATMsg, ver int, rawPayload []byte) {
	if n.memb != nil && hdr.Owner != n.id && n.ring.isDead(hdr.Owner) {
		// An envelope orphaned by its owner's death. If failover has
		// promoted this node to owner, adopt the envelope as our own
		// circulating copy (hot-set management then runs as usual); the
		// dead node's first live successor retires any other orphan so
		// it cannot orbit forever — re-owned fragments re-enter the
		// ring from the heir's store with the catalog version.
		n.mu.Lock()
		owns := n.rt.Owns(hdr.BAT)
		myVer := n.versions[hdr.BAT]
		n.mu.Unlock()
		if owns {
			if ver < myVer {
				// A stale orbit copy outlived by the promotion: the heir's
				// store already holds a newer version, so adopting this
				// envelope would put superseded bytes back into
				// circulation. Retire it; the store copy re-enters the
				// ring through the next load.
				return
			}
			hdr.Owner = n.id
		} else if n.ring.nextAlive(hdr.Owner) == n.id {
			return
		}
	}
	var payload *bat.BAT
	if len(rawPayload) > 0 {
		// Zero-copy decode: the BAT's fixed-width columns alias
		// rawPayload, and thus the buffer the transport received the
		// message into. That buffer is the receiver's alone (the
		// transport never touches it again) and nothing here writes
		// it, so the views stay valid for as long as they are held.
		var err error
		payload, err = bat.UnmarshalView(rawPayload)
		if err != nil {
			return
		}
	}
	if payload != nil && n.hot != nil && hdr.Owner != n.id {
		// Populate the hot-set cache from the passing traffic,
		// labelled with the version the owner sent it under. Own
		// fragments are skipped: the owner's pins are served from
		// the store already. Inserted before OnBAT so a pin
		// coalesced behind this delivery finds the entry resident.
		n.hot.put(hdr.BAT, ver, payload)
	}
	n.mu.Lock()
	if hdr.Owner == n.id {
		// One of our own fragments came full circle: the gap since its
		// previous return is one measured ring revolution. EWMA with a
		// 1/4 step — smooth enough to read, fresh enough to follow a
		// linger change within a few revolutions.
		now := time.Now().UnixNano()
		if n.lastSelfSeen == nil {
			n.lastSelfSeen = map[core.BATID]int64{}
		}
		if last, ok := n.lastSelfSeen[hdr.BAT]; ok && now > last {
			d := now - last
			if old := atomic.LoadInt64(&n.revNanos); old == 0 {
				atomic.StoreInt64(&n.revNanos, d)
			} else {
				atomic.StoreInt64(&n.revNanos, old+(d-old)/4)
			}
		}
		n.lastSelfSeen[hdr.BAT] = now
	}
	if rp, ok := n.replicas[hdr.BAT]; ok {
		// Replica-aware LOI accounting: remember the interest the
		// fragment shows while circulating, so a promotion after the
		// owner's death re-admits it at its earned heat (§6.3).
		rp.loi = hdr.LOI
	}
	if payload != nil {
		n.transit[hdr.BAT] = payload
		n.transitVer[hdr.BAT] = ver
		// Seed the wire cache with the bytes just received: if OnBAT
		// forwards this fragment, SendData reuses them verbatim
		// instead of re-marshalling the payload it just decoded.
		// Not pooled: the decoded BAT aliases these bytes. The owner
		// forwards its *store* payload instead of the circulating
		// copy, so seeding its own fragment would evict the store-keyed
		// entry and force a re-marshal every pass — keep that entry.
		if hdr.Owner != n.id {
			n.setWireEntry(hdr.BAT, newWireEntry(payload, rawPayload, false))
		}
	}
	n.rt.OnBAT(hdr)
	delete(n.transit, hdr.BAT)
	delete(n.transitVer, hdr.BAT)
	if payload != nil {
		// The seed has served its purpose (the forward, if any,
		// happened inside OnBAT). On a non-owner, keeping it would
		// pin the raw bytes and the decoded payload of every
		// fragment that ever flowed past — the next arrival reseeds
		// anyway. Persistent entries are kept only for fragments in
		// the local store, where repeat sends amortize the marshal.
		if _, owned := n.store[hdr.BAT]; !owned {
			if ent, ok := n.wireCache[hdr.BAT]; ok && ent.src == payload {
				n.dropWireEntry(hdr.BAT)
			}
		}
	}
	n.mu.Unlock()
}

func (n *Node) reqLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		in := n.linkReqIn()
		data, err := in.Recv()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			if n.linkReqIn() != in {
				continue // spliced: receive from the new link
			}
			return
		}
		req, err := decodeReqMsg(data)
		if err != nil {
			continue
		}
		if n.memb != nil && n.ring.isDead(req.Origin) {
			// A dead origin can never receive the answer; absorbing the
			// request here stops it orbiting the repaired ring.
			continue
		}
		if (n.memb != nil || n.ring.router != nil) && req.Origin == n.id && n.ring.fragKnown(req.BAT) {
			// Full circle, but the catalog still lists the fragment: no
			// live owner absorbed the request because ownership is mid-
			// promotion (or the re-owned fragment has not re-entered
			// orbit yet). The stable-ring conclusion — returned request
			// means the BAT does not exist — would error every blocked
			// pin with a false negative. Swallow it instead: the resend
			// timer keeps the interest alive until the new owner answers.
			// The same window exists in a routed runtime while a fragment
			// is mid-migration between rings, so the router gate joins
			// the membership one.
			continue
		}
		n.mu.Lock()
		n.rt.OnRequest(req)
		n.mu.Unlock()
	}
}

// ---------------------------------------------------------------------
// core.Env implementation
// ---------------------------------------------------------------------

type liveEnv Node

func (e *liveEnv) node() *Node { return (*Node)(e) }

func (e *liveEnv) Now() time.Duration { return time.Since(e.start) }

// SendData forwards a BAT (with payload) to the successor. Called with
// n.mu held; the actual network send happens asynchronously so the
// runtime never blocks on the wire.
func (e *liveEnv) SendData(m core.BATMsg) {
	n := e.node()
	var payload *bat.BAT
	var ver int
	if m.Owner == n.id {
		// Forwarding our own fragment: send the store's current version
		// rather than the circulating copy, so an UpdateColumn reaches
		// the ring within one owner pass and the superseded bytes die
		// here instead of rotating until the LOI decays — what bounds a
		// pin's stale-version retry (acquireFrag) to one revolution.
		if b, ok := n.store[m.BAT]; ok {
			payload, ver = b, n.versions[m.BAT]
			m.Size = b.Bytes()
		}
	}
	if payload == nil {
		if b, ok := n.transit[m.BAT]; ok {
			payload, ver = b, n.transitVer[m.BAT]
		} else if b, ok := n.store[m.BAT]; ok {
			payload, ver = b, n.versions[m.BAT]
		} else if c, ok := n.cached[m.BAT]; ok {
			payload, ver = c.b, c.ver
		}
	}
	if payload == nil {
		return // nothing to forward; drop (should not happen)
	}
	// Fragments are immutable per version: reuse the marshalled bytes as
	// long as the cached entry still points at this exact payload. An
	// update installs a new *bat.BAT, so the pointer comparison doubles
	// as version validation. Fresh marshals encode into pooled buffers;
	// the refcount returns them to the pool once the entry is
	// invalidated and no send is in flight.
	ent, ok := n.wireCache[m.BAT]
	if ok && ent.src == payload {
		atomic.AddInt64(&n.wireHits, 1)
	} else {
		ent = newWireEntry(payload, bat.AppendMarshal(wirebuf.Get(), payload), true)
		n.setWireEntry(m.BAT, ent)
		atomic.AddInt64(&n.wireMisses, 1)
	}
	ent.acquire()
	atomic.AddInt64(&n.outBytes, int64(m.Size))
	// The entry reference keeps the cached bytes stable until the
	// vectored send that carries them completes.
	he := hopEntry{m: m, ver: ver, ent: ent}
	if n.hop != nil {
		// Batched transport: queue the fragment for the hop scheduler,
		// which coalesces co-resident outbound fragments into one batch
		// envelope per neighbour hop.
		n.hop.enqueue(he)
		return
	}
	go n.flushHopBatch([]hopEntry{he})
}

func (e *liveEnv) SendRequest(m core.RequestMsg) bool {
	n := e.node()
	go func() {
		select {
		case <-n.closed:
			return
		default:
		}
		n.linkReqOut().SendEncoded(reqMsgSize, func(dst []byte) int {
			encodeReqMsg(dst, m)
			return reqMsgSize
		})
	}()
	return true
}

func (e *liveEnv) QueueLoad() (int, int) {
	return int(atomic.LoadInt64(&e.node().outBytes)), e.cfg.QueueCap
}

type liveTimer struct{ t *time.Timer }

func (t liveTimer) Cancel() { t.t.Stop() }

func (e *liveEnv) After(d time.Duration, fn func()) core.TimerHandle {
	n := e.node()
	return liveTimer{t: time.AfterFunc(d, func() {
		select {
		case <-n.closed:
			return
		default:
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		fn()
	})}
}

// Deliver resolves the payload and wakes the blocked pin. Called with
// n.mu held. The waiter lookup gates the refcount: a delivery whose pin
// was abandoned (query cancelled between abandonPin and CancelQuery)
// must not count a cached-payload reference nobody will ever release.
func (e *liveEnv) Deliver(q core.QueryID, b core.BATID) {
	n := e.node()
	key := waitKey{q, b}
	ch, ok := n.waiters[key]
	if !ok {
		// Pin abandoned; no one left to hand the payload to. The only
		// path that can reach a missing waiter is an asynchronous ring
		// arrival (synchronous deliveries run in the same critical
		// section that registers the waiter), and that path counted one
		// runtime cache ref (batPropagation's cacheRef) just before
		// delivering — release it, or the stale rt.cache entry would
		// short-circuit every later pin of this BAT into a nil delivery.
		n.rt.Unpin(q, b)
		return
	}
	delete(n.waiters, key)
	var payload *bat.BAT
	var ver int
	if p, ok := n.store[b]; ok {
		// Owner: always serve the store, never a circulating copy. The
		// store is the authoritative latest version (UpdateColumn bumps
		// it under the column lock before the catalog advances), while a
		// transit copy returning from a full orbit carries whatever
		// version the fragment had when it was last sent — under update
		// pressure that can be arbitrarily far behind. Serving the store
		// keeps owner pins on the cache contract: never older than the
		// catalog read before the pin.
		payload, ver = p, n.versions[b]
	} else if p, ok := n.transit[b]; ok {
		payload, ver = p, n.transitVer[b]
		// The query will hold the BAT pinned: keep the payload cached.
		c := n.cached[b]
		if c == nil {
			c = &cachedBAT{b: p, ver: ver}
			n.cached[b] = c
		}
		c.refs++
	} else if c, ok := n.cached[b]; ok {
		payload, ver = c.b, c.ver
		c.refs++
	}
	ch <- delivered{payload, ver} // buffered
}

func (e *liveEnv) QueryError(q core.QueryID, b core.BATID, reason string) {
	n := e.node()
	// Fail any blocked pin of this query.
	for key, ch := range n.waiters {
		if key.q == q {
			delete(n.waiters, key)
			ch <- delivered{}
		}
	}
	if ec, ok := n.errs[q]; ok {
		select {
		case ec <- fmt.Errorf("live: query %d: %s (BAT %d)", q, reason, b):
		default:
		}
	}
}

func (e *liveEnv) OnLoad(b core.BATID, size int) {}

// OnUnload drops the fragment's cached wire bytes: once the BAT leaves
// the hot set there is no forward to amortize them over. Called with
// n.mu held. The hot-set cache entry goes too — the owner serves its
// own pins from the store, so resident bytes are better spent.
func (e *liveEnv) OnUnload(b core.BATID, size int) {
	n := e.node()
	n.dropWireEntry(b)
	if n.hot != nil {
		n.hot.drop(b)
	}
}

// ---------------------------------------------------------------------
// query execution
// ---------------------------------------------------------------------

// queryDC adapts one query's datacyclotron.* calls onto the node.
type queryDC struct {
	n *Node
	q core.QueryID
	// cancel, when non-nil, aborts blocked pins: ExecPlan closes it when
	// the query fails so the interpreter goroutine can exit instead of
	// waiting for a delivery that will never come.
	cancel <-chan struct{}
	mu     sync.Mutex
	bats   []core.BATID
	// pinned maps delivered BAT values back to their fragment ids:
	// the DcOptimizer emits unpin(X) on the pinned variable (Table 2),
	// so unpin receives the *bat.BAT, not the request handle.
	pinned map[*bat.BAT]core.BATID
	// local marks pinned values served node-locally from the hot-set
	// cache (or a coalesced flight): they hold no runtime pin and no
	// refcounted payload, so their unpin only drops the tracking.
	local map[*bat.BAT]bool
	// merged tracks multi-fragment pin results: their fragments were
	// unpinned at merge time, so the plan's unpin is a no-op on them.
	merged map[*bat.BAT]bool
}

// Request implements mal.DCRuntime. A fragmented column becomes a
// multi-fragment request: interest in every fragment is registered up
// front so all of them start flowing, and the returned handle names the
// whole set.
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
	if len(ids) == 1 {
		return ids[0], nil
	}
	return &fragHandle{name: name, ids: ids}, nil
}

// announce registers this query's ring interest in the fragments it
// will have to wait for.
func (d *queryDC) announce(ids []core.BATID) {
	n := d.n
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range ids {
		// A fragment homed on another ring never circulates here: its
		// pin dispatches through the router to a delegate on the home
		// ring, so announcing local interest would only leave an S2
		// entry nobody delivers. (If the fragment migrates here before
		// the pin, core.Runtime.Pin re-announces on its own.)
		if n.ring.homeRing(id) != n.ring {
			continue
		}
		// A fragment resident in the hot-set cache at the catalog's
		// current version will be served node-locally at pin time:
		// skip the ring request entirely, so fully-hot repeat queries
		// cause zero circulation. If the entry is evicted or updated
		// before the pin, the pin's ring path re-announces interest
		// (core.Runtime.Pin creates and sends the request itself).
		if n.hot != nil && n.hot.peek(id, n.ring.fragVersion(id)) {
			continue
		}
		n.rt.Request(d.q, id)
	}
}

// Pin implements mal.DCRuntime: a hot-set cache hit (validated against
// the catalog version at this instant) returns a node-local zero-copy
// view immediately; otherwise it blocks until the BAT flows past. A
// multi-fragment handle pins every fragment as it arrives (any order)
// and returns the order-preserving merge.
func (d *queryDC) Pin(handle mal.Value) (mal.Value, error) {
	if h, ok := handle.(*fragHandle); ok {
		return d.pinMerged(h)
	}
	id, ok := handle.(core.BATID)
	if !ok {
		return nil, fmt.Errorf("live: bad pin handle %T", handle)
	}
	b, _, viaRing, err := d.acquireFrag(id, nil)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if d.pinned == nil {
		d.pinned = map[*bat.BAT]core.BATID{}
	}
	d.pinned[b] = id
	if !viaRing {
		if d.local == nil {
			d.local = map[*bat.BAT]bool{}
		}
		d.local[b] = true
	}
	d.mu.Unlock()
	return b, nil
}

// abandonPin unwinds a pin the caller gave up on. A concurrent Deliver
// (which runs under n.mu) may already have removed the waiter entry,
// bumped the payload's refcounts, and sent into ch — in which case the
// cancel branch of the select raced the delivery and must consume the
// payload and drop those refs, or the cachedBAT leaks for the ring's
// lifetime. Otherwise the waiter entry is still registered; removing it
// turns any later Deliver for this pin into a no-op (Deliver only
// counts references when it finds a waiter to hand the payload to).
func (d *queryDC) abandonPin(id core.BATID, ch chan delivered) {
	n := d.n
	n.mu.Lock()
	delete(n.waiters, waitKey{d.q, id})
	select {
	case dv := <-ch:
		if dv.b != nil {
			// The delivery won the race: drop the refs it counted, at
			// both the live layer and the runtime (what the query's own
			// unpin would have released).
			n.rt.Unpin(d.q, id)
			n.unrefCached(id)
		}
	default:
	}
	n.mu.Unlock()
}

// Unpin implements mal.DCRuntime. It accepts either the request handle
// (a BATID) or the pinned BAT value (what the DcOptimizer emits).
func (d *queryDC) Unpin(handle mal.Value) error {
	var id core.BATID
	switch h := handle.(type) {
	case core.BATID:
		id = h
	case *bat.BAT:
		d.mu.Lock()
		if d.merged[h] {
			// A merged multi-fragment value: its fragments were already
			// unpinned when their work finished.
			delete(d.merged, h)
			d.mu.Unlock()
			return nil
		}
		mapped, ok := d.pinned[h]
		if ok {
			delete(d.pinned, h)
		}
		local := d.local[h]
		if local {
			delete(d.local, h)
		}
		d.mu.Unlock()
		if !ok {
			return fmt.Errorf("live: unpin of a BAT that was never pinned")
		}
		if local {
			// Served from the hot-set cache: no runtime pin and no
			// refcounted payload were ever taken.
			return nil
		}
		id = mapped
	default:
		return fmt.Errorf("live: bad unpin handle %T", handle)
	}
	d.releaseRing(id)
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
	q := core.QueryID(atomic.AddInt64(&n.nextQ, 1))<<16 | core.QueryID(n.id)
	cancel := make(chan struct{})
	var cancelOnce sync.Once
	abort := func() { cancelOnce.Do(func() { close(cancel) }) }
	dc := &queryDC{n: n, q: q, cancel: cancel}
	errCh := make(chan error, 1)
	n.mu.Lock()
	n.errs[q] = errCh
	n.mu.Unlock()
	defer func() {
		abort()
		n.mu.Lock()
		delete(n.errs, q)
		n.releaseQuery(q, dc)
		n.rt.CancelQuery(q, dc.bats)
		n.mu.Unlock()
	}()

	ctx := &mal.Context{Registry: mal.Standard(), DC: dc, Workers: n.cfg.Workers, Cancel: cancel}
	done := make(chan struct{})
	var (
		res    mal.Value
		runErr error
	)
	atomic.AddInt64(&n.interpRunning, 1)
	go func() {
		defer atomic.AddInt64(&n.interpRunning, -1)
		res, runErr = mal.Run(ctx, plan)
		close(done)
	}()
	select {
	case <-done:
	case err := <-errCh:
		// The query failed at the protocol layer. Cancel the interpreter
		// and wait for it: pins observe the cancel channel, so the
		// goroutine exits promptly instead of leaking against a query
		// the runtime has already given up on.
		abort()
		<-done
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	rs, ok := res.(*mal.ResultSet)
	if !ok {
		return nil, fmt.Errorf("live: plan produced %T, want result set", res)
	}
	return rs, nil
}

// releaseQuery drops whatever protocol state an aborted interpreter
// left behind: unconsumed waiter channels (including payload refs a
// Deliver already handed them) and pins that never saw their unpin
// instruction. Called with n.mu held, after the interpreter goroutine
// has stopped.
func (n *Node) releaseQuery(q core.QueryID, dc *queryDC) {
	for key, ch := range n.waiters {
		if key.q != q {
			continue
		}
		delete(n.waiters, key)
		select {
		case dv := <-ch:
			if dv.b != nil {
				// The delivery counted refs at both layers; release both,
				// as the query's own unpin would have.
				n.rt.Unpin(q, key.b)
				n.unrefCached(key.b)
			}
		default:
		}
	}
	dc.mu.Lock()
	for b, id := range dc.pinned {
		if dc.local[b] {
			continue // node-local acquisition: no runtime refs were taken
		}
		n.rt.Unpin(q, id)
		n.unrefCached(id)
	}
	dc.pinned = nil
	dc.local = nil
	dc.mu.Unlock()
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

// InterpRunning reports live interpreter goroutines on this node; it
// returns to zero when the node is idle (leak detector).
func (n *Node) InterpRunning() int64 { return atomic.LoadInt64(&n.interpRunning) }

// WireCacheStats reports how many data forwards reused cached codec
// bytes versus paid a fresh bat.AppendMarshal. Buffer-pool reuse
// counters live alongside in wirebuf.Stats.
func (n *Node) WireCacheStats() (hits, misses int64) {
	return atomic.LoadInt64(&n.wireHits), atomic.LoadInt64(&n.wireMisses)
}

// CacheStats snapshots the node's hot-set cache counters plus the
// ring-wait accounting (the latter is recorded whether or not the
// cache is enabled, so disabled-vs-enabled runs compare directly).
func (n *Node) CacheStats() CacheStats {
	var s CacheStats
	if n.hot != nil {
		s = n.hot.stats()
	}
	s.RingWaits = atomic.LoadInt64(&n.ringWaits)
	s.RingWaitNanos = atomic.LoadInt64(&n.ringWaitNanos)
	return s
}

// CacheStats aggregates the hot-set cache counters over every node.
func (r *Ring) CacheStats() CacheStats {
	var total CacheStats
	for _, n := range r.nodeList() {
		s := n.CacheStats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Stale += s.Stale
		total.Inserts += s.Inserts
		total.Evictions += s.Evictions
		total.Coalesced += s.Coalesced
		total.Bytes += s.Bytes
		total.Entries += s.Entries
		total.RingWaits += s.RingWaits
		total.RingWaitNanos += s.RingWaitNanos
	}
	return total
}

// Quiesce blocks until no node is executing a query, or until timeout
// elapses; it reports whether the ring went idle. Callers that submit
// queries from several places (e.g. a drained server plus in-process
// submitters) use this before tearing the ring down.
func (r *Ring) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, n := range r.nodeList() {
			if n.ActiveQueries() > 0 || n.InterpRunning() > 0 {
				idle = false
				break
			}
		}
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
