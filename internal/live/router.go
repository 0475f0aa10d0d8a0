package live

// The routed multi-ring runtime: ring identity, the routing layer, and
// LOI-driven hot/cold tiering.
//
// A single Data Cyclotron ring forces one revolution time on every
// fragment: wide enough for the whole database means slow enough to
// hurt the hot set. The paper's hot-set economy (LOI admission, §3.3)
// already concentrates *circulation* on interesting data; this layer
// concentrates *ring capacity* the same way. Two rings run side by
// side — a small fast hot ring (short revolution, hot-set caches on)
// and a wide cold ring (batched hops, long linger, parked-by-default)
// — and fragments migrate between them as their observed interest
// crosses configurable thresholds. The router in front maps
// column → fragment → (ring, node): every pin resolves its fragment's
// home ring at acquisition time, and a pin landing on the wrong ring
// is dispatched to a delegate on the home ring, where it runs the real
// circulation machinery (a cold pin pays the cold revolution — that is
// the point; the cure is the promotion the access itself feeds).
//
// Ring identity: every Ring carries a RingID and the rings of one
// runtime share one catalog — the cold ring (born with all columns)
// owns the canonical maps and the hot ring (born empty) aliases them,
// so every existing per-ring read path (Fragments, fragVersion,
// fragKnown, failover's fragCol grouping) works unchanged on both
// rings. A catalog *write* (Publish) is one extension under all rings'
// catalog locks; the per-column locks are one shared table too.
//
// Migration is the transfer → install → flip → drain → release sequence
// of move.go, under the fragment's column lock: between the home flip
// and the release both rings hold a serving copy — pre-flip stragglers
// are served by the source exactly as MVCC serves readers of a
// superseded version — and a drain that outlives its timeout parks the
// release on a pending list retried by the tier scanner.
//
// The flash-crowd path: a cold fragment whose interest spikes
// (FlashCrowdHits accesses inside one scan window) is promoted
// immediately from the access path itself — a store-to-store transfer
// that does not wait for the cold ring to come around, so the cure
// lands within one cold revolution of the first spike.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
	"repro/internal/minisql"
	"repro/internal/netsim"
)

// RingID names one ring of a multi-ring runtime. A standalone ring is
// always 0.
type RingID int

// Tier ring identities in a two-tier runtime.
const (
	// HotRing is the small fast ring (short revolution, caches on).
	HotRing RingID = 0
	// ColdRing is the wide slow ring (batched hops, parked-by-default).
	ColdRing RingID = 1
)

func (t RingID) String() string {
	switch t {
	case HotRing:
		return "hot"
	case ColdRing:
		return "cold"
	}
	return fmt.Sprintf("ring%d", int(t))
}

// RouterConfig tunes the routed runtime.
type RouterConfig struct {
	// HotNodes / ColdNodes size the two rings (each needs >= 2).
	HotNodes  int
	ColdNodes int
	// Hot / Cold are the per-ring configs. DefaultRouterConfig shapes
	// them for purpose: hot = unbatched hops and hot-set caches (short
	// revolution), cold = batched hops with a long linger and
	// parked-by-default circulation (capacity over latency).
	Hot  Config
	Cold Config
	// PromoteHeat promotes a cold fragment whose decayed access level
	// reaches it; DemoteHeat demotes a hot fragment that falls to it.
	PromoteHeat float64
	DemoteHeat  float64
	// TierScan is the migration scan period (and the heat half-life:
	// every scan decays all levels by half).
	TierScan time.Duration
	// FlashCrowdHits triggers the flash-crowd path: a cold fragment
	// accessed this many times within one scan window is promoted
	// immediately from the access path, without waiting for the
	// scanner. Negative disables the path.
	FlashCrowdHits int
	// HotFragments caps how many fragments the scanner keeps homed on
	// the hot ring (<= 0: no cap). Flash promotions ignore the cap; the
	// next scan demotes the coldest overflow.
	HotFragments int
	// ReleaseTimeout bounds how long a migration waits for the source
	// ring to drain before parking the release on the pending list.
	ReleaseTimeout time.Duration
	// TierFaults, when non-nil, injects faults into tier migration
	// transfers exactly as Config.JoinFaults does for join transfers: a
	// drop abandons the migration (the fragment stays put), a delay
	// stretches the window where kills land. Tests only.
	TierFaults *netsim.Faults
}

// DefaultRouterConfig suits in-process two-tier runtimes.
func DefaultRouterConfig() RouterConfig {
	hot := DefaultConfig()
	// The hot ring is built for revolution time: per-fragment sends
	// (no batch linger on the critical path) and the hot-set cache on.
	hot.HopBatchBytes = 0
	cold := DefaultConfig()
	// The cold ring is built for capacity: batched hops, a long linger
	// (wide revolutions are the budget the hot tier buys back), no
	// cache — cold pins are expected to be rare, and batching turns on
	// parked-by-default circulation so uninteresting fragments do not
	// even burn cold bandwidth.
	cold.CacheBytes = 0
	cold.HopBatchLinger = 2 * time.Millisecond
	return RouterConfig{
		HotNodes:       2,
		ColdNodes:      4,
		Hot:            hot,
		Cold:           cold,
		PromoteHeat:    3,
		DemoteHeat:     0.25,
		TierScan:       50 * time.Millisecond,
		FlashCrowdHits: 3,
		HotFragments:   64,
		ReleaseTimeout: 250 * time.Millisecond,
	}
}

// accKey counts in-flight accesses per (fragment, resolved home ring):
// the drain primitive of migration step 3. Keying by the ring the
// access resolved to — not just the fragment — lets post-flip accesses
// (which resolve to the destination) proceed without blocking the
// source drain.
type accKey struct {
	id   core.BATID
	ring RingID
}

// Router is the routing layer of a multi-ring runtime.
type Router struct {
	cfg   RouterConfig
	rings []*Ring // indexed by RingID: [hot, cold]
	query *Ring   // where Submit settles queries (the hot ring)

	// catMu guards fragHome, the routing catalog: fragment id → home
	// ring. Reads are the pin path's routing decision; the only writes
	// are publish (new id) and migration step 2 (the flip). Lock order:
	// accMu may be held when catMu is taken, never the reverse.
	catMu    sync.RWMutex
	fragHome map[core.BATID]RingID

	// accMu guards inflight, the per-(fragment, ring) access counters.
	accMu    sync.Mutex
	inflight map[accKey]int

	// heatMu guards the promotion-heat ledger: the router-observable
	// analogue of the circulating LOI (the router never sees the wire,
	// so it keeps its own decayed access counters per fragment).
	heatMu sync.Mutex
	heat   map[core.BATID]*core.Heat

	// promMu guards promoting (migrations in flight, keyed by start
	// time for flash latency) and pendingRelease (sources that did not
	// drain inside ReleaseTimeout, retried by the scanner).
	promMu         sync.Mutex
	promoting      map[core.BATID]time.Time
	pendingRelease map[core.BATID]RingID

	// goMu guards closing and wg.Add: a flash promotion spawned from
	// the access path must not race Close's wg.Wait.
	goMu    sync.Mutex
	closing bool
	wg      sync.WaitGroup
	closed  chan struct{}

	delegateSeq int64 // atomic: round-robin delegate picker
	placeSeq    int64 // atomic: round-robin destination-owner picker

	promotions      int64 // atomic: cold → hot migrations
	demotions       int64 // atomic: hot → cold migrations
	flashPromotions int64 // atomic: promotions taken on the flash path
	remoteFetches   int64 // atomic: pins dispatched cross-ring
	lastFlashNanos  int64 // atomic: latest flash promotion latency
}

// NewRouter builds the routed runtime over the given database columns:
// the hot/cold ring pair sharing one catalog, and the tier scanner. (A
// single ring is NewRing.)
func NewRouter(columns map[string]*bat.BAT, schema minisql.Schema, rc RouterConfig) (*Router, error) {
	if rc.Cold.QueueCap == 0 && rc.Cold.Workers == 0 {
		rc.Cold = DefaultConfig()
	}
	if rc.Hot.QueueCap == 0 && rc.Hot.Workers == 0 {
		rc.Hot = DefaultConfig()
		rc.Hot.HopBatchBytes = 0
	}
	if rc.ColdNodes < 2 {
		rc.ColdNodes = 2
	}
	if rc.HotNodes < 2 {
		rc.HotNodes = 2
	}
	if rc.PromoteHeat <= 0 {
		rc.PromoteHeat = 3
	}
	if rc.DemoteHeat <= 0 {
		rc.DemoteHeat = 0.25
	}
	if rc.TierScan <= 0 {
		rc.TierScan = 50 * time.Millisecond
	}
	if rc.FlashCrowdHits == 0 {
		rc.FlashCrowdHits = 3
	}
	if rc.ReleaseTimeout <= 0 {
		rc.ReleaseTimeout = 250 * time.Millisecond
	}

	rtr := &Router{
		cfg:            rc,
		fragHome:       map[core.BATID]RingID{},
		inflight:       map[accKey]int{},
		heat:           map[core.BATID]*core.Heat{},
		promoting:      map[core.BATID]time.Time{},
		pendingRelease: map[core.BATID]RingID{},
		closed:         make(chan struct{}),
	}

	coldCfg := rc.Cold
	coldCfg.ringID = ColdRing
	coldCfg.router = rtr
	cold, err := NewRing(rc.ColdNodes, columns, schema, coldCfg)
	if err != nil {
		return nil, err
	}
	hotCfg := rc.Hot
	hotCfg.ringID = HotRing
	hotCfg.router = rtr
	// The hot ring is born empty but admits whatever migrates onto it:
	// its RDMA regions must fit the cold ring's largest message.
	hotCfg.minMsgBytes = cold.maxMsgBytes
	hot, err := NewRing(rc.HotNodes, map[string]*bat.BAT{}, schema, hotCfg)
	if err != nil {
		cold.Close()
		return nil, err
	}

	// One catalog, two rings: the hot ring aliases the cold ring's
	// maps, so every per-ring catalog read works unchanged on both and
	// a Publish extends both at once. The names index stays per-ring
	// (appended separately — a plain slice cannot be shared). No
	// traffic has touched the hot ring yet; the lock is for the
	// happens-before edge to its already-running receive loops.
	hot.idsMu.Lock()
	hot.cols = cold.cols
	hot.fragVer = cold.fragVer
	hot.fragCol = cold.fragCol
	hot.colLocks = cold.colLocks
	hot.names = append([]string(nil), cold.names...)
	hot.idsMu.Unlock()

	rtr.rings = []*Ring{hot, cold}
	rtr.query = hot
	rtr.catMu.Lock()
	cold.idsMu.RLock()
	for id := range cold.fragVer {
		rtr.fragHome[id] = ColdRing
	}
	cold.idsMu.RUnlock()
	rtr.catMu.Unlock()

	rtr.wg.Add(1)
	go rtr.tierLoop()
	return rtr, nil
}

// ---------------------------------------------------------------------
// accessors
// ---------------------------------------------------------------------

// Tiers reports how many rings the runtime runs.
func (rtr *Router) Tiers() int { return len(rtr.rings) }

// Tier returns ring t.
func (rtr *Router) Tier(t RingID) *Ring { return rtr.rings[t] }

// QueryRing returns the ring queries settle on (the hot ring).
func (rtr *Router) QueryRing() *Ring { return rtr.query }

// HomeOf reports the home ring of one fragment.
func (rtr *Router) HomeOf(id core.BATID) RingID { return rtr.homeOf(id) }

// Homes reports the home ring of every fragment of a column, in
// fragment order.
func (rtr *Router) Homes(name string) ([]RingID, bool) {
	ids, ok := rtr.rings[0].Fragments(name)
	if !ok {
		return nil, false
	}
	homes := make([]RingID, len(ids))
	for i, id := range ids {
		homes[i] = rtr.homeOf(id)
	}
	return homes, true
}

// Submit executes sql on the query ring (nomadic bidding among its
// nodes, §6.1); pins of cold-homed fragments dispatch through the
// router from there.
func (rtr *Router) Submit(sql string) (*mal.ResultSet, error) { return rtr.query.Submit(sql) }

// Fetch retrieves a column by name from the least-loaded query-ring
// node.
func (rtr *Router) Fetch(name string) (*bat.BAT, error) {
	nodes := rtr.query.nodeList()
	best := nodes[0]
	bestBid := int64(1 << 62)
	for _, n := range nodes {
		if rtr.query.isDead(n.id) {
			continue
		}
		if bid := atomic.LoadInt64(&n.activeQueries); bid < bestBid {
			bestBid = bid
			best = n
		}
	}
	return best.Fetch(name)
}

// Close shuts the runtime down: scanner first (no new migrations),
// then every ring.
func (rtr *Router) Close() {
	rtr.goMu.Lock()
	if !rtr.closing {
		rtr.closing = true
		close(rtr.closed)
	}
	rtr.goMu.Unlock()
	rtr.wg.Wait()
	for _, rg := range rtr.rings {
		rg.Close()
	}
}

// Quiesce waits for every ring's queues to settle.
func (rtr *Router) Quiesce(timeout time.Duration) bool {
	ok := true
	for _, rg := range rtr.rings {
		if !rg.Quiesce(timeout) {
			ok = false
		}
	}
	return ok
}

// ---------------------------------------------------------------------
// routing: home resolution and the access protocol
// ---------------------------------------------------------------------

// homeOf resolves a fragment's home ring. Ids the routing catalog does
// not know default to the cold ring (they cannot be hot: promotion is
// the only way in, and promotion records the flip here first).
func (rtr *Router) homeOf(id core.BATID) RingID {
	rtr.catMu.RLock()
	home, ok := rtr.fragHome[id]
	rtr.catMu.RUnlock()
	if !ok {
		return ColdRing
	}
	return home
}

// beginAccess opens one pin's access to a fragment: it resolves the
// home ring and holds an access count against (fragment, home) until
// the returned release runs. The resolution and the count are one
// critical section — a migration's home flip (under catMu.Lock)
// therefore cleanly splits accesses into "counted against the source,
// drained before release" and "resolved to the destination". The
// access also feeds the promotion-heat ledger (and may trigger a
// flash-crowd promotion).
func (rtr *Router) beginAccess(id core.BATID) (RingID, func()) {
	rtr.accMu.Lock()
	home := rtr.homeOf(id)
	key := accKey{id, home}
	rtr.inflight[key]++
	rtr.accMu.Unlock()
	rtr.noteAccess(id, home)
	var once sync.Once
	release := func() {
		once.Do(func() {
			rtr.accMu.Lock()
			if rtr.inflight[key]--; rtr.inflight[key] <= 0 {
				delete(rtr.inflight, key)
			}
			rtr.accMu.Unlock()
		})
	}
	return home, release
}

// accessesIdle reports whether no in-flight access is counted against
// (id, ring).
func (rtr *Router) accessesIdle(id core.BATID, ring RingID) bool {
	rtr.accMu.Lock()
	n := rtr.inflight[accKey{id, ring}]
	rtr.accMu.Unlock()
	return n == 0
}

// noteAccess bumps the fragment's promotion heat and fires the
// flash-crowd path when a cold fragment's interest spikes inside one
// scan window.
func (rtr *Router) noteAccess(id core.BATID, home RingID) {
	rtr.heatMu.Lock()
	h := rtr.heat[id]
	if h == nil {
		h = &core.Heat{}
		rtr.heat[id] = h
	}
	h.Bump()
	flash := home == ColdRing && rtr.cfg.FlashCrowdHits > 0 &&
		h.Window() >= rtr.cfg.FlashCrowdHits
	rtr.heatMu.Unlock()
	if !flash || !rtr.markMigrating(id) {
		return
	}
	rtr.goMu.Lock()
	if rtr.closing {
		rtr.goMu.Unlock()
		rtr.unmarkMigrating(id)
		return
	}
	rtr.wg.Add(1)
	rtr.goMu.Unlock()
	go rtr.flashPromote(id)
}

// heatLevel reads a fragment's current decayed access level.
func (rtr *Router) heatLevel(id core.BATID) float64 {
	rtr.heatMu.Lock()
	defer rtr.heatMu.Unlock()
	if h := rtr.heat[id]; h != nil {
		return h.Level()
	}
	return 0
}

// ---------------------------------------------------------------------
// cross-ring pin dispatch
// ---------------------------------------------------------------------

// fetchRemote acquires a fragment homed on another ring on behalf of a
// pin: a delegate node on the home ring — deliberately a non-owner, so
// the pin meets the ring rather than shortcutting into the owner's
// store — runs the real request/waiter/circulation machinery there and
// hands back the payload with its version label. The caller's cancel
// and abort channels pass straight through to the delegate's wait. If
// the fragment migrates again mid-flight, the delegate's own
// acquisition re-resolves the home and recurses here — bounded by the
// migration rate, and correct on either path because a migration
// drains before it releases (there is always a serving owner on
// whichever ring an access resolved to). The delegate goes to the ring
// directly (fetchCurrent), never through its node's cache flights: the
// flight it would wait behind may be led by the very pin it serves.
func (rtr *Router) fetchRemote(id core.BATID, cancel, abort <-chan struct{}) (*bat.BAT, int, error) {
	atomic.AddInt64(&rtr.remoteFetches, 1)
	home, release := rtr.beginAccess(id)
	defer release()
	ring := rtr.rings[home]
	dn := rtr.delegateFor(ring, id)
	if dn == nil {
		return nil, 0, fmt.Errorf("live: no live delegate on %v ring for fragment %d", home, id)
	}
	q := core.QueryID(atomic.AddInt64(&dn.nextQ, 1))<<16 | core.QueryID(dn.id)
	dc := &queryDC{n: dn, q: q, cancel: cancel}
	dn.mu.Lock()
	dn.rt.Request(q, id)
	dn.mu.Unlock()
	b, ver, viaRing, err := dc.fetchCurrent(id, ring.fragVersion(id), abort)
	dn.mu.Lock()
	if err == nil && viaRing {
		dn.rt.Unpin(q, id)
		dn.unrefCached(id)
	}
	dn.rt.CancelQuery(q, []core.BATID{id})
	dn.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	// Full-length view, the Fetch discipline: a caller's Append must
	// not grow into the ring's copy.
	return b.Slice(0, b.Len()), ver, nil
}

// delegateFor picks a live node on ring rg to run a remote pin,
// preferring non-owners (round-robin) and falling back to the owner
// only when it is the last node standing.
func (rtr *Router) delegateFor(rg *Ring, id core.BATID) *Node {
	rg.memMu.RLock()
	owner, haveOwner := rg.fragOwner[id]
	rg.memMu.RUnlock()
	nodes := rg.nodeList()
	start := int(atomic.AddInt64(&rtr.delegateSeq, 1))
	var fallback *Node
	for k := 0; k < len(nodes); k++ {
		n := nodes[(start+k)%len(nodes)]
		if rg.isDead(n.id) {
			continue
		}
		if haveOwner && n.id == owner {
			fallback = n
			continue
		}
		return n
	}
	return fallback
}

// setHome records a fragment's home ring: Publish naming a new
// fragment, and the flip of a tier migration.
func (rtr *Router) setHome(id core.BATID, home RingID) {
	rtr.catMu.Lock()
	rtr.fragHome[id] = home
	rtr.catMu.Unlock()
}

// colOf maps a fragment back to its column name through the shared
// catalog.
func (rtr *Router) colOf(id core.BATID) string {
	rg := rtr.rings[0]
	rg.idsMu.RLock()
	defer rg.idsMu.RUnlock()
	return rg.fragCol[id]
}

// UpdateColumn is the §6.4 update on a routed runtime: Ring.UpdateColumn
// resolves every fragment's ring itself.
func (rtr *Router) UpdateColumn(name string, fn func(*bat.BAT) *bat.BAT) (int, error) {
	return rtr.query.UpdateColumn(name, fn)
}

// ---------------------------------------------------------------------
// tier migration
// ---------------------------------------------------------------------

// markMigrating claims a fragment for one migration (scan or flash),
// recording the claim time for flash latency. False means a migration
// of this fragment is already in flight.
func (rtr *Router) markMigrating(id core.BATID) bool {
	rtr.promMu.Lock()
	defer rtr.promMu.Unlock()
	if _, busy := rtr.promoting[id]; busy {
		return false
	}
	rtr.promoting[id] = time.Now()
	return true
}

func (rtr *Router) unmarkMigrating(id core.BATID) {
	rtr.promMu.Lock()
	delete(rtr.promoting, id)
	rtr.promMu.Unlock()
}

// migrateTier moves one fragment between rings: transfer → lock →
// recheck → installOwner → flip fragHome → drain → releaseOwner
// (move.go), entirely under the fragment's column lock. It returns
// false when the migration cannot proceed (fragment moved, source dead
// and promoted away, fault-dropped, oversized for the destination, or a
// previous source copy still pending release) — the fragment simply
// stays where the routing catalog says it is.
func (rtr *Router) migrateTier(id core.BATID, from, to RingID) bool {
	name := rtr.colOf(id)
	if from == to || name == "" {
		return false
	}
	src, dst := rtr.rings[from], rtr.rings[to]
	lock := src.columnLock(name)
	lock.Lock()
	defer lock.Unlock()

	rtr.promMu.Lock()
	_, pending := rtr.pendingRelease[id]
	rtr.promMu.Unlock()
	srcOwner := src.ownerOf(id)
	if rtr.homeOf(id) != from || pending || srcOwner == nil {
		// (Pending: a previous migration's source copy has not drained
		// yet; a third copy would make release tracking ambiguous.)
		return false
	}
	srcOwner.mu.Lock()
	b, ver := srcOwner.store[id], srcOwner.versions[id]
	srcOwner.mu.Unlock()
	dstOwner := rtr.pickOwner(dst)
	if b == nil || dstOwner == nil {
		return false
	}
	nb, ok := transfer(b, rtr.cfg.TierFaults, dst.MaxMessage())
	if !ok {
		return false
	}
	// Interest travels with the fragment: the promotion heat the router
	// observed is the admission LOI on the destination ring — high for
	// a promotion (the fragment re-enters circulation hot), low for a
	// demotion (it parks almost immediately, which is the intent).
	loi := rtr.heatLevel(id)
	chain := replicaChain(dst, dstOwner.id)
	unlock := lockNodes(append([]*Node{srcOwner, dstOwner}, chain...)...)
	if src.isDead(srcOwner.id) || dst.isDead(dstOwner.id) || !srcOwner.rt.Owns(id) || srcOwner.versions[id] != ver {
		// A kill landed in the transfer window, or the fragment moved or
		// re-versioned since the unlocked read (only possible through a
		// path that held this column's lock before us).
		unlock()
		return false
	}
	installOwner(dstOwner, id, nb, ver, loi, chain)
	unlock()
	// Destination placement before the flip: from the instant the flip
	// lands, a failover on the destination must know this fragment.
	dst.setPlacement(id, dstOwner, chain)
	rtr.setHome(id, to)

	// Drain the source and release its copy, still under the column
	// lock (no update can land between flip and release, so pre-flip
	// stragglers drain against bytes that are catalog-current for the
	// version they pinned). A drain that outlives the timeout parks the
	// release for the scanner.
	if !rtr.releaseSource(src, id, rtr.cfg.ReleaseTimeout) {
		rtr.promMu.Lock()
		rtr.pendingRelease[id] = from
		rtr.promMu.Unlock()
	}
	return true
}

// pickOwner picks a live destination owner round-robin.
func (rtr *Router) pickOwner(rg *Ring) *Node {
	nodes := rg.nodeList()
	start := int(atomic.AddInt64(&rtr.placeSeq, 1))
	for k := 0; k < len(nodes); k++ {
		n := nodes[(start+k)%len(nodes)]
		if !rg.isDead(n.id) {
			return n
		}
	}
	return nil
}

// ringHasInterest reports whether any live node of r still has an
// outstanding ring request for id (core S2 state) — the circulation
// half of the drain condition.
func ringHasInterest(r *Ring, id core.BATID) bool {
	for _, n := range r.nodeList() {
		if r.isDead(n.id) {
			continue
		}
		n.mu.Lock()
		has := n.rt.HasRequest(id)
		n.mu.Unlock()
		if has {
			return true
		}
	}
	return false
}

// releaseSource waits for the source ring to drain (no in-flight
// access counted against it, no outstanding ring request on it) and
// then releases the residual copy and its placement. Returns false if
// the drain outlived the timeout (nothing is removed; the scanner
// retries). Called with the fragment's column lock held.
func (rtr *Router) releaseSource(src *Ring, id core.BATID, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !rtr.accessesIdle(id, src.id) || ringHasInterest(src, id) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	if owner := src.ownerOf(id); owner != nil {
		reps := src.replicaNodes(id)
		unlock := lockNodes(append(reps, owner)...)
		releaseOwner(owner, id, reps)
		unlock()
		src.memMu.Lock()
		delete(src.fragOwner, id)
		delete(src.fragReplicas, id)
		src.memMu.Unlock()
	}
	return true
}

// flashPromote is the flash-crowd path: promote one cold fragment
// immediately from the access that crossed the threshold. The transfer
// is store-to-store (it does not wait for the cold ring to come
// around), so the promotion lands well within one cold revolution of
// the interest spike.
func (rtr *Router) flashPromote(id core.BATID) {
	defer rtr.wg.Done()
	rtr.promMu.Lock()
	start := rtr.promoting[id]
	rtr.promMu.Unlock()
	if rtr.migrateTier(id, ColdRing, HotRing) {
		// Latency first: whoever sees the promotion counted (TierStats)
		// also sees what it cost.
		atomic.StoreInt64(&rtr.lastFlashNanos, time.Since(start).Nanoseconds())
		atomic.AddInt64(&rtr.promotions, 1)
		atomic.AddInt64(&rtr.flashPromotions, 1)
	}
	rtr.unmarkMigrating(id)
}

// ---------------------------------------------------------------------
// the tier scanner
// ---------------------------------------------------------------------

func (rtr *Router) tierLoop() {
	defer rtr.wg.Done()
	t := time.NewTicker(rtr.cfg.TierScan)
	defer t.Stop()
	for {
		select {
		case <-rtr.closed:
			return
		case <-t.C:
			rtr.scanTiers()
			rtr.retryPending()
		}
	}
}

// scanTiers is one migration pass: decay every fragment's heat (the
// scan period is the heat half-life), demote hot-homed fragments whose
// level fell to DemoteHeat, promote cold-homed fragments whose level
// reached PromoteHeat — hottest first while the HotFragments cap
// allows.
func (rtr *Router) scanTiers() {
	levels := map[core.BATID]float64{}
	rtr.heatMu.Lock()
	for id, h := range rtr.heat {
		h.Decay(0.5)
		if h.Cold() {
			delete(rtr.heat, id)
			continue
		}
		levels[id] = h.Level()
	}
	rtr.heatMu.Unlock()

	type cand struct {
		id    core.BATID
		level float64
	}
	var promos, demos []cand
	hotCount := 0
	rtr.catMu.RLock()
	for id, home := range rtr.fragHome {
		if home == HotRing {
			hotCount++
			if levels[id] <= rtr.cfg.DemoteHeat {
				demos = append(demos, cand{id, levels[id]})
			}
		} else if lvl := levels[id]; lvl >= rtr.cfg.PromoteHeat {
			promos = append(promos, cand{id, lvl})
		}
	}
	rtr.catMu.RUnlock()

	// Coldest demotions first: they free hot capacity for this very
	// pass's promotions.
	sort.Slice(demos, func(a, b int) bool { return demos[a].level < demos[b].level })
	for _, c := range demos {
		if !rtr.markMigrating(c.id) {
			continue
		}
		if rtr.migrateTier(c.id, HotRing, ColdRing) {
			atomic.AddInt64(&rtr.demotions, 1)
			hotCount--
		}
		rtr.unmarkMigrating(c.id)
	}
	sort.Slice(promos, func(a, b int) bool { return promos[a].level > promos[b].level })
	for _, c := range promos {
		if rtr.cfg.HotFragments > 0 && hotCount >= rtr.cfg.HotFragments {
			break
		}
		if !rtr.markMigrating(c.id) {
			continue
		}
		if rtr.migrateTier(c.id, ColdRing, HotRing) {
			atomic.AddInt64(&rtr.promotions, 1)
			hotCount++
		}
		rtr.unmarkMigrating(c.id)
	}
}

// retryPending retries releases whose source drain outlived its
// migration's timeout (with a short per-retry budget — the scanner
// must not stall behind one stubborn straggler).
func (rtr *Router) retryPending() {
	rtr.promMu.Lock()
	pend := make(map[core.BATID]RingID, len(rtr.pendingRelease))
	for id, from := range rtr.pendingRelease {
		pend[id] = from
	}
	rtr.promMu.Unlock()
	for id, from := range pend {
		src := rtr.rings[from]
		lock := src.columnLock(rtr.colOf(id))
		lock.Lock()
		ok := rtr.releaseSource(src, id, time.Millisecond)
		lock.Unlock()
		if ok {
			rtr.promMu.Lock()
			delete(rtr.pendingRelease, id)
			rtr.promMu.Unlock()
		}
	}
}

// ---------------------------------------------------------------------
// stats
// ---------------------------------------------------------------------

// TierStats snapshots the routed runtime: residency per tier, the
// migration counters, and each ring's measured revolution time — the
// quantity the tier split trades (a hot revolution should be a small
// fraction of a cold one).
type TierStats struct {
	Tiers        int `json:"tiers"`
	HotNodes     int `json:"hot_nodes"`
	ColdNodes    int `json:"cold_nodes"`
	HotResident  int `json:"hot_resident"`  // fragments homed on the hot ring
	ColdResident int `json:"cold_resident"` // fragments homed on the cold ring

	Promotions      int64 `json:"promotions"`
	Demotions       int64 `json:"demotions"`
	FlashPromotions int64 `json:"flash_promotions"`
	RemoteFetches   int64 `json:"remote_fetches"`
	PendingReleases int64 `json:"pending_releases"`

	HotRevolutionMicros    int64 `json:"hot_revolution_micros"`
	ColdRevolutionMicros   int64 `json:"cold_revolution_micros"`
	LastFlashPromoteMicros int64 `json:"last_flash_promote_micros"`
}

// TierStats snapshots the runtime's tiering counters.
func (rtr *Router) TierStats() TierStats {
	s := TierStats{
		Tiers:           len(rtr.rings),
		Promotions:      atomic.LoadInt64(&rtr.promotions),
		Demotions:       atomic.LoadInt64(&rtr.demotions),
		FlashPromotions: atomic.LoadInt64(&rtr.flashPromotions),
		RemoteFetches:   atomic.LoadInt64(&rtr.remoteFetches),
	}
	s.LastFlashPromoteMicros = atomic.LoadInt64(&rtr.lastFlashNanos) / 1e3
	rtr.promMu.Lock()
	s.PendingReleases = int64(len(rtr.pendingRelease))
	rtr.promMu.Unlock()
	s.HotNodes = rtr.rings[HotRing].Size()
	s.ColdNodes = rtr.rings[ColdRing].Size()
	rtr.catMu.RLock()
	for _, home := range rtr.fragHome {
		if home == HotRing {
			s.HotResident++
		} else {
			s.ColdResident++
		}
	}
	rtr.catMu.RUnlock()
	s.HotRevolutionMicros = rtr.rings[HotRing].RevolutionTime().Microseconds()
	s.ColdRevolutionMicros = rtr.rings[ColdRing].RevolutionTime().Microseconds()
	return s
}
