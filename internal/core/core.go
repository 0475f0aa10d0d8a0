// Package core implements the Data Cyclotron runtime layer of §4: the
// control center on every ring node. It is a pure event-driven state
// machine with no I/O of its own: inputs are local DBMS calls
// (request/pin/unpin), messages from the ring neighbours, and timers;
// outputs are Effect values — sends, deliveries, query errors, hot-set
// notices — appended to one ordered outbox that the driver takes after
// each input (Runtime.Effects) and carries out. Its Env only tells the
// time, reports the local BAT queue and arms timers. The same protocol
// code thus runs on the discrete-event simulator (package cluster) and
// on the live ring (package live), mirroring how the paper validates
// its protocols in NS-2 before targeting the RDMA cluster.
//
// The runtime maintains the three catalog structures of Figure 2:
//
//	S1 — the BATs owned by this node's data loader,
//	S2 — outstanding BAT requests of the local queries,
//	S3 — the pin() calls currently blocked per BAT.
//
// and executes the Request Propagation (Fig. 3), BAT Propagation
// (Fig. 4), and Hot Data Set Management (Fig. 5) algorithms, the
// loadAll/resend resource-management functions of §4.2.3, and the
// dynamic LOIT adaptation of §4.4/§5.2.
package core

import (
	"fmt"
	"slices"
	"time"
)

// NodeID identifies a ring node.
type NodeID int

// BATID identifies a data fragment (one BAT).
type BATID int

// QueryID identifies a query registered at some node.
type QueryID int64

// RequestMsg travels anti-clockwise towards the BAT's owner (§4).
type RequestMsg struct {
	Origin NodeID // the node whose queries want the BAT
	BAT    BATID
}

// RequestWireSize is the on-wire size of a BAT request message: the
// fields owner and bat_id of §4.3 plus framing.
const RequestWireSize = 64

// WireSize implements netsim.Message.
func (m RequestMsg) WireSize() int { return RequestWireSize }

// BATMsg is the administrative header that travels clockwise with each
// hot-set fragment (§4.3): owner, bat_id, bat_size, loi, copies, hops,
// cycles. In simulation only the header travels and Size accounts for
// the payload; in the live ring the payload BAT rides along.
type BATMsg struct {
	Owner  NodeID
	BAT    BATID
	Size   int // payload bytes
	LOI    float64
	Copies int
	Hops   int
	Cycles int
}

// BATHeaderSize is the header overhead of a BAT message on the wire.
const BATHeaderSize = 64

// WireSize implements netsim.Message.
func (m BATMsg) WireSize() int { return m.Size + BATHeaderSize }

// TimerHandle cancels a pending timer.
type TimerHandle interface{ Cancel() }

// Env is what the runtime reads from its driver. It never writes
// through it: everything the runtime does to the outside world is an
// Effect.
type Env interface {
	// Now returns the current time (virtual or wall clock).
	Now() time.Duration
	// QueueLoad reports the local BAT queue occupancy and capacity in
	// bytes, counting every SendData effect already applied; the LOIT
	// adaptation is driven by this (§4.4).
	QueueLoad() (used, capacity int)
	// After schedules fn after d; the returned handle cancels it. fn runs
	// the runtime like an entry point does, so the driver applies the
	// effects it emits when it returns.
	After(d time.Duration, fn func()) TimerHandle
}

// EffectKind names what an Effect asks the driver to do.
type EffectKind uint8

const (
	// SendData forwards Effect.Data clockwise to the successor.
	SendData EffectKind = iota + 1
	// SendRequest forwards Effect.Req anti-clockwise to the predecessor.
	// A message the link drops is recovered by the resend timeout
	// (§4.2.3).
	SendRequest
	// Deliver hands Effect.BAT to Effect.Query, unblocking its pin().
	Deliver
	// QueryError aborts Effect.Query: Effect.BAT does not exist (first
	// outcome of Request Propagation).
	QueryError
	// Loaded and Unloaded report an owned BAT of Effect.Size bytes
	// entering or leaving the hot set (ring-load accounting, Figure 7/9).
	Loaded
	Unloaded
)

// Effect is one action of the runtime, for its driver to carry out.
type Effect struct {
	Kind  EffectKind
	BAT   BATID      // Deliver, QueryError, Loaded, Unloaded
	Query QueryID    // Deliver, QueryError
	Size  int        // Loaded, Unloaded
	Data  BATMsg     // SendData
	Req   RequestMsg // SendRequest
}

// Config tunes the runtime.
type Config struct {
	// LOITLevels are the discrete threshold levels (§5.2 uses
	// 0.1/0.6/1.1). With AdaptiveLOIT off, only level StartLevel is
	// used, reproducing the static sweeps of §5.1.
	LOITLevels []float64
	// StartLevel indexes LOITLevels at start-up.
	StartLevel int
	// AdaptiveLOIT moves the level with the queue watermarks.
	AdaptiveLOIT bool
	// HighWater and LowWater are queue-load fractions: above HighWater
	// the LOIT steps up one level, below LowWater it steps down (§5.2
	// uses 0.8 and 0.4).
	HighWater, LowWater float64
	// InitialLOI is the level of interest assigned when a BAT enters
	// the ring.
	InitialLOI float64
	// LoadAllPeriod is the T of §4.2.3: how often postponed BAT loads
	// are retried.
	LoadAllPeriod time.Duration
	// ResendTimeout is the rotational-delay timeout that detects lost
	// requests (§4.2.3). Zero disables resending.
	ResendTimeout time.Duration
	// LocalPinsSkipLoad keeps a purely local request at the owner from
	// admitting the BAT into the storage ring: the owner serves its own
	// pins from local storage either way, so circulation only benefits
	// other nodes — and their ring requests still trigger the load.
	// The live ring enables this together with its hot-set cache, so a
	// fully-hot local workload causes zero circulation. Off by default
	// (the paper's behavior, and what the simulator reproduces).
	LocalPinsSkipLoad bool
	// ParkIdleCycles enables LOI-gated hop pacing: a BAT that completes
	// this many consecutive revolutions with zero copies (nobody
	// downstream used it, per the envelope's own interest accounting) is
	// parked at its owner instead of burning hop slots — it stays in the
	// hot set, its LOI frozen, and re-enters circulation the moment the
	// next interest signal (a ring request) reaches the owner. An owner
	// that stops idle BATs must not mistake unserved interest for
	// idleness, so pacing also closes the two windows in which it could:
	// a request that reaches the owner while the BAT circulates guards
	// its next homecoming (that pass neither parks nor unloads, so the
	// envelope makes one more full revolution and passes the requester
	// even if it had already gone by), and an envelope passing a node
	// that has asked for the BAT but not yet blocked in pin() counts a
	// copy. 0 disables all three (every hot BAT circulates continuously
	// and a request can lose its BAT to an unload until the resend timer
	// fires — the paper's behavior, and what the simulator reproduces).
	ParkIdleCycles int
}

// DefaultConfig mirrors the paper's experimental settings.
func DefaultConfig() Config {
	return Config{
		LOITLevels:    []float64{0.1, 0.6, 1.1},
		StartLevel:    0,
		AdaptiveLOIT:  true,
		HighWater:     0.8,
		LowWater:      0.4,
		InitialLOI:    0,
		LoadAllPeriod: 100 * time.Millisecond,
		ResendTimeout: 2 * time.Second,
	}
}

// ownedBAT is an S1 entry.
type ownedBAT struct {
	id           BATID
	size         int
	loaded       bool
	pending      bool
	pendingSince time.Duration

	// LOI-gated pacing state (Config.ParkIdleCycles): consecutive
	// zero-copy revolutions observed, whether a request reached this
	// owner since the BAT last came home, and — while parked — the
	// frozen circulation header the BAT re-enters the ring with.
	idleCycles int
	wanted     bool
	parked     bool
	parkedMsg  BATMsg

	// initLOI, when non-zero, overrides Config.InitialLOI for this
	// BAT's next ring admission and is then consumed. A replica
	// promoted to owner after a node death enters circulation with the
	// interest it had accumulated before the crash instead of starting
	// cold (§6.3).
	initLOI float64
}

// request is an S2 entry: one outstanding request aggregating all local
// queries interested in the BAT.
type request struct {
	bat       BATID
	queries   map[QueryID]bool // registered interest
	delivered map[QueryID]bool // queries that have pinned and received it
	sent      bool
	resend    TimerHandle
}

func (r *request) allDelivered() bool {
	for q := range r.queries {
		if !r.delivered[q] {
			return false
		}
	}
	return true
}

// Stats counts protocol events on one node.
type Stats struct {
	RequestsSent      uint64
	RequestsForwarded uint64
	RequestsAbsorbed  uint64
	RequestsReturned  uint64 // came back to origin: BAT does not exist
	Resends           uint64
	BATsForwarded     uint64
	BATsLoaded        uint64
	BATsUnloaded      uint64
	Deliveries        uint64
	PendingPostponed  uint64 // load postponed because the ring was full
	LOITSteps         uint64
	BATsParked        uint64 // idle BATs held at their owner (LOI pacing)
	BATsUnparked      uint64 // parked BATs re-admitted by an interest signal
	BATsPromoted      uint64 // BATs that entered S1 through PromoteOwned (failover, moves)
	OrbitsSuspected   uint64 // circulating BATs marked lost after a node death
}

// Runtime is the Data Cyclotron layer of one node.
type Runtime struct {
	id  NodeID
	env Env
	cfg Config

	s1 map[BATID]*ownedBAT
	s2 map[BATID]*request
	s3 map[BATID]map[QueryID]bool

	cache       map[BATID]int // pins local queries hold on cached BATs
	pendingFIFO []BATID       // owned BATs awaiting ring admission, oldest first

	loitLevel int
	loadTimer TimerHandle // the armed loadAll tick (Start)

	// out is the outbox Effects drains; unsent is the wire size of its
	// SendData effects, which the driver's queue does not count yet.
	out    []Effect
	unsent int

	stats Stats
}

// New creates the runtime for node id. Call Start to arm the loadAll
// ticker once the Env is live.
func New(id NodeID, env Env, cfg Config) *Runtime {
	if len(cfg.LOITLevels) == 0 {
		cfg.LOITLevels = []float64{0.1}
	}
	if cfg.StartLevel < 0 || cfg.StartLevel >= len(cfg.LOITLevels) {
		cfg.StartLevel = 0
	}
	return &Runtime{
		id:        id,
		env:       env,
		cfg:       cfg,
		s1:        make(map[BATID]*ownedBAT),
		s2:        make(map[BATID]*request),
		s3:        make(map[BATID]map[QueryID]bool),
		cache:     make(map[BATID]int),
		loitLevel: cfg.StartLevel,
	}
}

// ID reports the node id.
func (rt *Runtime) ID() NodeID { return rt.id }

// CachePins reports how many pins local queries hold on cached BAT b.
func (rt *Runtime) CachePins(b BATID) int { return rt.cache[b] }

// Effects appends the effects emitted since its last call to dst, in
// emission order, and empties the outbox. A driver calls it after every
// entry point and timer callback and applies what it returns in order.
func (rt *Runtime) Effects(dst []Effect) []Effect {
	dst = append(dst, rt.out...)
	rt.out = rt.out[:0]
	rt.unsent = 0
	return dst
}

func (rt *Runtime) emit(e Effect) { rt.out = append(rt.out, e) }

func (rt *Runtime) sendData(m BATMsg) {
	rt.unsent += m.WireSize()
	rt.emit(Effect{Kind: SendData, Data: m})
}

// queueLoad is Env.QueueLoad counting the data sends still in the
// outbox as queued, as they are by the time any of them is applied.
func (rt *Runtime) queueLoad() (used, capacity int) {
	used, capacity = rt.env.QueueLoad()
	return used + rt.unsent, capacity
}

// Stats returns a snapshot of the protocol counters.
func (rt *Runtime) Stats() Stats { return rt.stats }

// LOIT reports the node's current level-of-interest threshold.
func (rt *Runtime) LOIT() float64 { return rt.cfg.LOITLevels[rt.loitLevel] }

// LOITLevel reports the current level index.
func (rt *Runtime) LOITLevel() int { return rt.loitLevel }

// Owns reports whether this node's data loader owns b.
func (rt *Runtime) Owns(b BATID) bool {
	_, ok := rt.s1[b]
	return ok
}

// Loaded reports whether owned BAT b is currently in the hot set.
func (rt *Runtime) Loaded(b BATID) bool {
	o, ok := rt.s1[b]
	return ok && o.loaded
}

// PendingLoads reports how many owned BATs await ring admission.
func (rt *Runtime) PendingLoads() int { return len(rt.pendingFIFO) }

// OutstandingRequests reports the S2 size.
func (rt *Runtime) OutstandingRequests() int { return len(rt.s2) }

// HasRequest reports whether b has an outstanding S2 request on this
// node — live interest that has not yet been delivered or cancelled.
func (rt *Runtime) HasRequest(b BATID) bool {
	_, ok := rt.s2[b]
	return ok
}

// Parked reports whether owned BAT b is currently held at this owner by
// LOI-gated pacing (ParkIdleCycles), awaiting a fresh interest signal.
func (rt *Runtime) Parked(b BATID) bool {
	o, ok := rt.s1[b]
	return ok && o.parked
}

// AddOwned registers b in the node's S1 catalog (the random upfront
// partitioning of §4). The BAT starts cold, on the local disk.
func (rt *Runtime) AddOwned(b BATID, size int) {
	rt.s1[b] = &ownedBAT{id: b, size: size}
}

// AdoptOwned registers b as owned with an explicit hot-set state: the
// receiving side of an ownership handover during ring membership
// changes (§6.3). A BAT adopted as loaded keeps circulating; its next
// pass at this node runs hot-set management as usual.
func (rt *Runtime) AdoptOwned(b BATID, size int, loaded bool) {
	rt.s1[b] = &ownedBAT{id: b, size: size, loaded: loaded}
}

// PromoteOwned makes this node the owner of b at the given size: replica
// promotion after the previous owner died (§6.3), an ownership move, or
// a new version installed in place (§6.4). A BAT new to S1 enters cold
// (not loaded), so the next interest signal re-admits it through the
// normal tryLoad path; loi carries the level of interest the fragment
// had accumulated while circulating from its previous owner, so a hot
// fragment resumes as hot instead of re-earning its place from zero. A
// BAT this node already owns keeps its hot-set state — loaded, pending,
// parked and the frozen header — and only takes the new size: its
// envelope is still in orbit (or held here), so forgetting that would
// leave the books saying "circulating" for an envelope nobody will
// ever send again.
func (rt *Runtime) PromoteOwned(b BATID, size int, loi float64) {
	if o := rt.s1[b]; o != nil {
		o.size = size
	} else {
		rt.s1[b] = &ownedBAT{id: b, size: size, initLOI: loi}
		rt.stats.BATsPromoted++
	}
	// Queries that pinned b while its old owner was (silently) dead are
	// still blocked in S3, waiting on a delivery that died with it. The
	// promotion makes this node the owner, so those pins are served the
	// same way Pin serves an owner's query: from local storage, now.
	if len(rt.s3[b]) > 0 {
		rt.deliverPins(b)
		rt.finishRequestIfDone(b)
	}
}

// SuspectOrbit marks every owned, circulating BAT as unloaded: called
// on the survivors of a ring membership failure, whose in-flight
// envelopes may have died in the dead node's queues. The owner cannot
// tell a lost envelope from a slow one, so it assumes loss: the next
// interest signal re-admits the BAT through tryLoad exactly like a
// first load (requesters' resend timers fire within one ResendTimeout,
// so a fragment someone is waiting for re-enters orbit in bounded
// time). An envelope that in fact survived keeps circulating and
// serving pins until it returns here, where hot-set management drops
// unloaded arrivals silently — at most one transient duplicate, never
// a lost fragment. Parked BATs hold their envelope locally and keep it.
// The Unloaded effects go out in ascending BAT id.
func (rt *Runtime) SuspectOrbit() {
	for _, id := range ascending(nil, rt.s1) {
		if o := rt.s1[id]; o.loaded && !o.parked {
			o.loaded = false
			o.idleCycles = 0
			rt.stats.OrbitsSuspected++
			rt.emit(Effect{Kind: Unloaded, BAT: o.id, Size: o.size})
		}
	}
	rt.adaptLOIT()
}

// RemoveOwned drops b from S1 (used by ownership handover in pulsating
// rings). Reports the entry's size and whether it was loaded.
func (rt *Runtime) RemoveOwned(b BATID) (size int, loaded, ok bool) {
	o, exists := rt.s1[b]
	if !exists {
		return 0, false, false
	}
	delete(rt.s1, b)
	rt.unpend(b)
	return o.size, o.loaded, true
}

// OwnedBATs lists the S1 catalog (for handover and tests).
func (rt *Runtime) OwnedBATs() []BATID {
	out := make([]BATID, 0, len(rt.s1))
	for id := range rt.s1 {
		out = append(out, id)
	}
	return out
}

// Start arms the periodic loadAll function (§4.2.3).
func (rt *Runtime) Start() {
	if rt.cfg.LoadAllPeriod > 0 {
		rt.loadTimer = rt.env.After(rt.cfg.LoadAllPeriod, func() {
			rt.LoadAll()
			// Evaluate the watermark rule on every tick, not only on
			// load/arrival events: an idle node whose queue load has
			// drained below LowWater must still step its LOIT back down
			// (§5.2), otherwise it stays pinned at a high threshold until
			// the next load happens to run the adaptation.
			rt.adaptLOIT()
			rt.Start()
		})
	}
}

// Stop cancels the loadAll ticker.
func (rt *Runtime) Stop() {
	if rt.loadTimer != nil {
		rt.loadTimer.Cancel()
		rt.loadTimer = nil
	}
}

// ---------------------------------------------------------------------
// DBMS-facing calls (§4.2.1)
// ---------------------------------------------------------------------

// Request registers query q's interest in BAT b: the request() call of
// the rewritten plan. It never blocks.
func (rt *Runtime) Request(q QueryID, b BATID) {
	if o, owned := rt.s1[b]; owned {
		// Owner: load into the hot set (or locally serve) if needed.
		if !o.loaded && !rt.cfg.LocalPinsSkipLoad {
			rt.tryLoad(o)
		}
		// Local queries of the owner are served from local storage;
		// track them so Pin can deliver immediately.
		rq, _ := rt.ensureRequestNew(b)
		rq.queries[q] = true
		return
	}
	rq, isNew := rt.ensureRequestNew(b)
	rq.queries[q] = true
	if isNew {
		rt.sendRequest(rq)
	}
}

// Pin blocks query q until BAT b is locally available; here it only
// registers the blocked pin in S3 (or delivers immediately from the
// local cache / owner storage). The driver implements the actual
// blocking around the Deliver effect.
func (rt *Runtime) Pin(q QueryID, b BATID) {
	if _, owned := rt.s1[b]; owned {
		// Owner: retrieved from disk or local memory (§4.2.1).
		rt.deliver(b, q)
		rt.finishRequestIfDone(b)
		return
	}
	if rt.cache[b] > 0 {
		// Local cache hit: a local query holds the BAT pinned (§4.2.1
		// "the pin() request checks the local cache for availability").
		rt.cache[b]++
		rt.deliver(b, q)
		rt.finishRequestIfDone(b)
		return
	}
	// Block until the BAT flows past.
	pins := rt.s3[b]
	if pins == nil {
		pins = make(map[QueryID]bool)
		rt.s3[b] = pins
	}
	pins[q] = true
	// Make sure an S2 request backs this pin. A query that re-pins a
	// BAT after its request was already satisfied (and the local cache
	// released) must re-announce interest, otherwise the fragment may
	// never flow past again.
	rq, isNew := rt.ensureRequestNew(b)
	rq.queries[q] = true
	if rq.delivered[q] {
		delete(rq.delivered, q) // awaiting a fresh delivery
	}
	if isNew || !rq.sent {
		rt.sendRequest(rq)
	}
}

// Unpin releases query q's hold on BAT b. It emits no effect.
func (rt *Runtime) Unpin(q QueryID, b BATID) {
	if rt.cache[b] > 0 {
		if rt.cache[b]--; rt.cache[b] == 0 {
			delete(rt.cache, b)
		}
	}
	if pins := rt.s3[b]; pins != nil {
		delete(pins, q)
		if len(pins) == 0 {
			delete(rt.s3, b)
		}
	}
}

// CancelQuery removes all of q's bookkeeping (used when a query is
// aborted or migrates away during the nomadic phase). It emits no
// effect.
func (rt *Runtime) CancelQuery(q QueryID, bats []BATID) {
	for _, b := range bats {
		if rq := rt.s2[b]; rq != nil {
			delete(rq.queries, q)
			delete(rq.delivered, q)
			if len(rq.queries) == 0 {
				rt.dropRequest(rq)
			} else {
				rt.finishRequestIfDone(b)
			}
		}
		if pins := rt.s3[b]; pins != nil {
			delete(pins, q)
			if len(pins) == 0 {
				delete(rt.s3, b)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Peer interaction (§4.2.2)
// ---------------------------------------------------------------------

// OnRequest executes the Request Propagation algorithm (Fig. 3) for a
// request message arriving from the successor.
func (rt *Runtime) OnRequest(m RequestMsg) {
	// First outcome: the request returned to its origin — the BAT does
	// not exist (anymore) in the database. Its waiting queries fail in
	// ascending query id.
	if m.Origin == rt.id {
		rt.stats.RequestsReturned++
		if rq := rt.s2[m.BAT]; rq != nil {
			for _, q := range ascending(nil, rq.queries) {
				if !rq.delivered[q] {
					rt.emit(Effect{Kind: QueryError, BAT: m.BAT, Query: q})
				}
			}
			rt.dropRequest(rq)
		}
		delete(rt.s3, m.BAT)
		return
	}
	// Second/third/fourth outcomes: this node owns the BAT.
	if o, owned := rt.s1[m.BAT]; owned {
		if o.loaded {
			// An interest signal reached the owner: a parked BAT
			// re-enters circulation; a circulating one may already have
			// passed the requester, so its next homecoming is guarded
			// (hotSetManagement) and the pin is counted downstream on
			// the revolution after.
			if o.parked {
				rt.unpark(o)
			} else {
				o.wanted = true
			}
			return
		}
		rt.tryLoad(o)
		return
	}
	// Fifth outcome: same request outstanding here — absorb it. The
	// owner has been (or will be) notified by our own request, and the
	// BAT circulates past every node including the origin.
	if rq := rt.s2[m.BAT]; rq != nil {
		if rq.sent {
			rt.stats.RequestsAbsorbed++
			return
		}
		// Ours was never sent (e.g. created while we owned it during a
		// handover): ride on the incoming one.
		rq.sent = true
		rt.armResend(rq)
	}
	// Sixth outcome: forward.
	rt.stats.RequestsForwarded++
	rt.emit(Effect{Kind: SendRequest, Req: m})
}

// OnBAT handles a BAT arriving from the predecessor: Hot Data Set
// Management (Fig. 5) when this node is the loader, BAT Propagation
// (Fig. 4) otherwise.
func (rt *Runtime) OnBAT(m BATMsg) {
	if m.Owner == rt.id {
		rt.hotSetManagement(m)
		return
	}
	rt.batPropagation(m)
}

// batPropagation implements Fig. 4.
func (rt *Runtime) batPropagation(m BATMsg) {
	m.Hops++
	rq := rt.s2[m.BAT]
	if rq != nil {
		rq.sent = true // the BAT's presence proves the request got through
	}
	if pins := rt.s3[m.BAT]; len(pins) > 0 {
		// At least one local query is blocked in pin(): the node uses
		// the BAT, counting one copy (§4.2.3).
		m.Copies++
		rt.cache[m.BAT] += len(pins)
		rt.deliverPins(m.BAT)
	} else if rq != nil && rt.cfg.ParkIdleCycles > 0 {
		// A local query asked for the BAT and has not blocked in pin()
		// yet. Uncounted, this pass looks idle to an owner that parks or
		// unloads on idle passes, and the pin that follows would wait on
		// a request already marked sent — so it counts as the copy it is
		// about to become.
		m.Copies++
	}
	rt.finishRequestIfDone(m.BAT)
	rt.stats.BATsForwarded++
	rt.sendData(m)
	rt.adaptLOIT()
}

// hotSetManagement implements Fig. 5 and equation (1).
func (rt *Runtime) hotSetManagement(m BATMsg) {
	o := rt.s1[m.BAT]
	if o == nil || !o.loaded {
		// The BAT was unloaded concurrently (e.g. ownership moved);
		// drop it silently — it is no longer part of the hot set.
		return
	}
	m.Cycles++
	copiesThisRev := m.Copies
	cavg := 0.0
	if m.Hops > 0 {
		cavg = float64(m.Copies) / float64(m.Hops)
	}
	newLOI := (m.LOI + cavg*float64(m.Cycles)) / float64(m.Cycles)
	m.Copies = 0
	m.Hops = 0
	// LOI-gated pacing: the envelope says nobody downstream copied the
	// BAT this whole revolution. After ParkIdleCycles such revolutions
	// in a row, hold it here instead of burning another revolution's
	// worth of hop slots; the next request arriving at this owner
	// re-admits it with the header frozen at this point (the pause
	// itself costs no further LOI decay — that is what distinguishes a
	// park from the unload below, which forgets the LOI and pays the
	// LoadAll round-trip to come back). The park check precedes the
	// threshold check deliberately: an idle revolution is exactly when
	// the LOI divides by the cycle count, so a threshold-first order
	// would unload almost every idle BAT before it could ever park. A
	// request that reached this owner since the last pass overrides both:
	// its sender may sit behind the envelope, so this homecoming forwards
	// with the new LOI and the next one judges the BAT as usual.
	guarded := o.wanted && rt.cfg.ParkIdleCycles > 0
	o.wanted = false
	if guarded {
		o.idleCycles = 0
	} else if rt.cfg.ParkIdleCycles > 0 {
		if copiesThisRev == 0 {
			o.idleCycles++
			if o.idleCycles >= rt.cfg.ParkIdleCycles {
				m.LOI = newLOI
				o.parked = true
				o.parkedMsg = m
				rt.stats.BATsParked++
				rt.adaptLOIT()
				return
			}
		} else {
			o.idleCycles = 0
		}
	}
	if newLOI < rt.LOIT() && !guarded {
		// Below threshold: pull the BAT out of the hot set.
		o.loaded = false
		o.idleCycles = 0
		rt.stats.BATsUnloaded++
		rt.emit(Effect{Kind: Unloaded, BAT: m.BAT, Size: o.size})
		rt.adaptLOIT()
		return
	}
	m.LOI = newLOI
	rt.stats.BATsForwarded++
	rt.sendData(m)
	rt.adaptLOIT()
}

// unpark re-admits a parked BAT into circulation with the header it was
// parked with (its LOI and cycle count frozen across the pause).
func (rt *Runtime) unpark(o *ownedBAT) {
	o.parked = false
	o.idleCycles = 0
	rt.stats.BATsUnparked++
	rt.stats.BATsForwarded++
	rt.sendData(o.parkedMsg)
}

// ParkedBATs reports how many owned BATs are currently parked by the
// LOI pacing (in the hot set but held out of circulation).
func (rt *Runtime) ParkedBATs() int {
	n := 0
	for _, o := range rt.s1 {
		if o.parked {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Storage ring management (§4.2.3, §4.4)
// ---------------------------------------------------------------------

// tryLoad admits an owned BAT into the storage ring if the local BAT
// queue has room, otherwise tags it pending for LoadAll.
func (rt *Runtime) tryLoad(o *ownedBAT) {
	if o.loaded {
		return
	}
	used, capacity := rt.queueLoad()
	if capacity > 0 && used+o.size+BATHeaderSize > capacity {
		if !o.pending {
			o.pending = true
			o.pendingSince = rt.env.Now()
			rt.pendingFIFO = append(rt.pendingFIFO, o.id)
			rt.stats.PendingPostponed++
		}
		rt.adaptLOIT()
		return
	}
	rt.load(o)
}

func (rt *Runtime) load(o *ownedBAT) {
	o.loaded = true
	rt.unpend(o.id)
	rt.admit(o)
	rt.adaptLOIT()
}

// admit puts o's BAT into circulation. It enters with Config.InitialLOI,
// but a promoted replica's first admission consumes the interest it
// accumulated before its owner died.
func (rt *Runtime) admit(o *ownedBAT) {
	loi := rt.cfg.InitialLOI
	if o.initLOI != 0 {
		loi, o.initLOI = o.initLOI, 0
	}
	rt.stats.BATsLoaded++
	rt.emit(Effect{Kind: Loaded, BAT: o.id, Size: o.size})
	rt.sendData(BATMsg{Owner: rt.id, BAT: o.id, Size: o.size, LOI: loi})
}

func (rt *Runtime) unpend(b BATID) {
	if o := rt.s1[b]; o != nil {
		o.pending = false
	}
	for i, id := range rt.pendingFIFO {
		if id == b {
			rt.pendingFIFO = append(rt.pendingFIFO[:i], rt.pendingFIFO[i+1:]...)
			return
		}
	}
}

// LoadAll executes postponed BAT loads, oldest first; a BAT that does
// not fit leaves room for trying the next one, optimizing queue
// utilization (§4.2.3).
func (rt *Runtime) LoadAll() {
	if len(rt.pendingFIFO) == 0 {
		return
	}
	used, capacity := rt.queueLoad()
	free := capacity - used
	if capacity == 0 {
		free = 1 << 62 // unbounded queue
	}
	remaining := rt.pendingFIFO[:0:0]
	for _, id := range rt.pendingFIFO {
		o := rt.s1[id]
		if o == nil || !o.pending {
			continue
		}
		need := o.size + BATHeaderSize
		if need <= free {
			free -= need
			o.pending = false
			o.loaded = true
			rt.admit(o)
		} else {
			remaining = append(remaining, id)
		}
	}
	rt.pendingFIFO = remaining
	rt.adaptLOIT()
}

// adaptLOIT applies the watermark rule of §5.2: queue load above the
// high watermark steps the threshold up one level, below the low
// watermark steps it down.
func (rt *Runtime) adaptLOIT() {
	if !rt.cfg.AdaptiveLOIT {
		return
	}
	used, capacity := rt.queueLoad()
	if capacity <= 0 {
		return
	}
	frac := float64(used) / float64(capacity)
	switch {
	case frac > rt.cfg.HighWater && rt.loitLevel < len(rt.cfg.LOITLevels)-1:
		rt.loitLevel++
		rt.stats.LOITSteps++
	case frac < rt.cfg.LowWater && rt.loitLevel > 0:
		rt.loitLevel--
		rt.stats.LOITSteps++
	}
}

// ---------------------------------------------------------------------
// request plumbing
// ---------------------------------------------------------------------

func (rt *Runtime) ensureRequestNew(b BATID) (*request, bool) {
	if rq := rt.s2[b]; rq != nil {
		return rq, false
	}
	rq := &request{
		bat:       b,
		queries:   make(map[QueryID]bool),
		delivered: make(map[QueryID]bool),
	}
	rt.s2[b] = rq
	return rq, true
}

func (rt *Runtime) sendRequest(rq *request) {
	rq.sent = true
	rt.stats.RequestsSent++
	rt.emit(Effect{Kind: SendRequest, Req: RequestMsg{Origin: rt.id, BAT: rq.bat}})
	rt.armResend(rq)
}

// armResend schedules the rotational-delay timeout that detects lost
// requests or BATs (§4.2.3).
func (rt *Runtime) armResend(rq *request) {
	if rt.cfg.ResendTimeout <= 0 {
		return
	}
	if rq.resend != nil {
		rq.resend.Cancel()
	}
	b := rq.bat
	rq.resend = rt.env.After(rt.cfg.ResendTimeout, func() {
		cur := rt.s2[b]
		if cur == nil || cur.allDelivered() {
			return
		}
		rt.stats.Resends++
		rt.stats.RequestsSent++
		rt.emit(Effect{Kind: SendRequest, Req: RequestMsg{Origin: rt.id, BAT: b}})
		rt.armResend(cur)
	})
}

func (rt *Runtime) dropRequest(rq *request) {
	if rq.resend != nil {
		rq.resend.Cancel()
	}
	delete(rt.s2, rq.bat)
}

// deliver hands b to query q and records it against the request.
func (rt *Runtime) deliver(b BATID, q QueryID) {
	if rq := rt.s2[b]; rq != nil {
		rq.delivered[q] = true
	}
	rt.stats.Deliveries++
	rt.emit(Effect{Kind: Deliver, BAT: b, Query: q})
}

// deliverPins hands b to every query blocked on it in S3, in ascending
// query id, and clears the entry.
func (rt *Runtime) deliverPins(b BATID) {
	var one [1]QueryID // a lone pin allocates nothing
	for _, q := range ascending(one[:0], rt.s3[b]) {
		rt.deliver(b, q)
	}
	delete(rt.s3, b)
}

// ascending appends m's keys to buf, sorted: no effect follows map order.
func ascending[K BATID | QueryID, V any](buf []K, m map[K]V) []K {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// finishRequestIfDone unregisters the request once every associated
// query has pinned the BAT (Fig. 4 lines 09-10).
func (rt *Runtime) finishRequestIfDone(b BATID) {
	rq := rt.s2[b]
	if rq == nil {
		return
	}
	if rq.allDelivered() && len(rt.s3[b]) == 0 {
		rt.dropRequest(rq)
	}
}

// String summarizes the node state for debugging.
func (rt *Runtime) String() string {
	used, capacity := rt.queueLoad()
	return fmt.Sprintf("node %d: owned=%d outstanding=%d pins=%d pending=%d loit=%.1f queue=%d/%d",
		rt.id, len(rt.s1), len(rt.s2), len(rt.s3), len(rt.pendingFIFO), rt.LOIT(), used, capacity)
}
