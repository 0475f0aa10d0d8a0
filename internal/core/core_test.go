package core

import (
	"reflect"
	"testing"
	"time"
)

// mockEnv is a scriptable Env whose runtime's effects it records: the
// outbox in order (effects), and per kind.
type mockEnv struct {
	now       time.Duration
	queueUsed int
	queueCap  int
	effects   []Effect
	sentData  []BATMsg
	sentReqs  []RequestMsg
	delivered []delivery
	errors    []delivery
	loads     []BATID
	unloads   []BATID
	timers    []*mockTimer
	drain     func() // applies the runtime's effects after a timer fires
}

type delivery struct {
	Q QueryID
	B BATID
}

type mockTimer struct {
	at        time.Duration
	fn        func()
	cancelled bool
}

func (t *mockTimer) Cancel() { t.cancelled = true }

func (e *mockEnv) Now() time.Duration    { return e.now }
func (e *mockEnv) QueueLoad() (int, int) { return e.queueUsed, e.queueCap }
func (e *mockEnv) After(d time.Duration, fn func()) TimerHandle {
	t := &mockTimer{at: e.now + d, fn: fn}
	e.timers = append(e.timers, t)
	return t
}

func (e *mockEnv) record(ef Effect) {
	e.effects = append(e.effects, ef)
	switch ef.Kind {
	case SendData:
		e.sentData = append(e.sentData, ef.Data)
	case SendRequest:
		e.sentReqs = append(e.sentReqs, ef.Req)
	case Deliver:
		e.delivered = append(e.delivered, delivery{ef.Query, ef.BAT})
	case QueryError:
		e.errors = append(e.errors, delivery{ef.Query, ef.BAT})
	case Loaded:
		e.loads = append(e.loads, ef.BAT)
	case Unloaded:
		e.unloads = append(e.unloads, ef.BAT)
	}
}

// runtime builds node id's runtime with its effects recorded in e.
func (e *mockEnv) runtime(id NodeID, cfg Config) *driven {
	d := &driven{Runtime: New(id, e, cfg), apply: e.record}
	e.drain = d.drain
	return d
}

// driven is a Runtime whose entry points apply their effects before
// they return, in emission order, as the cluster driver does.
type driven struct {
	*Runtime
	apply func(Effect)
}

func (d *driven) drain() {
	for _, e := range d.Effects(nil) {
		d.apply(e)
	}
}

func (d *driven) Request(q QueryID, b BATID) { d.Runtime.Request(q, b); d.drain() }
func (d *driven) Pin(q QueryID, b BATID)     { d.Runtime.Pin(q, b); d.drain() }
func (d *driven) Unpin(q QueryID, b BATID)   { d.Runtime.Unpin(q, b); d.drain() }
func (d *driven) OnRequest(m RequestMsg)     { d.Runtime.OnRequest(m); d.drain() }
func (d *driven) OnBAT(m BATMsg)             { d.Runtime.OnBAT(m); d.drain() }
func (d *driven) LoadAll()                   { d.Runtime.LoadAll(); d.drain() }
func (d *driven) CancelQuery(q QueryID, bats []BATID) {
	d.Runtime.CancelQuery(q, bats)
	d.drain()
}

// fire runs all due timers up to t.
func (e *mockEnv) fire(t time.Duration) {
	e.now = t
	for {
		fired := false
		for _, tm := range e.timers {
			if !tm.cancelled && tm.at <= t && tm.fn != nil {
				fn := tm.fn
				tm.fn = nil
				fn()
				e.drain()
				fired = true
			}
		}
		if !fired {
			return
		}
	}
}

func newTestRT(env *mockEnv, cfg Config) *driven {
	return env.runtime(3, cfg)
}

func staticCfg(loit float64) Config {
	cfg := DefaultConfig()
	cfg.LOITLevels = []float64{loit}
	cfg.AdaptiveLOIT = false
	cfg.ResendTimeout = 0
	cfg.LoadAllPeriod = 0
	return cfg
}

func TestRemoteRequestSendsMessage(t *testing.T) {
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.Request(1, 42)
	if len(env.sentReqs) != 1 {
		t.Fatalf("requests sent = %d, want 1", len(env.sentReqs))
	}
	m := env.sentReqs[0]
	if m.Origin != 3 || m.BAT != 42 {
		t.Fatalf("request = %+v", m)
	}
	// Second query for the same BAT piggybacks on the outstanding request.
	rt.Request(2, 42)
	if len(env.sentReqs) != 1 {
		t.Fatalf("requests sent = %d after dup, want 1", len(env.sentReqs))
	}
	if rt.OutstandingRequests() != 1 {
		t.Fatalf("S2 = %d, want 1", rt.OutstandingRequests())
	}
}

func TestOwnerRequestLoadsImmediately(t *testing.T) {
	env := &mockEnv{queueCap: 10000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.AddOwned(7, 500)
	rt.Request(1, 7)
	if len(env.sentData) != 1 {
		t.Fatalf("BATs sent = %d, want 1", len(env.sentData))
	}
	m := env.sentData[0]
	if m.Owner != 3 || m.BAT != 7 || m.Size != 500 || m.Cycles != 0 {
		t.Fatalf("BAT msg = %+v", m)
	}
	if !rt.Loaded(7) {
		t.Fatal("BAT not marked loaded")
	}
	if len(env.loads) != 1 || env.loads[0] != 7 {
		t.Fatalf("OnLoad calls = %v", env.loads)
	}
	// Owner pins are served from local storage immediately.
	rt.Pin(1, 7)
	if len(env.delivered) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(env.delivered))
	}
}

func TestOwnerLoadPostponedWhenRingFull(t *testing.T) {
	env := &mockEnv{queueUsed: 950, queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.AddOwned(7, 500)
	rt.Request(1, 7)
	if len(env.sentData) != 0 {
		t.Fatal("BAT loaded despite full ring")
	}
	if rt.PendingLoads() != 1 {
		t.Fatalf("pending = %d, want 1", rt.PendingLoads())
	}
	// Space frees up: LoadAll admits it.
	env.queueUsed = 0
	rt.LoadAll()
	if len(env.sentData) != 1 || rt.PendingLoads() != 0 {
		t.Fatalf("LoadAll did not admit: sent=%d pending=%d", len(env.sentData), rt.PendingLoads())
	}
}

func TestLoadAllSkipsTooBigTriesNext(t *testing.T) {
	env := &mockEnv{queueUsed: 0, queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.AddOwned(1, 2000) // will never fit while queue holds 0..1000
	rt.AddOwned(2, 300)
	env.queueUsed = 999 // force both to pend
	rt.Request(10, 1)
	rt.Request(11, 2)
	if rt.PendingLoads() != 2 {
		t.Fatalf("pending = %d, want 2", rt.PendingLoads())
	}
	env.queueUsed = 0
	rt.LoadAll()
	// BAT 1 (2000B) does not fit, BAT 2 (300B) does: queue-filling load.
	if len(env.sentData) != 1 || env.sentData[0].BAT != 2 {
		t.Fatalf("LoadAll sent %v, want just BAT 2", env.sentData)
	}
	if rt.PendingLoads() != 1 {
		t.Fatalf("pending = %d, want 1 (big BAT left over)", rt.PendingLoads())
	}
}

func TestRequestPropagationOutcomes(t *testing.T) {
	// Outcome 1: request returns to origin -> query exception.
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.Request(1, 42)
	rt.OnRequest(RequestMsg{Origin: 3, BAT: 42}) // rt.id == 3
	if len(env.errors) != 1 || env.errors[0].B != 42 {
		t.Fatalf("errors = %v, want BAT-does-not-exist for query 1", env.errors)
	}
	if rt.OutstandingRequests() != 0 {
		t.Fatal("returned request not unregistered")
	}

	// Outcome 2: owner with BAT already loaded ignores.
	env2 := &mockEnv{queueCap: 10000}
	rt2 := newTestRT(env2, staticCfg(0.5))
	rt2.AddOwned(7, 100)
	rt2.OnRequest(RequestMsg{Origin: 9, BAT: 7}) // loads it
	if len(env2.sentData) != 1 {
		t.Fatalf("owner did not load on request")
	}
	rt2.OnRequest(RequestMsg{Origin: 8, BAT: 7}) // already loaded: ignore
	if len(env2.sentData) != 1 || len(env2.sentReqs) != 0 {
		t.Fatal("owner should ignore request for loaded BAT")
	}

	// Outcome 5: absorb when the same request is outstanding and sent.
	env3 := &mockEnv{queueCap: 1000}
	rt3 := newTestRT(env3, staticCfg(0.5))
	rt3.Request(1, 42)
	before := len(env3.sentReqs)
	rt3.OnRequest(RequestMsg{Origin: 9, BAT: 42})
	if len(env3.sentReqs) != before {
		t.Fatal("absorbed request was forwarded")
	}
	if rt3.Stats().RequestsAbsorbed != 1 {
		t.Fatalf("absorbed = %d, want 1", rt3.Stats().RequestsAbsorbed)
	}

	// Outcome 6: plain forward.
	env4 := &mockEnv{queueCap: 1000}
	rt4 := newTestRT(env4, staticCfg(0.5))
	rt4.OnRequest(RequestMsg{Origin: 9, BAT: 99})
	if len(env4.sentReqs) != 1 || env4.sentReqs[0].Origin != 9 {
		t.Fatalf("forwarded = %v", env4.sentReqs)
	}
}

func TestBATPropagationDeliversAndCounts(t *testing.T) {
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.Request(1, 42)
	rt.Request(2, 42)
	rt.Pin(1, 42) // blocks: registered in S3
	rt.Pin(2, 42)

	msg := BATMsg{Owner: 0, BAT: 42, Size: 100, LOI: 0.3, Copies: 2, Hops: 4}
	rt.OnBAT(msg)

	if len(env.delivered) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(env.delivered))
	}
	if len(env.sentData) != 1 {
		t.Fatalf("forwarded = %d, want 1", len(env.sentData))
	}
	fwd := env.sentData[0]
	if fwd.Hops != 5 {
		t.Fatalf("hops = %d, want 5", fwd.Hops)
	}
	// copies++ once per node regardless of the number of local queries.
	if fwd.Copies != 3 {
		t.Fatalf("copies = %d, want 3", fwd.Copies)
	}
	// All queries pinned: request unregistered.
	if rt.OutstandingRequests() != 0 {
		t.Fatal("request should be unregistered after all pins")
	}
}

func TestBATPropagationNoPinsNoCopy(t *testing.T) {
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.Request(1, 42) // requested but pin not yet reached
	rt.OnBAT(BATMsg{Owner: 0, BAT: 42, Size: 100, Copies: 0, Hops: 1})
	if len(env.delivered) != 0 {
		t.Fatal("should not deliver without a blocked pin")
	}
	fwd := env.sentData[0]
	if fwd.Copies != 0 || fwd.Hops != 2 {
		t.Fatalf("fwd = %+v", fwd)
	}
	// Request stays outstanding (the in-vogue effect of §5.3).
	if rt.OutstandingRequests() != 1 {
		t.Fatal("request dropped prematurely")
	}
	// Later pin: BAT not cached (no local use), so it blocks again and
	// is served on the next pass.
	rt.Pin(1, 42)
	if len(env.delivered) != 0 {
		t.Fatal("pin should block until next pass")
	}
	rt.OnBAT(BATMsg{Owner: 0, BAT: 42, Size: 100, Copies: 0, Hops: 7})
	if len(env.delivered) != 1 {
		t.Fatal("second pass should deliver")
	}
	if rt.OutstandingRequests() != 0 {
		t.Fatal("request should now be done")
	}
}

func TestHotSetManagementLOIFormula(t *testing.T) {
	env := &mockEnv{queueCap: 100000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.AddOwned(7, 100)
	rt.Request(1, 7) // loads, sends cycle 0 message
	env.sentData = nil

	// Cycle completes: copies=8, hops=10 -> cavg=0.8, cycles=1
	// newLOI = (0 + 0.8*1)/1 = 0.8 >= 0.5 -> forwarded with LOI 0.8.
	rt.OnBAT(BATMsg{Owner: 3, BAT: 7, Size: 100, LOI: 0, Copies: 8, Hops: 10, Cycles: 0})
	if len(env.sentData) != 1 {
		t.Fatal("BAT should stay in hot set")
	}
	fwd := env.sentData[0]
	if fwd.Cycles != 1 || fwd.Copies != 0 || fwd.Hops != 0 {
		t.Fatalf("cycle reset wrong: %+v", fwd)
	}
	if fwd.LOI < 0.79 || fwd.LOI > 0.81 {
		t.Fatalf("LOI = %v, want 0.8", fwd.LOI)
	}

	// Second cycle with no interest: newLOI = (0.8 + 0)/2 = 0.4 < 0.5
	// -> unloaded (age decay of equation 1).
	env.sentData = nil
	rt.OnBAT(BATMsg{Owner: 3, BAT: 7, Size: 100, LOI: 0.8, Copies: 0, Hops: 10, Cycles: 1})
	if len(env.sentData) != 0 {
		t.Fatal("BAT should be unloaded")
	}
	if len(env.unloads) != 1 || env.unloads[0] != 7 {
		t.Fatalf("unloads = %v", env.unloads)
	}
	if rt.Loaded(7) {
		t.Fatal("owner still marks BAT loaded")
	}
}

func TestHotSetUnloadedBATDropped(t *testing.T) {
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.AddOwned(7, 100)
	// BAT arrives for an owner entry that is not loaded (e.g. handover
	// race): dropped silently.
	rt.OnBAT(BATMsg{Owner: 3, BAT: 7, Size: 100})
	if len(env.sentData) != 0 {
		t.Fatal("stale BAT should be dropped")
	}
}

func TestLOITAdaptationWatermarks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResendTimeout = 0
	cfg.LoadAllPeriod = 0
	env := &mockEnv{queueUsed: 0, queueCap: 1000}
	rt := newTestRT(env, cfg)
	if rt.LOIT() != 0.1 {
		t.Fatalf("start LOIT = %v", rt.LOIT())
	}
	// Above high watermark: step up.
	env.queueUsed = 900
	rt.OnBAT(BATMsg{Owner: 0, BAT: 1, Size: 10, Hops: 1})
	if rt.LOIT() != 0.6 {
		t.Fatalf("LOIT = %v after high load, want 0.6", rt.LOIT())
	}
	rt.OnBAT(BATMsg{Owner: 0, BAT: 2, Size: 10, Hops: 1})
	if rt.LOIT() != 1.1 {
		t.Fatalf("LOIT = %v, want 1.1 (max)", rt.LOIT())
	}
	rt.OnBAT(BATMsg{Owner: 0, BAT: 3, Size: 10, Hops: 1})
	if rt.LOIT() != 1.1 {
		t.Fatal("LOIT should clamp at max level")
	}
	// Below low watermark: step down.
	env.queueUsed = 100
	rt.OnBAT(BATMsg{Owner: 0, BAT: 4, Size: 10, Hops: 1})
	if rt.LOIT() != 0.6 {
		t.Fatalf("LOIT = %v after low load, want 0.6", rt.LOIT())
	}
}

func TestResendOnTimeout(t *testing.T) {
	cfg := staticCfg(0.5)
	cfg.ResendTimeout = time.Second
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, cfg)
	rt.Request(1, 42)
	if len(env.sentReqs) != 1 {
		t.Fatal("initial request not sent")
	}
	env.fire(1100 * time.Millisecond)
	if len(env.sentReqs) != 2 {
		t.Fatalf("requests = %d after timeout, want 2 (resend)", len(env.sentReqs))
	}
	if rt.Stats().Resends != 1 {
		t.Fatalf("resends = %d", rt.Stats().Resends)
	}
	// Delivery cancels further resends.
	rt.Pin(1, 42)
	rt.OnBAT(BATMsg{Owner: 0, BAT: 42, Size: 10, Hops: 1})
	env.fire(10 * time.Second)
	if len(env.sentReqs) != 2 {
		t.Fatalf("requests = %d after delivery, want 2", len(env.sentReqs))
	}
}

func TestLocalCachePinUnpin(t *testing.T) {
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.Request(1, 42)
	rt.Request(2, 42)
	rt.Pin(1, 42)
	rt.OnBAT(BATMsg{Owner: 0, BAT: 42, Size: 10, Hops: 1}) // delivers to q1, caches
	if len(env.delivered) != 1 {
		t.Fatal("first delivery missing")
	}
	// q2 pins while q1 still holds the BAT: local cache hit (§4.2.1
	// "the pin() request checks the local cache for availability").
	rt.Pin(2, 42)
	if len(env.delivered) != 2 {
		t.Fatal("cache hit should deliver immediately")
	}
	rt.Unpin(1, 42)
	rt.Unpin(2, 42)
	// Cache dropped: a third query pin would block again.
	rt.Request(5, 42)
	rt.Pin(5, 42)
	if len(env.delivered) != 2 {
		t.Fatal("pin after cache release should block")
	}
}

func TestCancelQuery(t *testing.T) {
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.Request(1, 42)
	rt.Pin(1, 42)
	rt.CancelQuery(1, []BATID{42})
	if rt.OutstandingRequests() != 0 {
		t.Fatal("cancel should drop sole request")
	}
	rt.OnBAT(BATMsg{Owner: 0, BAT: 42, Size: 10, Hops: 1})
	if len(env.delivered) != 0 {
		t.Fatal("cancelled query must not receive deliveries")
	}
}

func TestRemoveOwnedHandover(t *testing.T) {
	env := &mockEnv{queueCap: 10000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.AddOwned(7, 100)
	rt.Request(1, 7)
	size, loaded, ok := rt.RemoveOwned(7)
	if !ok || size != 100 || !loaded {
		t.Fatalf("RemoveOwned = %d %v %v", size, loaded, ok)
	}
	if rt.Owns(7) {
		t.Fatal("still owns after removal")
	}
	if _, _, ok := rt.RemoveOwned(7); ok {
		t.Fatal("double removal should report !ok")
	}
}

func TestLoadAllTicker(t *testing.T) {
	cfg := staticCfg(0.5)
	cfg.LoadAllPeriod = 100 * time.Millisecond
	env := &mockEnv{queueUsed: 999, queueCap: 1000}
	rt := newTestRT(env, cfg)
	rt.Start()
	rt.AddOwned(7, 100)
	rt.Request(1, 7) // pends
	if rt.PendingLoads() != 1 {
		t.Fatal("not pending")
	}
	env.queueUsed = 0
	env.fire(150 * time.Millisecond)
	if rt.PendingLoads() != 0 || len(env.sentData) != 1 {
		t.Fatalf("ticker LoadAll failed: pending=%d sent=%d", rt.PendingLoads(), len(env.sentData))
	}
	rt.Stop()
	countBefore := len(env.timers)
	env.fire(time.Hour)
	_ = countBefore // ticker stops rescheduling; fire drains silently
}

// TestQuietNodeStepsLOITDown is the regression test for the idle-node
// adaptation gap: adaptLOIT used to be evaluated only from load and
// arrival events, so a node whose queue load fell below LowWater while
// it had nothing pending never stepped its threshold back down until
// the next load arrived. The periodic tick must evaluate the watermark
// rule too.
func TestQuietNodeStepsLOITDown(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LOITLevels = []float64{0.1, 0.6, 1.1}
	cfg.StartLevel = 2
	cfg.AdaptiveLOIT = true
	cfg.LoadAllPeriod = 100 * time.Millisecond
	cfg.ResendTimeout = 0
	// Quiet node: queue load well below the low watermark, nothing
	// pending, no queries arriving.
	env := &mockEnv{queueUsed: 10, queueCap: 1000}
	rt := newTestRT(env, cfg)
	rt.Start()
	defer rt.Stop()
	if rt.LOITLevel() != 2 {
		t.Fatalf("start level = %d", rt.LOITLevel())
	}
	env.fire(150 * time.Millisecond)
	if rt.LOITLevel() != 1 {
		t.Fatalf("after one tick: level = %d, want 1 (stepped down)", rt.LOITLevel())
	}
	env.fire(300 * time.Millisecond)
	if rt.LOITLevel() != 0 {
		t.Fatalf("after two ticks: level = %d, want 0", rt.LOITLevel())
	}
	// Ticks keep firing at the floor without underflow.
	env.fire(500 * time.Millisecond)
	if rt.LOITLevel() != 0 {
		t.Fatalf("level underflowed: %d", rt.LOITLevel())
	}
}

func TestRePinDelivered(t *testing.T) {
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.Request(1, 42)
	rt.Pin(1, 42)
	rt.OnBAT(BATMsg{Owner: 0, BAT: 42, Size: 10, Hops: 1})
	n := len(env.delivered)
	rt.Pin(1, 42) // re-pin by the same query: immediate
	if len(env.delivered) != n+1 {
		t.Fatal("re-pin should deliver immediately")
	}
}

func TestStatsAndString(t *testing.T) {
	env := &mockEnv{queueCap: 1000}
	rt := newTestRT(env, staticCfg(0.5))
	rt.Request(1, 42)
	rt.OnRequest(RequestMsg{Origin: 9, BAT: 77})
	st := rt.Stats()
	if st.RequestsSent != 1 || st.RequestsForwarded != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if rt.String() == "" {
		t.Fatal("String empty")
	}
	if rt.ID() != 3 {
		t.Fatalf("ID = %d", rt.ID())
	}
}

func TestHasRequestAndParked(t *testing.T) {
	env := &mockEnv{queueCap: 1000}
	rt := env.runtime(0, DefaultConfig())
	rt.AddOwned(1, 100)
	if rt.HasRequest(2) {
		t.Fatal("no request registered yet")
	}
	rt.Request(7, 2)
	if !rt.HasRequest(2) {
		t.Fatal("Request must create an S2 entry")
	}
	rt.CancelQuery(7, []BATID{2})
	if rt.HasRequest(2) {
		t.Fatal("CancelQuery must drop the S2 entry")
	}
	if rt.Parked(1) {
		t.Fatal("freshly owned BAT is not parked")
	}
	if rt.Parked(99) {
		t.Fatal("unowned BAT is not parked")
	}
}

// TestEffectSequences holds each path of Request Propagation (Fig. 3),
// BAT Propagation (Fig. 4) and Hot Data Set Management (Fig. 5) to the
// exact, ordered effects it emits.
func TestEffectSequences(t *testing.T) {
	data := func(m BATMsg) Effect { return Effect{Kind: SendData, Data: m} }
	req := func(origin NodeID, b BATID) Effect {
		return Effect{Kind: SendRequest, Req: RequestMsg{Origin: origin, BAT: b}}
	}
	load := Effect{Kind: Loaded, BAT: 7, Size: 100}
	admitted := data(BATMsg{Owner: 3, BAT: 7, Size: 100})
	for _, tc := range []struct {
		name  string
		park  int
		queue int // bytes already queued, of 1000
		setup func(rt *driven)
		call  func(rt *driven)
		want  []Effect
	}{
		{
			name:  "fig3 returned to origin",
			setup: func(rt *driven) { rt.Request(1, 42); rt.Pin(1, 42) },
			call:  func(rt *driven) { rt.OnRequest(RequestMsg{Origin: 3, BAT: 42}) },
			want:  []Effect{{Kind: QueryError, BAT: 42, Query: 1}},
		},
		{
			name:  "fig3 owner, already loaded",
			setup: func(rt *driven) { rt.AddOwned(7, 100); rt.OnRequest(RequestMsg{Origin: 9, BAT: 7}) },
			call:  func(rt *driven) { rt.OnRequest(RequestMsg{Origin: 8, BAT: 7}) },
			want:  nil,
		},
		{
			name:  "fig3 owner loads",
			setup: func(rt *driven) { rt.AddOwned(7, 100) },
			call:  func(rt *driven) { rt.OnRequest(RequestMsg{Origin: 9, BAT: 7}) },
			want:  []Effect{load, admitted},
		},
		{
			name:  "fig3 owner postpones on a full queue",
			queue: 900,
			setup: func(rt *driven) { rt.AddOwned(7, 100) },
			call:  func(rt *driven) { rt.OnRequest(RequestMsg{Origin: 9, BAT: 7}) },
			want:  nil,
		},
		{
			name:  "fig3 absorbed",
			setup: func(rt *driven) { rt.Request(1, 42) },
			call:  func(rt *driven) { rt.OnRequest(RequestMsg{Origin: 9, BAT: 42}) },
			want:  nil,
		},
		{
			name: "fig3 forwarded",
			call: func(rt *driven) { rt.OnRequest(RequestMsg{Origin: 9, BAT: 42}) },
			want: []Effect{req(9, 42)},
		},
		{
			name:  "fig4 delivers then forwards",
			setup: func(rt *driven) { rt.Request(1, 42); rt.Pin(1, 42) },
			call:  func(rt *driven) { rt.OnBAT(BATMsg{Owner: 0, BAT: 42, Size: 10, Hops: 1}) },
			want: []Effect{
				{Kind: Deliver, BAT: 42, Query: 1},
				data(BATMsg{Owner: 0, BAT: 42, Size: 10, Copies: 1, Hops: 2}),
			},
		},
		{
			name:  "fig5 forwards a used BAT",
			setup: func(rt *driven) { rt.AddOwned(7, 100); rt.Request(1, 7) },
			call:  func(rt *driven) { rt.OnBAT(BATMsg{Owner: 3, BAT: 7, Size: 100, Copies: 1, Hops: 2}) },
			want:  []Effect{data(BATMsg{Owner: 3, BAT: 7, Size: 100, LOI: 0.5, Cycles: 1})},
		},
		{
			name:  "fig5 parks an idle BAT",
			park:  1,
			setup: func(rt *driven) { rt.AddOwned(7, 100); rt.Request(1, 7) },
			call:  func(rt *driven) { rt.OnBAT(BATMsg{Owner: 3, BAT: 7, Size: 100, Hops: 2}) },
			want:  nil,
		},
		{
			name:  "fig5 unloads below the threshold",
			setup: func(rt *driven) { rt.AddOwned(7, 100); rt.Request(1, 7) },
			call:  func(rt *driven) { rt.OnBAT(BATMsg{Owner: 3, BAT: 7, Size: 100, Hops: 2}) },
			want:  []Effect{{Kind: Unloaded, BAT: 7, Size: 100}},
		},
		{
			name: "fig5 unparks on interest",
			park: 1,
			setup: func(rt *driven) {
				rt.AddOwned(7, 100)
				rt.Request(1, 7)
				rt.OnBAT(BATMsg{Owner: 3, BAT: 7, Size: 100, Hops: 2})
			},
			call: func(rt *driven) { rt.OnRequest(RequestMsg{Origin: 9, BAT: 7}) },
			want: []Effect{data(BATMsg{Owner: 3, BAT: 7, Size: 100, Cycles: 1})},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := staticCfg(0.25)
			cfg.ParkIdleCycles = tc.park
			env := &mockEnv{queueUsed: tc.queue, queueCap: 1000}
			rt := newTestRT(env, cfg)
			if tc.setup != nil {
				tc.setup(rt)
			}
			env.effects = nil
			tc.call(rt)
			if !reflect.DeepEqual(env.effects, tc.want) {
				t.Fatalf("effects:\n got %+v\nwant %+v", env.effects, tc.want)
			}
		})
	}
}

// TestEffectOrderFollowsInputs: where the runtime emits one effect per
// entry of a set it keeps in a map, the effects go out in id order, so
// two runtimes fed the same calls emit the same sequence. SuspectOrbit
// unloads ten circulating BATs in ascending BAT id; a request that
// returns to its origin fails its ten waiting queries in ascending
// query id (a delivered one is not failed); ten queries blocked on one
// BAT are delivered in ascending query id, by a passing BAT (OnBAT)
// and by a promotion (PromoteOwned). One blocked pin is delivered
// without an allocation.
func TestEffectOrderFollowsInputs(t *testing.T) {
	ids := []int{17, 3, 42, 8, 25, 11, 30, 1, 64, 5}
	for trial := 0; trial < 20; trial++ {
		env := &mockEnv{queueCap: 1 << 20}
		rt := newTestRT(env, staticCfg(0.25))
		for _, id := range ids {
			rt.AddOwned(BATID(id), 10)
			rt.OnRequest(RequestMsg{Origin: 9, BAT: BATID(id)})
		}
		env.effects = nil
		rt.SuspectOrbit()
		rt.drain()
		var got []BATID
		for _, e := range env.effects {
			if e.Kind != Unloaded {
				t.Fatalf("SuspectOrbit emitted %+v", e)
			}
			got = append(got, e.BAT)
		}
		want := []BATID{1, 3, 5, 8, 11, 17, 25, 30, 42, 64}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SuspectOrbit unloads %v, want %v", trial, got, want)
		}

		env = &mockEnv{queueCap: 1 << 20}
		rt = newTestRT(env, staticCfg(0.25))
		for _, id := range ids {
			rt.Request(QueryID(id), 42)
		}
		rt.Pin(8, 42)
		rt.OnBAT(BATMsg{Owner: 0, BAT: 42, Size: 10, Hops: 1}) // delivers to query 8
		env.effects, env.errors = nil, nil
		rt.OnRequest(RequestMsg{Origin: 3, BAT: 42})
		var failed []QueryID
		for _, d := range env.errors {
			failed = append(failed, d.Q)
		}
		if want := []QueryID{1, 3, 5, 11, 17, 25, 30, 42, 64}; !reflect.DeepEqual(failed, want) {
			t.Fatalf("trial %d: the returned request fails queries %v, want %v", trial, failed, want)
		}

		for _, deliverer := range []struct {
			name string
			call func(rt *driven)
		}{
			{"OnBAT", func(rt *driven) { rt.OnBAT(BATMsg{Owner: 0, BAT: 42, Size: 10, Hops: 1}) }},
			{"PromoteOwned", func(rt *driven) { rt.Runtime.PromoteOwned(42, 10, 0); rt.drain() }},
		} {
			env = &mockEnv{queueCap: 1 << 20}
			rt = newTestRT(env, staticCfg(0.25))
			for _, id := range ids {
				rt.Pin(QueryID(id), 42)
			}
			env.delivered = nil
			deliverer.call(rt)
			var got []QueryID
			for _, d := range env.delivered {
				got = append(got, d.Q)
			}
			if want := []QueryID{1, 3, 5, 8, 11, 17, 25, 30, 42, 64}; !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: %s delivers to queries %v, want %v", trial, deliverer.name, got, want)
			}
		}
	}

	rt := New(3, &mockEnv{queueCap: 1 << 20}, staticCfg(0.25))
	one := map[QueryID]bool{7: true}
	if allocs := testing.AllocsPerRun(100, func() {
		rt.s3[42] = one
		rt.deliverPins(42)
		rt.out = rt.out[:0]
	}); allocs != 0 {
		t.Fatalf("delivering one blocked pin allocates %.0f times, want 0", allocs)
	}
}

// TestUndrainedSendsCountAsQueued: the runtime reads the driver's queue
// before the driver has applied the sends of the call in progress, so
// it counts them itself. An owner with 700 of 1000 bytes queued that
// admits a 200-byte BAT has 964 queued once that send is applied, past
// the 0.8 high watermark: its LOIT steps up in that same call, exactly
// as under a driver that queued each send the moment it was made.
func TestUndrainedSendsCountAsQueued(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResendTimeout, cfg.LoadAllPeriod = 0, 0
	env := &mockEnv{queueUsed: 700, queueCap: 1000}
	rt := newTestRT(env, cfg)
	rt.AddOwned(7, 200)
	rt.Runtime.Request(1, 7)
	if rt.LOITLevel() != 1 {
		t.Fatalf("LOIT level = %d after admitting at the high watermark, want 1", rt.LOITLevel())
	}
	if effs := rt.Effects(nil); len(effs) != 2 || effs[1].Kind != SendData {
		t.Fatalf("effects = %+v, want Loaded then SendData", effs)
	}
	// Taken, the send is the driver's to count.
	if used, _ := rt.queueLoad(); used != 700 {
		t.Fatalf("queue load after Effects = %d, want the driver's 700", used)
	}
}
