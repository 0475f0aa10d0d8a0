package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// miniRing wires N runtimes directly together with a synchronous FIFO
// message pump — no network model, no cluster driver. It validates the
// protocol state machines in isolation.
type miniRing struct {
	t     *testing.T
	nodes []*driven
	envs  []*miniEnv
	queue []func() // pending message handoffs, FIFO
}

type miniEnv struct {
	ring      *miniRing
	idx       int
	now       time.Duration
	delivered map[QueryID][]BATID
	errors    int
	queueCap  int
	queueUsed int
}

func (e *miniEnv) Now() time.Duration    { return e.now }
func (e *miniEnv) QueueLoad() (int, int) { return e.queueUsed, e.queueCap }

type noTimer struct{}

func (noTimer) Cancel() {}

func (e *miniEnv) After(d time.Duration, fn func()) TimerHandle { return noTimer{} }

// apply queues a send as the neighbour's handoff and records the rest.
func (e *miniEnv) apply(ef Effect) {
	r := e.ring
	switch ef.Kind {
	case SendData:
		next := r.nodes[(e.idx+1)%len(r.nodes)]
		r.queue = append(r.queue, func() { next.OnBAT(ef.Data) })
	case SendRequest:
		prev := r.nodes[(e.idx-1+len(r.nodes))%len(r.nodes)]
		r.queue = append(r.queue, func() { prev.OnRequest(ef.Req) })
	case Deliver:
		e.delivered[ef.Query] = append(e.delivered[ef.Query], ef.BAT)
	case QueryError:
		e.errors++
	}
}

func newMiniRing(t *testing.T, n int, cfg Config) *miniRing {
	r := &miniRing{t: t}
	for i := 0; i < n; i++ {
		env := &miniEnv{ring: r, idx: i, delivered: map[QueryID][]BATID{}, queueCap: 1 << 30}
		r.envs = append(r.envs, env)
		r.nodes = append(r.nodes, &driven{Runtime: New(NodeID(i), env, cfg), apply: env.apply})
	}
	return r
}

// pump drains the message queue, with a safety bound.
func (r *miniRing) pump(maxSteps int) int {
	steps := 0
	for len(r.queue) > 0 {
		if steps >= maxSteps {
			r.t.Fatalf("message pump did not quiesce within %d steps", maxSteps)
		}
		fn := r.queue[0]
		r.queue = r.queue[1:]
		fn()
		steps++
	}
	return steps
}

func TestMiniRingEndToEnd(t *testing.T) {
	cfg := staticCfg(0) // never evict: messages quiesce when all served
	r := newMiniRing(t, 5, cfg)
	r.nodes[3].AddOwned(42, 1000)

	// Node 0's query wants BAT 42 (owned by node 3, two hops upstream).
	r.nodes[0].Request(1, 42)
	r.nodes[0].Pin(1, 42)
	// Pump: request travels 0 -> 4 -> 3 (owner); BAT circulates.
	// With LOIT 0 the BAT never unloads, so we bound the pump and then
	// check delivery happened.
	for i := 0; i < 100 && len(r.envs[0].delivered[1]) == 0; i++ {
		if len(r.queue) == 0 {
			break
		}
		fn := r.queue[0]
		r.queue = r.queue[1:]
		fn()
	}
	if got := r.envs[0].delivered[1]; len(got) != 1 || got[0] != 42 {
		t.Fatalf("delivered = %v, want [42]", got)
	}
}

func TestMiniRingRequestReturnsToOrigin(t *testing.T) {
	cfg := staticCfg(0.5)
	r := newMiniRing(t, 4, cfg)
	// Nobody owns BAT 7: the request circles back to its origin and the
	// query gets "BAT does not exist".
	r.nodes[2].Request(9, 7)
	r.nodes[2].Pin(9, 7)
	r.pump(100)
	if r.envs[2].errors != 1 {
		t.Fatalf("errors = %d, want 1", r.envs[2].errors)
	}
	if r.nodes[2].OutstandingRequests() != 0 {
		t.Fatal("request not unregistered after returning")
	}
}

func TestMiniRingRequestAbsorption(t *testing.T) {
	cfg := staticCfg(0)
	r := newMiniRing(t, 6, cfg)
	r.nodes[0].AddOwned(5, 100)
	// Nodes 2, 3, 4 all want BAT 5 owned by node 0. Requests travel
	// anti-clockwise: node 4's passes 3 and 2 (which have the same
	// request outstanding) — absorption should kick in for the laggards.
	r.nodes[2].Request(1, 5)
	r.nodes[3].Request(2, 5)
	r.nodes[4].Request(3, 5)
	r.nodes[2].Pin(1, 5)
	r.nodes[3].Pin(2, 5)
	r.nodes[4].Pin(3, 5)
	for i := 0; i < 200 && len(r.queue) > 0; i++ {
		fn := r.queue[0]
		r.queue = r.queue[1:]
		fn()
	}
	absorbed := uint64(0)
	for _, n := range r.nodes {
		absorbed += n.Stats().RequestsAbsorbed
	}
	if absorbed == 0 {
		t.Fatal("no requests absorbed despite overlapping interest")
	}
	for i, q := range map[int]QueryID{2: 1, 3: 2, 4: 3} {
		if len(r.envs[i].delivered[q]) != 1 {
			t.Fatalf("node %d query %d not served", i, q)
		}
	}
}

func TestMiniRingCopiesCountNodesNotQueries(t *testing.T) {
	cfg := staticCfg(0)
	r := newMiniRing(t, 4, cfg)
	r.nodes[0].AddOwned(5, 100)
	// Two queries on node 2, one on node 3: copies per cycle must be 2
	// (two nodes used it), not 3.
	r.nodes[2].Request(1, 5)
	r.nodes[2].Request(2, 5)
	r.nodes[3].Request(3, 5)
	r.nodes[2].Pin(1, 5)
	r.nodes[2].Pin(2, 5)
	r.nodes[3].Pin(3, 5)
	r.nodes[0].Request(0, 5) // trigger the load via owner interest

	var lastAtOwner BATMsg
	seen := false
	// Intercept: walk messages until the BAT returns to node 0.
	for i := 0; i < 100 && !seen; i++ {
		if len(r.queue) == 0 {
			break
		}
		fn := r.queue[0]
		r.queue = r.queue[1:]
		fn()
		// After each step check whether owner observed a full cycle.
		if r.nodes[0].Stats().BATsForwarded > 1 {
			seen = true
		}
	}
	_ = lastAtOwner
	// Verify the deliveries: 3 queries all served in one cycle.
	total := len(r.envs[2].delivered[1]) + len(r.envs[2].delivered[2]) + len(r.envs[3].delivered[3])
	if total != 3 {
		t.Fatalf("deliveries = %d, want 3", total)
	}
}

// Property: with zero interest, a BAT entering with LOI L under
// threshold T>0 decays per the paper's literal recurrence (equation 1
// with CAVG=0): LOI_k = LOI_{k-1}/k — super-exponential aging — and is
// evicted at exactly the first cycle where the recurrence drops below
// T. "Old BATs carry a low level of interest, unless re-newed in each
// pass through the ring."
func TestPropertyLOIAgeDecay(t *testing.T) {
	f := func(rawL, rawT uint8) bool {
		L := float64(rawL%50) / 10.0 // 0..4.9
		T := 0.1 + float64(rawT%20)/10.0
		env := &mockEnv{queueCap: 1 << 30}
		rt := env.runtime(1, staticCfg(T))
		rt.AddOwned(7, 100)
		rt.Request(99, 7) // load it
		if len(env.sentData) != 1 {
			return false
		}
		msg := env.sentData[0]
		msg.LOI = L // pretend it entered with LOI L
		cycles := 0
		for cycles < 1000 {
			env.sentData = nil
			msg.Hops = 10 // a full pass, no copies
			msg.Copies = 0
			rt.OnBAT(msg)
			cycles++
			if len(env.sentData) == 0 {
				break // evicted
			}
			msg = env.sentData[0]
		}
		// Reference model of equation 1 with zero interest.
		want, ref := 0, L
		for k := 1; k <= 1000; k++ {
			ref = ref / float64(k)
			want = k
			if ref < T {
				break
			}
		}
		return cycles == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: requests never loop forever — any request injected at a
// random node either reaches an owner or returns to its origin within
// one full circle of hops.
func TestPropertyRequestTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		cfg := staticCfg(0)
		r := newMiniRing(t, n, cfg)
		batID := BATID(rng.Intn(5))
		hasOwner := rng.Intn(2) == 0
		owner := rng.Intn(n)
		if hasOwner {
			r.nodes[owner].AddOwned(batID, 100)
		}
		origin := rng.Intn(n)
		r.nodes[origin].Request(1, batID)
		r.nodes[origin].Pin(1, batID)
		// A request crosses at most n request-links; BAT circulation
		// with LOIT 0 is infinite, so bound the pump: count only
		// request messages by checking forwarded stats afterwards.
		for i := 0; i < 20*n && len(r.queue) > 0; i++ {
			fn := r.queue[0]
			r.queue = r.queue[1:]
			fn()
		}
		forwarded := uint64(0)
		for _, node := range r.nodes {
			forwarded += node.Stats().RequestsForwarded
		}
		if forwarded > uint64(n) {
			t.Fatalf("request forwarded %d times on a %d-ring", forwarded, n)
		}
		if hasOwner {
			if owner != origin && len(r.envs[origin].delivered[1]) != 1 {
				t.Fatalf("query not served (owner=%d origin=%d n=%d)", owner, origin, n)
			}
		} else if r.envs[origin].errors != 1 {
			t.Fatalf("missing BAT-does-not-exist (origin=%d n=%d)", origin, n)
		}
	}
}

// Property: conservation — loads minus unloads equals the number of
// currently loaded owned BATs, under arbitrary request/eviction
// interleavings.
func TestPropertyLoadUnloadConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		env := &mockEnv{queueCap: 1 << 20}
		rt := env.runtime(1, staticCfg(0.5))
		const nBats = 10
		for b := 0; b < nBats; b++ {
			rt.AddOwned(BATID(b), 1000+rng.Intn(5000))
		}
		for op := 0; op < 200; op++ {
			b := BATID(rng.Intn(nBats))
			switch rng.Intn(3) {
			case 0:
				rt.OnRequest(RequestMsg{Origin: 3, BAT: b})
			case 1:
				// Simulate a returning cycle with random interest.
				if rt.Loaded(b) {
					rt.OnBAT(BATMsg{Owner: 1, BAT: b, Size: 1000,
						Copies: rng.Intn(5), Hops: 10, Cycles: rng.Intn(3)})
				}
			case 2:
				rt.LoadAll()
			}
		}
		loaded := 0
		for b := 0; b < nBats; b++ {
			if rt.Loaded(BATID(b)) {
				loaded++
			}
		}
		st := rt.Stats()
		if int(st.BATsLoaded-st.BATsUnloaded) != loaded {
			t.Fatalf("conservation violated: loads=%d unloads=%d loaded=%d",
				st.BATsLoaded, st.BATsUnloaded, loaded)
		}
	}
}

// TestParkingIdleBAT: with ParkIdleCycles set, a circulating BAT that
// serves nobody for that many consecutive revolutions parks at its
// owner instead of continuing to burn hops — and the message pump
// quiesces, which is the whole point.
func TestParkingIdleBAT(t *testing.T) {
	cfg := staticCfg(0) // LOIT 0: the BAT never unloads, only parking stops it
	cfg.ParkIdleCycles = 2
	r := newMiniRing(t, 3, cfg)
	owner := r.nodes[1]
	owner.AddOwned(7, 100)

	// One served revolution starts circulation.
	r.nodes[0].Request(1, 7)
	r.nodes[0].Pin(1, 7)
	steps := r.pump(500)
	if steps == 0 {
		t.Fatal("nothing circulated")
	}
	if got := r.envs[0].delivered[1]; len(got) != 1 || got[0] != 7 {
		t.Fatalf("delivered = %v, want [7]", got)
	}
	// The pump quiesced, so the BAT must have parked after the idle
	// revolutions (with LOIT 0 it could never unload).
	st := owner.Stats()
	if st.BATsParked != 1 {
		t.Fatalf("BATsParked = %d, want 1", st.BATsParked)
	}
	if owner.ParkedBATs() != 1 {
		t.Fatalf("ParkedBATs = %d, want 1", owner.ParkedBATs())
	}
}

// TestUnparkOnInterest: a request reaching the owner of a parked BAT
// re-admits it immediately and the requester gets served.
func TestUnparkOnInterest(t *testing.T) {
	cfg := staticCfg(0)
	cfg.ParkIdleCycles = 2
	r := newMiniRing(t, 3, cfg)
	owner := r.nodes[1]
	owner.AddOwned(7, 100)

	r.nodes[0].Request(1, 7)
	r.nodes[0].Pin(1, 7)
	r.pump(500) // serve, then park (see TestParkingIdleBAT)
	if owner.ParkedBATs() != 1 {
		t.Fatalf("precondition: ParkedBATs = %d, want 1", owner.ParkedBATs())
	}

	// New interest from node 2: the request flows anti-clockwise to the
	// owner, unparks the BAT, and the BAT flows clockwise to node 2.
	r.nodes[2].Request(9, 7)
	r.nodes[2].Pin(9, 7)
	r.pump(500)
	if got := r.envs[2].delivered[9]; len(got) != 1 || got[0] != 7 {
		t.Fatalf("delivered after unpark = %v, want [7]", got)
	}
	st := owner.Stats()
	if st.BATsUnparked != 1 {
		t.Fatalf("BATsUnparked = %d, want 1", st.BATsUnparked)
	}
	// It parked again after serving node 2 and going idle anew.
	if st.BATsParked != 2 {
		t.Fatalf("BATsParked = %d, want 2 (re-parked after serving)", st.BATsParked)
	}
}

// TestParkingDisabledByDefault: ParkIdleCycles=0 keeps the pre-pacing
// behavior — an idle BAT above LOIT circulates forever.
func TestParkingDisabledByDefault(t *testing.T) {
	cfg := staticCfg(0)
	r := newMiniRing(t, 3, cfg)
	r.nodes[1].AddOwned(7, 100)
	r.nodes[0].Request(1, 7)
	r.nodes[0].Pin(1, 7)
	// The pump never quiesces (the BAT circulates forever): run a fixed
	// number of steps and confirm no parking happened.
	for i := 0; i < 300 && len(r.queue) > 0; i++ {
		fn := r.queue[0]
		r.queue = r.queue[1:]
		fn()
	}
	if len(r.queue) == 0 {
		t.Fatal("circulation stopped with pacing disabled")
	}
	st := r.nodes[1].Stats()
	if st.BATsParked != 0 || r.nodes[1].ParkedBATs() != 0 {
		t.Fatalf("parked with pacing disabled: %+v", st)
	}
}

// TestParkedBATStillPinsLocally: the owner itself can pin its parked
// BAT (served from local state, no circulation needed).
func TestParkedBATStillPinsLocally(t *testing.T) {
	cfg := staticCfg(0)
	cfg.ParkIdleCycles = 1
	r := newMiniRing(t, 3, cfg)
	owner := r.nodes[1]
	owner.AddOwned(7, 100)
	r.nodes[0].Request(1, 7)
	r.nodes[0].Pin(1, 7)
	r.pump(500)
	if owner.ParkedBATs() != 1 {
		t.Fatalf("precondition: ParkedBATs = %d, want 1", owner.ParkedBATs())
	}
	owner.Request(5, 7)
	owner.Pin(5, 7)
	r.pump(500)
	if got := r.envs[1].delivered[5]; len(got) != 1 || got[0] != 7 {
		t.Fatalf("owner's local pin of a parked BAT: delivered = %v, want [7]", got)
	}
}

// TestRequestAtOwnerGuardsOneHomecoming: a request that reaches the
// owner of a circulating BAT may come from a node the envelope has
// already passed this revolution. With pacing on, the next homecoming
// therefore neither unloads nor parks — and only that one: the
// homecoming after it is judged as before. With pacing off the window
// stays open, as in the paper (§4.2.3's resend covers it).
func TestRequestAtOwnerGuardsOneHomecoming(t *testing.T) {
	for _, tc := range []struct {
		name          string
		loit          float64
		park          int
		keptAfterReq  bool // the homecoming that follows the request forwards
		wantUnloaded  uint64
		wantParked    uint64
		wantForwarded int // data sends by the owner: load + forwards
	}{
		{"unload guarded once", 0.5, 2, true, 1, 0, 2},
		{"park guarded once", 0, 1, true, 0, 1, 2},
		{"pacing off keeps the paper's window", 0.5, 0, false, 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := staticCfg(tc.loit)
			cfg.ParkIdleCycles = tc.park
			env := &mockEnv{}
			rt := newTestRT(env, cfg)
			rt.AddOwned(7, 100)
			rt.OnRequest(RequestMsg{Origin: 1, BAT: 7}) // loads and sends
			rt.OnRequest(RequestMsg{Origin: 2, BAT: 7}) // reaches a circulating BAT

			idle := BATMsg{Owner: 3, BAT: 7, Size: 100, Hops: 2}
			rt.OnBAT(idle)
			if kept := rt.Loaded(7) && !rt.Parked(7); kept != tc.keptAfterReq {
				t.Fatalf("after the requested homecoming: circulating = %v, want %v", kept, tc.keptAfterReq)
			}
			if tc.keptAfterReq {
				fwd := env.sentData[len(env.sentData)-1]
				if fwd.Cycles != 1 || fwd.Copies != 0 || fwd.Hops != 0 {
					t.Fatalf("guarded forward carries %+v, want the normal next-revolution header", fwd)
				}
				idle.Cycles, idle.LOI = fwd.Cycles, fwd.LOI
				rt.OnBAT(idle) // no request in between: judged as before
			}
			st := rt.Stats()
			if st.BATsUnloaded != tc.wantUnloaded || st.BATsParked != tc.wantParked {
				t.Fatalf("unloaded=%d parked=%d, want %d/%d", st.BATsUnloaded, st.BATsParked, tc.wantUnloaded, tc.wantParked)
			}
			if len(env.sentData) != tc.wantForwarded {
				t.Fatalf("owner sent %d envelopes, want %d", len(env.sentData), tc.wantForwarded)
			}
		})
	}
}

// TestOutstandingRequestCountsAsCopy: under pacing an envelope that
// passes a node whose query has asked for the BAT but not yet blocked
// in pin() carries that interest home as a copy — once, whether or not
// a pin is already waiting — so the owner does not take the pass for an
// idle one. Without pacing only blocked pins count, as in Fig. 4.
func TestOutstandingRequestCountsAsCopy(t *testing.T) {
	for _, tc := range []struct {
		park   int
		pinned bool
		want   int
	}{{2, false, 1}, {2, true, 1}, {0, false, 0}, {0, true, 1}} {
		cfg := staticCfg(0.5)
		cfg.ParkIdleCycles = tc.park
		env := &mockEnv{}
		rt := newTestRT(env, cfg)
		rt.Request(1, 7)
		if tc.pinned {
			rt.Pin(1, 7)
		}
		rt.OnBAT(BATMsg{Owner: 0, BAT: 7, Size: 100})
		if got := env.sentData[0].Copies; got != tc.want {
			t.Errorf("park=%d pinned=%v: forwarded Copies = %d, want %d", tc.park, tc.pinned, got, tc.want)
		}
		rt.CancelQuery(1, []BATID{7})
		rt.OnBAT(BATMsg{Owner: 0, BAT: 7, Size: 100})
		if got := env.sentData[1].Copies; got != 0 {
			t.Errorf("park=%d pinned=%v: a pass with no interest left counted %d copies", tc.park, tc.pinned, got)
		}
	}
}
