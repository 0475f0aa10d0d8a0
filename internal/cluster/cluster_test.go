package cluster

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// smallConfig returns a fast 4-node ring with generous queues.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Ring.Data.QueueCap = 50 << 20
	cfg.Core.LOITLevels = []float64{0.1}
	cfg.Core.AdaptiveLOIT = false
	return cfg
}

// buildUniform populates nBATs fragments of size each, owners round-robin.
func buildUniform(c *Cluster, nBATs, size int) {
	for i := 0; i < nBATs; i++ {
		c.AddBAT(BATSpec{
			ID:    core.BATID(i),
			Size:  size,
			Owner: core.NodeID(i % c.Nodes()),
		})
	}
}

func TestSingleQueryCompletes(t *testing.T) {
	c := New(smallConfig())
	buildUniform(c, 8, 1<<20)
	// Query at node 0 for a BAT owned by node 2 (remote).
	c.Submit(QuerySpec{
		ID: 1, Node: 0, Arrival: 0,
		Steps: []Step{{BAT: 2, Proc: 50 * time.Millisecond}},
	})
	end := c.Run(time.Minute)
	if c.QueriesDone() != 1 {
		t.Fatalf("done = %d, want 1", c.QueriesDone())
	}
	if end <= 0 || end > 10*time.Second {
		t.Fatalf("end = %v, unreasonable", end)
	}
	m := c.Metrics()
	if m.Finished.Count() != 1 || m.Errors != 0 {
		t.Fatalf("finished=%d errors=%d", m.Finished.Count(), m.Errors)
	}
	if m.Loads.Get(2) != 1 {
		t.Fatalf("BAT 2 loads = %d, want 1", m.Loads.Get(2))
	}
	if m.Touches.Get(2) != 1 {
		t.Fatalf("BAT 2 touches = %d, want 1", m.Touches.Get(2))
	}
	// Lifetime must include at least the processing time.
	if m.Lifetime.Max() < 0.05 {
		t.Fatalf("lifetime = %v, want >= 50ms", m.Lifetime.Max())
	}
}

func TestManyQueriesAllFinish(t *testing.T) {
	cfg := smallConfig()
	cfg.Core.AdaptiveLOIT = true
	cfg.Core.LOITLevels = []float64{0.1, 0.6, 1.1}
	c := New(cfg)
	buildUniform(c, 40, 1<<20)
	rng := rand.New(rand.NewSource(1))
	const nq = 200
	for q := 0; q < nq; q++ {
		node := core.NodeID(rng.Intn(c.Nodes()))
		nb := 1 + rng.Intn(5)
		var steps []Step
		for j := 0; j < nb; j++ {
			// remote BATs only, as in §5
			b := core.BATID(rng.Intn(40))
			for b%core.BATID(c.Nodes()) == core.BATID(node) {
				b = core.BATID(rng.Intn(40))
			}
			steps = append(steps, Step{BAT: b, Proc: time.Duration(100+rng.Intn(100)) * time.Millisecond})
		}
		c.Submit(QuerySpec{
			ID: core.QueryID(q), Node: node,
			Arrival: time.Duration(rng.Intn(5000)) * time.Millisecond,
			Steps:   steps,
		})
	}
	c.Run(10 * time.Minute)
	if c.QueriesDone() != nq {
		t.Fatalf("done = %d, want %d", c.QueriesDone(), nq)
	}
	m := c.Metrics()
	if m.Finished.Count() != nq {
		t.Fatalf("finished = %d", m.Finished.Count())
	}
	if m.Errors != 0 {
		t.Fatalf("errors = %d", m.Errors)
	}
	// Conservation: every load was eventually matched by at most one
	// unload; loaded bytes accounting must be non-negative.
	if c.LoadedBytes() < 0 {
		t.Fatalf("negative loaded bytes %d", c.LoadedBytes())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, int, float64) {
		c := New(smallConfig())
		buildUniform(c, 20, 1<<20)
		rng := rand.New(rand.NewSource(7))
		for q := 0; q < 50; q++ {
			node := core.NodeID(rng.Intn(c.Nodes()))
			b := core.BATID((rng.Intn(20)/c.Nodes())*c.Nodes() + (int(node)+1)%c.Nodes())
			c.Submit(QuerySpec{
				ID: core.QueryID(q), Node: node,
				Arrival: time.Duration(rng.Intn(1000)) * time.Millisecond,
				Steps:   []Step{{BAT: b, Proc: 100 * time.Millisecond}},
			})
		}
		end := c.Run(time.Minute)
		return end, c.QueriesDone(), c.Metrics().Lifetime.Mean()
	}
	e1, d1, l1 := run()
	e2, d2, l2 := run()
	if e1 != e2 || d1 != d2 || l1 != l2 {
		t.Fatalf("replay diverged: (%v,%d,%v) vs (%v,%d,%v)", e1, d1, l1, e2, d2, l2)
	}
}

func TestHotSetEvictionUnderStaticLOIT(t *testing.T) {
	// With the highest static LOIT of §5.1 (1.1 > max achievable CAVG of
	// 1.0), every BAT is evicted after each cycle.
	cfg := smallConfig()
	cfg.Core.LOITLevels = []float64{1.1}
	c := New(cfg)
	buildUniform(c, 8, 1<<20)
	c.Submit(QuerySpec{ID: 1, Node: 0, Arrival: 0,
		Steps: []Step{{BAT: 1, Proc: 10 * time.Millisecond}}})
	c.Run(time.Minute)
	if c.QueriesDone() != 1 {
		t.Fatal("query did not finish")
	}
	// Let the BAT complete its circulation and be evicted.
	c.RunFor(5 * time.Second)
	if got := c.LoadedBytes(); got != 0 {
		t.Fatalf("hot set = %d bytes after eviction, want 0", got)
	}
	if c.Metrics().MaxCycles.Get(1) < 1 {
		t.Fatal("BAT never completed a cycle")
	}
}

func TestHotSetRetentionUnderLowLOIT(t *testing.T) {
	// With LOIT 0 nothing is ever evicted: the BAT keeps cycling.
	cfg := smallConfig()
	cfg.Core.LOITLevels = []float64{0}
	c := New(cfg)
	buildUniform(c, 8, 1<<20)
	c.Submit(QuerySpec{ID: 1, Node: 0, Arrival: 0,
		Steps: []Step{{BAT: 1, Proc: 10 * time.Millisecond}}})
	c.Run(time.Minute)
	c.RunFor(5 * time.Second)
	if got := c.LoadedBytes(); got != 1<<20 {
		t.Fatalf("hot set = %d, want BAT to stay loaded", got)
	}
	if c.Metrics().MaxCycles.Get(1) < 3 {
		t.Fatalf("cycles = %d, want several", c.Metrics().MaxCycles.Get(1))
	}
}

func TestRingFullPostponesLoads(t *testing.T) {
	cfg := smallConfig()
	cfg.Ring.Data.QueueCap = 3 << 20   // tiny queues: ~3 BATs per node
	cfg.Core.LOITLevels = []float64{0} // never evict: pressure builds
	c := New(cfg)
	buildUniform(c, 32, 1<<20)
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 64; q++ {
		node := core.NodeID(rng.Intn(4))
		b := core.BATID(rng.Intn(32))
		for int(b)%4 == int(node) {
			b = core.BATID(rng.Intn(32))
		}
		c.Submit(QuerySpec{ID: core.QueryID(q), Node: node, Arrival: 0,
			Steps: []Step{{BAT: b, Proc: 10 * time.Millisecond}}})
	}
	c.RunFor(3 * time.Second)
	postponed := uint64(0)
	for i := 0; i < c.Nodes(); i++ {
		postponed += c.Node(i).Stats().PendingPostponed
	}
	if postponed == 0 {
		t.Fatal("expected postponed loads with tiny ring capacity")
	}
}

func TestAdaptiveLOITStepsUnderLoad(t *testing.T) {
	cfg := smallConfig()
	cfg.Ring.Data.QueueCap = 4 << 20
	// Lowest level 0 = no eviction, so the hot set grows until the high
	// watermark must trip and step the threshold up.
	cfg.Core.LOITLevels = []float64{0, 0.6, 1.1}
	cfg.Core.AdaptiveLOIT = true
	c := New(cfg)
	buildUniform(c, 32, 1<<20)
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 128; q++ {
		node := core.NodeID(rng.Intn(4))
		var steps []Step
		for j := 0; j < 3; j++ {
			b := core.BATID(rng.Intn(32))
			for int(b)%4 == int(node) {
				b = core.BATID(rng.Intn(32))
			}
			steps = append(steps, Step{BAT: b, Proc: 50 * time.Millisecond})
		}
		c.Submit(QuerySpec{ID: core.QueryID(q), Node: node, Arrival: 0, Steps: steps})
	}
	c.Run(2 * time.Minute)
	steps := uint64(0)
	for i := 0; i < c.Nodes(); i++ {
		steps += c.Node(i).Stats().LOITSteps
	}
	if steps == 0 {
		t.Fatal("adaptive LOIT never stepped despite pressure")
	}
	if c.QueriesDone() != 128 {
		t.Fatalf("done = %d, want 128", c.QueriesDone())
	}
}

func TestWorkloadTagsTracked(t *testing.T) {
	c := New(smallConfig())
	for i := 0; i < 8; i++ {
		tag := "dh1"
		if i >= 4 {
			tag = "dh2"
		}
		c.AddBAT(BATSpec{ID: core.BATID(i), Size: 1 << 20, Owner: core.NodeID(i % 4), Tag: tag})
	}
	c.Submit(QuerySpec{ID: 1, Node: 0, Arrival: 0, Tag: "sw1",
		Steps: []Step{{BAT: 1, Proc: 10 * time.Millisecond}}})
	c.Submit(QuerySpec{ID: 2, Node: 1, Arrival: 0, Tag: "sw2",
		Steps: []Step{{BAT: 6, Proc: 10 * time.Millisecond}}})
	c.Run(time.Minute)
	m := c.Metrics()
	if m.FinishedByTag["sw1"].Count() != 1 || m.FinishedByTag["sw2"].Count() != 1 {
		t.Fatalf("per-tag finished wrong: %v", m.FinishedByTag)
	}
	if m.RingBytesByTag["dh1"].Max() == 0 || m.RingBytesByTag["dh2"].Max() == 0 {
		t.Fatal("per-tag ring bytes not tracked")
	}
}

func TestCPUCoreScheduling(t *testing.T) {
	cfg := smallConfig()
	cfg.CoresPerNode = 2
	c := New(cfg)
	buildUniform(c, 8, 1<<20)
	// 4 queries on node 0, each 1s of CPU after a remote pin. With 2
	// cores the CPU phases serialize in pairs.
	for q := 0; q < 4; q++ {
		c.Submit(QuerySpec{ID: core.QueryID(q), Node: 0, Arrival: 0,
			Steps: []Step{{BAT: core.BATID(q*2 + 1), Proc: time.Second}}})
	}
	end := c.Run(time.Minute)
	if c.QueriesDone() != 4 {
		t.Fatalf("done = %d", c.QueriesDone())
	}
	// 4s of CPU over 2 cores >= 2s wall clock.
	if end < 2*time.Second {
		t.Fatalf("end = %v, want >= 2s (core contention)", end)
	}
	if got := c.NodeBusy(0); got != 4*time.Second {
		t.Fatalf("node 0 busy = %v, want 4s", got)
	}
	util := c.CPUUtilization(end)
	if util <= 0 || util > 1 {
		t.Fatalf("utilization = %v", util)
	}
}

func TestRequestLatencyRecorded(t *testing.T) {
	c := New(smallConfig())
	buildUniform(c, 8, 4<<20)
	c.Submit(QuerySpec{ID: 1, Node: 0, Arrival: 0,
		Steps: []Step{{BAT: 2, Proc: time.Millisecond}}})
	c.Run(time.Minute)
	if lat := c.Metrics().MaxReqLat.Get(2); lat <= 0 {
		t.Fatalf("request latency = %v, want > 0", lat)
	}
}

func TestNonexistentBATAbortsQuery(t *testing.T) {
	c := New(smallConfig())
	buildUniform(c, 8, 1<<20)
	c.Submit(QuerySpec{ID: 1, Node: 0, Arrival: 0,
		Steps: []Step{{BAT: 999, Proc: time.Millisecond}}}) // no owner
	c.Run(time.Minute)
	if c.Metrics().Errors != 1 {
		t.Fatalf("errors = %d, want 1 (BAT does not exist)", c.Metrics().Errors)
	}
	if c.QueriesDone() != 1 {
		t.Fatal("aborted query should still be accounted done")
	}
}

func TestRequestLossRecoveredByResend(t *testing.T) {
	cfg := smallConfig()
	// Request links with a 1-message queue: concurrent requests drop.
	cfg.Ring.Request = netsim.LinkConfig{Bandwidth: 1.25e9, Delay: 350 * time.Microsecond, QueueCap: core.RequestWireSize}
	cfg.Core.ResendTimeout = 500 * time.Millisecond
	c := New(cfg)
	buildUniform(c, 32, 1<<18)
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 60; q++ {
		node := core.NodeID(rng.Intn(4))
		b := core.BATID(rng.Intn(32))
		for int(b)%4 == int(node) {
			b = core.BATID(rng.Intn(32))
		}
		c.Submit(QuerySpec{ID: core.QueryID(q), Node: node,
			Arrival: time.Duration(q*17) * time.Millisecond,
			Steps:   []Step{{BAT: b, Proc: time.Millisecond}}})
	}
	c.Run(5 * time.Minute)
	if c.QueriesDone() != 60 {
		t.Fatalf("done = %d, want 60 despite request drops", c.QueriesDone())
	}
	drops := uint64(0)
	for i := 0; i < 4; i++ {
		drops += c.ring.RequestLink(i).Stats().Dropped
	}
	resends := uint64(0)
	for i := 0; i < 4; i++ {
		resends += c.Node(i).Stats().Resends
	}
	if drops > 0 && resends == 0 {
		t.Fatalf("drops = %d but no resends fired", drops)
	}
}

func TestTotalProcHelper(t *testing.T) {
	q := QuerySpec{
		InitialThink: 100 * time.Millisecond,
		Steps: []Step{
			{BAT: 1, Proc: 200 * time.Millisecond},
			{BAT: 2, Proc: 300 * time.Millisecond},
		},
	}
	if got := q.TotalProc(); got != 600*time.Millisecond {
		t.Fatalf("TotalProc = %v", got)
	}
}

func TestPanicsOnBadSpecs(t *testing.T) {
	c := New(smallConfig())
	c.AddBAT(BATSpec{ID: 1, Size: 10, Owner: 0})
	for _, fn := range []func(){
		func() { c.AddBAT(BATSpec{ID: 1, Size: 10, Owner: 0}) },  // dup
		func() { c.AddBAT(BATSpec{ID: 2, Size: 10, Owner: 99}) }, // bad owner
		func() { c.Submit(QuerySpec{ID: 9, Node: 99}) },          // bad node
		func() { New(Config{Nodes: 1}) },                         // too small
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestPinJustAfterPassNeedsNoResend replays, on the simulated clock, the
// schedule behind the live ring's 2 s stalls: node 2 pins a BAT right
// after its envelope went by, on a revolution nobody else uses. The
// request reaches the owner while the envelope is still on its way
// home, and that homecoming's LOI is below the threshold. With pacing
// on, the owner forwards it once more and node 2 is served within two
// revolutions; with pacing off (the paper's protocol, and what the
// figures reproduce) the BAT unloads and only the resend timer brings
// it back.
func TestPinJustAfterPassNeedsNoResend(t *testing.T) {
	const size = 1 << 20
	for _, tc := range []struct {
		park    int
		resends uint64
	}{{2, 0}, {0, 1}} {
		cfg := DefaultConfig()
		cfg.Nodes = 3
		cfg.Core.LOITLevels = []float64{0.3}
		cfg.Core.AdaptiveLOIT = false
		cfg.Core.ParkIdleCycles = tc.park
		c := New(cfg)
		c.AddBAT(BATSpec{ID: 0, Size: size, Owner: 0})

		reqHop := cfg.Ring.Request.Delay
		hop := c.ring.DataLink(0).SerializationTime(size+core.BATHeaderSize) + cfg.Ring.Data.Delay
		rev := 3 * hop
		// Node 1's query loads the BAT: it comes home at reqHop+rev with
		// LOI 0.5, passes node 2 again at reqHop+rev+2*hop, and comes
		// home idle at reqHop+2*rev with LOI 0.25 < 0.3.
		c.Submit(QuerySpec{ID: 1, Node: 1, Steps: []Step{{BAT: 0, Proc: time.Microsecond}}})
		pinAt := reqHop + rev + 2*hop + hop/10
		if arrives := pinAt + 2*reqHop; arrives >= reqHop+2*rev {
			t.Fatalf("schedule broken: the request reaches the owner at %v, after the homecoming", arrives)
		}
		c.Submit(QuerySpec{ID: 2, Node: 2, Arrival: pinAt, Steps: []Step{{BAT: 0, Proc: time.Microsecond}}})

		end := c.Run(time.Minute)
		if c.QueriesDone() != 2 {
			t.Fatalf("park=%d: done = %d, want 2", tc.park, c.QueriesDone())
		}
		if got := c.Node(2).Stats().Resends; got != tc.resends {
			t.Fatalf("park=%d: node 2 resends = %d, want %d", tc.park, got, tc.resends)
		}
		waited := end - pinAt
		if tc.resends == 0 && waited > 2*rev {
			t.Fatalf("park=%d: node 2 waited %v, more than two revolutions (%v)", tc.park, waited, 2*rev)
		}
		if tc.resends > 0 && waited < cfg.Core.ResendTimeout {
			t.Fatalf("park=%d: node 2 waited %v, less than the resend timeout it was supposed to sit out", tc.park, waited)
		}
	}
}
