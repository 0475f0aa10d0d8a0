package server_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/dcclient"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/membership"
	"repro/internal/minisql"
	"repro/internal/server"
)

func testColumns() (map[string]*bat.BAT, minisql.Schema) {
	cols := map[string]*bat.BAT{
		"t.id":   bat.MakeInts("t.id", []int64{1, 2, 3, 4}),
		"t.name": bat.MakeStrs("t.name", []string{"one", "two", "three", "four"}),
		"c.t_id": bat.MakeInts("c.t_id", []int64{2, 2, 3, 9}),
		"c.val":  bat.MakeInts("c.val", []int64{100, 200, 300, 400}),
	}
	schema := minisql.MapSchema{
		"t": {"id", "name"},
		"c": {"t_id", "val"},
	}
	return cols, schema
}

func servedRing(t *testing.T, n int, ringCfg live.Config, srvCfg server.Config) (*live.Ring, *server.Server) {
	t.Helper()
	cols, schema := testColumns()
	r, err := live.NewRing(n, cols, schema, ringCfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.Serve(r, srvCfg)
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		r.Close()
	})
	return r, s
}

func TestServeQueryMatchesInProcess(t *testing.T) {
	r, s := servedRing(t, 3, live.DefaultConfig(), server.DefaultConfig())
	const sql = "select name from t where id >= 2 order by name"
	want, err := r.Node(1).ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dcclient.Dial(s.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if h := cl.Node(); h.Node != 1 || h.Ring != 3 {
		t.Fatalf("handshake = %+v, want node 1 of 3", h)
	}
	got, err := cl.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows(), want.Rows()) {
		t.Fatalf("network result differs:\nwant %v\ngot  %v", want.Rows(), got.Rows())
	}
}

func TestPlanCacheSkipsRecompilation(t *testing.T) {
	_, s := servedRing(t, 2, live.DefaultConfig(), server.DefaultConfig())
	cl, err := dcclient.Dial(s.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const sql = "select sum(val) from c"
	for i := 0; i < 3; i++ {
		if _, err := cl.Query(context.Background(), sql); err != nil {
			t.Fatal(err)
		}
	}
	// Over the same connection: the node counts a query once its answer
	// is written, which the client may see first.
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanCacheMisses != 1 {
		t.Fatalf("plan cache misses = %d, want 1", st.PlanCacheMisses)
	}
	if st.PlanCacheHits != 2 {
		t.Fatalf("plan cache hits = %d, want 2", st.PlanCacheHits)
	}
	if st.OK != 3 || st.Count != 3 {
		t.Fatalf("outcome counters: %+v", st)
	}
}

func TestBadSQLKeepsConnectionUsable(t *testing.T) {
	_, s := servedRing(t, 2, live.DefaultConfig(), server.DefaultConfig())
	cl, err := dcclient.Dial(s.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(context.Background(), "select nosuch from t"); err == nil {
		t.Fatal("bad SQL succeeded")
	} else if dcclient.IsTemporary(err) {
		t.Fatalf("compile error reported as temporary: %v", err)
	}
	// The same pooled connection must still answer good queries.
	if _, err := cl.Query(context.Background(), "select sum(val) from c"); err != nil {
		t.Fatalf("connection unusable after query error: %v", err)
	}
	if st, err := cl.Stats(context.Background()); err != nil || st.Failed != 1 || st.OK != 1 {
		t.Fatalf("outcomes = %+v (%v), want 1 failed + 1 ok", st, err)
	}
}

func TestGracefulDrain(t *testing.T) {
	_, s := servedRing(t, 2, live.DefaultConfig(), server.DefaultConfig())
	cl, err := dcclient.Dial(s.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(context.Background(), "select sum(val) from c"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// After drain every path must fail cleanly: either the pooled
	// connection was force-closed (I/O error) or it got a draining frame.
	if _, err := cl.Query(context.Background(), "select sum(val) from c"); err == nil {
		t.Fatal("query succeeded on a drained server")
	}
	if st := s.Stats(0); st.InFlight != 0 {
		t.Fatalf("in-flight after drain = %d", st.InFlight)
	}
}

// TestClientFailsOverOnNodeDeath is the client-continuity half of the
// elastic-membership contract, exercised through the network service:
// a client homed on a node that dies mid-run retries onto a surviving
// node from its routing cache, rehomes there, and keeps getting
// correct answers once the ring has promoted the dead node's replicas.
func TestClientFailsOverOnNodeDeath(t *testing.T) {
	ringCfg := live.DefaultConfig()
	ringCfg.Replicas = 1
	ringCfg.Heartbeat = membership.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      3,
		DeadAfter:         8,
	}
	ringCfg.Core.ResendTimeout = 100 * time.Millisecond
	r, s := servedRing(t, 3, ringCfg, server.DefaultConfig())

	const sql = "select val from c where t_id >= 2 order by val"
	want, err := r.Node(0).ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := dcclient.Dial(s.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	if addrs, alive := cl.Peers(); len(addrs) != 3 || !alive[1] {
		t.Fatalf("routing cache after handshake: addrs=%v alive=%v", addrs, alive)
	}

	// The home node crashes: ring node, listener, and connections die.
	s.KillNode(1)

	// The client must recover without intervention: pooled connections
	// fail, the dial fails, and the failover path lands the query on a
	// survivor. Early attempts may time out while the ring itself is
	// still detecting the death and promoting replicas.
	deadline := time.Now().Add(15 * time.Second)
	var got *mal.ResultSet
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		got, err = cl.Query(ctx, sql)
		cancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no correct answer after node death: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !reflect.DeepEqual(got.Rows(), want.Rows()) {
		t.Fatalf("post-failover result differs:\nwant %v\ngot  %v", want.Rows(), got.Rows())
	}
	if cl.Addr() == s.Addr(1) {
		t.Fatal("client still homed on the dead node")
	}
	// The rehomed handshake refreshed the routing cache; once the
	// survivor's view has declared the death, the cache shows it.
	for {
		if _, alive := cl.Peers(); len(alive) == 3 && !alive[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("routing cache never learned of the death")
		}
		time.Sleep(10 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		cl.Refresh(ctx) // re-handshake with the rehomed node
		cancel()
	}
	if st := s.Stats(2); !st.MembEnabled || st.MembFailovers == 0 {
		t.Fatalf("served stats missed the failover: %+v", st)
	}
}

func TestQueryContextTimeout(t *testing.T) {
	_, s := servedRing(t, 2, live.DefaultConfig(), server.DefaultConfig())
	cl, err := dcclient.Dial(s.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Query(ctx, "select sum(val) from c"); err != context.Canceled {
		t.Fatalf("cancelled query = %v, want context.Canceled", err)
	}
	// The client must recover with a fresh connection afterwards.
	if _, err := cl.Query(context.Background(), "select sum(val) from c"); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// TestServeJoinedNode grows a served ring at runtime: Join admits a new
// ring node, ServeNode brings its listener online, and clients learn
// the grown ring from their next handshake — the newcomer both serves
// queries directly and shows up in every routing cache.
func TestServeJoinedNode(t *testing.T) {
	ringCfg := live.DefaultConfig()
	ringCfg.Replicas = 1
	ringCfg.Heartbeat = membership.Config{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectAfter:      3,
		DeadAfter:         8,
	}
	ringCfg.Core.ResendTimeout = 100 * time.Millisecond
	r, s := servedRing(t, 3, ringCfg, server.DefaultConfig())

	const sql = "select val from c where t_id >= 2 order by val"
	want, err := r.Node(0).ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}

	cl, err := dcclient.Dial(s.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	if addrs, _ := cl.Peers(); len(addrs) != 3 {
		t.Fatalf("pre-join routing cache: %v", addrs)
	}

	rep, err := r.Join()
	if err != nil {
		t.Fatal(err)
	}
	joinAddr, err := s.ServeNode(rep.Node)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Addr(rep.Node); got != joinAddr {
		t.Fatalf("Addr(%d) = %s, want %s", rep.Node, got, joinAddr)
	}
	if _, err := s.ServeNode(rep.Node); err == nil {
		t.Fatal("double ServeNode succeeded")
	}

	// The newcomer answers over the wire, with its Hello reporting the
	// grown ring.
	jcl, err := dcclient.Dial(joinAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer jcl.Close()
	got, err := jcl.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows(), want.Rows()) {
		t.Fatalf("joined node answer differs:\nwant %v\ngot  %v", want.Rows(), got.Rows())
	}
	if h := jcl.Node(); h.Node != rep.Node || h.Ring != 4 {
		t.Fatalf("joined node hello = %+v, want node %d in a 4-ring", h, rep.Node)
	}

	// The old client's next handshake advertises the grown address list.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	addrs, alive := cl.Peers()
	if len(addrs) != 4 || addrs[rep.Node] != joinAddr {
		t.Fatalf("refreshed routing cache: addrs=%v", addrs)
	}
	if len(alive) != 4 || !alive[rep.Node] {
		t.Fatalf("refreshed routing cache: alive=%v", alive)
	}
	if st, err := jcl.Stats(ctx); err != nil || st.OK == 0 {
		t.Fatalf("joined node's served stats missed its query: %+v (%v)", st, err)
	}
}

// TestServedUpdateOnHotColumnThenClose is the served half of the update
// wedge regression (live.TestUpdateHotFragmentedColumnThenQuery): a
// client's query after UpdateColumn on a hot, parked multi-fragment
// column answers with the new version, and Server.Close returns.
func TestServedUpdateOnHotColumnThenClose(t *testing.T) {
	cols, schema := testColumns()
	cfg := live.DefaultConfig()
	cfg.FragmentRows = 1 // 4 fragments per column
	r, err := live.NewRing(3, cols, schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := server.Serve(r, server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dcclient.Dial(s.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const sql = "select sum(val) from c"
	sum := func() int64 {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rs, err := cl.Query(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Row(0)[0].(int64)
	}
	if a, b := sum(), sum(); a != 1000 || b != 1000 {
		t.Fatalf("sums before the update: %d, %d, want 1000", a, b)
	}
	// Quiet ring: every fragment still in the hot set is parked.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		var hot, parked uint64
		for i := 0; i < r.Size(); i++ {
			st := r.Node(i).Stats()
			hot += st.BATsLoaded - st.BATsUnloaded
			parked += st.BATsParked - st.BATsUnparked
		}
		if hot == parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring never went quiet: %d fragments hot, %d parked", hot, parked)
		}
	}
	if _, err := r.UpdateColumn("c.val", func(old *bat.BAT) *bat.BAT {
		vals := make([]int64, old.Len())
		for i := range vals {
			vals[i] = old.Tail().Int(i) * 2
		}
		return bat.MakeInts("c.val", vals)
	}); err != nil {
		t.Fatal(err)
	}
	if got := sum(); got != 2000 {
		t.Fatalf("sum after the update: %d, want 2000", got)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close did not return within 5s of the update")
	}
}
