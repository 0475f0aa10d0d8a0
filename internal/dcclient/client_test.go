package dcclient

import (
	"bufio"
	"context"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/minisql"
	"repro/internal/server"
)

func servedRing(t *testing.T) *server.Server {
	t.Helper()
	cols := map[string]*bat.BAT{
		"t.id":  bat.MakeInts("t.id", []int64{1, 2, 3}),
		"t.val": bat.MakeInts("t.val", []int64{10, 20, 30}),
	}
	schema := minisql.MapSchema{"t": {"id", "val"}}
	r, err := live.NewRing(2, cols, schema, live.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.Serve(r, server.DefaultConfig())
	if err != nil {
		r.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		r.Close()
	})
	return s
}

// TestConnectionReuse checks sequential queries share one pooled
// connection instead of dialing per query.
func TestConnectionReuse(t *testing.T) {
	s := servedRing(t)
	cl, err := Dial(s.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		if _, err := cl.Query(context.Background(), "select sum(val) from t"); err != nil {
			t.Fatal(err)
		}
	}
	cl.mu.Lock()
	idle := len(cl.idle)
	cl.mu.Unlock()
	if idle != 1 {
		t.Fatalf("pool holds %d connections after sequential queries, want 1", idle)
	}
}

// TestRetryAfterServerRestart kills the server under a pooled
// connection and restarts it on the same address: the next query's
// first write (or read) fails before any response byte, which is the
// idempotent point — the client must retry once on a freshly dialed
// connection instead of surfacing a transport error.
func TestRetryAfterServerRestart(t *testing.T) {
	cols := map[string]*bat.BAT{
		"t.id":  bat.MakeInts("t.id", []int64{1, 2, 3}),
		"t.val": bat.MakeInts("t.val", []int64{10, 20, 30}),
	}
	schema := minisql.MapSchema{"t": {"id", "val"}}
	r, err := live.NewRing(2, cols, schema, live.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	// s1 serves on a concrete base port P, so it holds both nodes' ports,
	// P and P+1, and the restart rebinds only ports s1 just released. A
	// port the probe saw free may be taken before s1 binds it, or P+1 may
	// be in use: then another P is tried.
	var s1 *server.Server
	for attempt := 0; ; attempt++ {
		probe, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := server.DefaultConfig()
		cfg.Addr = probe.Addr().String()
		probe.Close()
		if s1, err = server.Serve(r, cfg); err == nil {
			break
		}
		if attempt == 20 {
			t.Fatalf("serve on a concrete port: %v", err)
		}
	}
	addr := s1.Addr(0)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const sql = "select sum(val) from t"
	rs, err := cl.Query(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	want := rs.Rows()

	// Kill: the pooled connection goes stale.
	s1.Close()
	// Restart on the exact same address.
	cfg := server.DefaultConfig()
	cfg.Addr = addr
	var s2 *server.Server
	deadline := time.Now().Add(5 * time.Second)
	for {
		s2, err = server.Serve(r, cfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Cleanup(func() { s2.Close() })

	// The pooled connection fails its first use; the retry must make
	// this invisible to the caller — every query keeps succeeding.
	for i := 0; i < 3; i++ {
		rs, err := cl.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("query %d after restart: %v", i, err)
		}
		if !reflect.DeepEqual(rs.Rows(), want) {
			t.Fatalf("query %d after restart: rows %v, want %v", i, rs.Rows(), want)
		}
	}
}

// TestNoRetryOnFreshConnection: a never-pooled connection that hits a
// dead server must surface the error (retrying a fresh dial would just
// double the failure, and nothing was stale to excuse it).
func TestNoRetryOnFreshConnection(t *testing.T) {
	s := servedRing(t)
	addr := s.Addr(0)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Empty the pool so the next query dials fresh, then kill the server
	// for good.
	cl.mu.Lock()
	for _, cn := range cl.idle {
		cn.c.Close()
	}
	cl.idle = nil
	cl.mu.Unlock()
	s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := cl.Query(ctx, "select sum(val) from t"); err == nil {
		t.Fatal("query against a dead server succeeded")
	}
}

// stalledServer handshakes correctly and then never answers queries.
func stalledServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				if typ, _, err := server.ReadFrame(br, server.DefaultMaxFrame); err != nil || typ != server.FrameHello {
					return
				}
				hello, _ := server.EncodeHello(server.Hello{Ring: 1})
				server.WriteFrame(bw, server.FrameHelloOK, hello)
				bw.Flush()
				// Swallow queries forever.
				for {
					if _, _, err := server.ReadFrame(br, server.DefaultMaxFrame); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestQueryDeadline checks a context deadline aborts a round trip whose
// answer never comes, and surfaces as context.DeadlineExceeded.
func TestQueryDeadline(t *testing.T) {
	cl, err := Dial(stalledServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.Query(ctx, "select 1")
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("deadline ignored: waited %s", waited)
	}
}

// TestMidQueryCancel checks cancellation (not just a deadline) unblocks
// an in-flight round trip.
func TestMidQueryCancel(t *testing.T) {
	cl, err := Dial(stalledServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	if _, err := cl.Query(ctx, "select 1"); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStatsFrame fetches the serving node's counters over the wire and
// checks the query the same session just ran is visible in them,
// including the hot-set cache accounting.
func TestStatsFrame(t *testing.T) {
	s := servedRing(t)
	cl, err := Dial(s.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := cl.Query(ctx, "select val from t where id = 2"); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.OK != 3 || st.Accepted != 3 {
		t.Fatalf("stats did not count the queries: %+v", st)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Fatal("stats carried no pin accounting")
	}
	if st.Cache.Hits == 0 {
		t.Fatal("repeated query never hit the hot-set cache")
	}
	if rate := st.Cache.HitRate(); rate <= 0 || rate > 1 {
		t.Fatalf("hit rate %v out of range", rate)
	}
	// The frame carries the node's cache snapshot whole, including
	// counters a field-by-field copy once left behind.
	if st.Cache.Inserts == 0 {
		t.Fatalf("stats carried no cache inserts: %+v", st.Cache)
	}
	// Hop-transport counters crossed the wire too: answering the query
	// made fragments hop. The serving node's own sends happen after the
	// query answer (it forwards fragments onward asynchronously), so
	// poll briefly for the counters to land.
	for deadline := time.Now().Add(5 * time.Second); st.Hop.Msgs == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("stats carried no hop accounting: %+v", st.Hop)
		}
		time.Sleep(5 * time.Millisecond)
		if st, err = cl.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if st.Hop.Frags < st.Hop.Msgs {
		t.Fatalf("inconsistent hop accounting: msgs=%d frags=%d", st.Hop.Msgs, st.Hop.Frags)
	}
	var fill int64
	for _, c := range st.Hop.Fill {
		fill += c
	}
	if fill != st.Hop.Msgs {
		t.Fatalf("fill histogram %v does not sum to msgs %d", st.Hop.Fill, st.Hop.Msgs)
	}
	// The connection survives a stats exchange and keeps querying.
	if _, err := cl.Query(ctx, "select val from t where id = 2"); err != nil {
		t.Fatalf("query after stats frame: %v", err)
	}
}

// TestFailoverBackoffRetriesLaterRound forces a two-failure sequence:
// the home node is gone for good, and the only surviving peer slams the
// door on its first connection. The immediate failover pass therefore
// finds nobody — the client must back off and win on a later pass
// instead of surfacing the home node's transport error.
func TestFailoverBackoffRetriesLaterRound(t *testing.T) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lnA.Close(); lnB.Close() })
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	hello := func(node int) []byte {
		h, err := server.EncodeHello(server.Hello{
			Node: node, Ring: 2,
			Addrs: []string{addrA, addrB},
			Alive: []bool{true, true},
		})
		if err != nil {
			t.Error(err)
		}
		return h
	}
	handshake := func(conn net.Conn, node int) (*bufio.Reader, *bufio.Writer, bool) {
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		if typ, _, err := server.ReadFrame(br, server.DefaultMaxFrame); err != nil || typ != server.FrameHello {
			return nil, nil, false
		}
		server.WriteFrame(bw, server.FrameHelloOK, hello(node))
		bw.Flush()
		return br, bw, true
	}

	// Home node A: one good handshake, then gone for good.
	go func() {
		conn, err := lnA.Accept()
		if err != nil {
			return
		}
		handshake(conn, 0)
		conn.Close()
		lnA.Close()
	}()

	// Peer B: refuses its first connection (the forced second failure),
	// then serves handshakes and one-row answers.
	var attemptsB atomic.Int32
	go func() {
		for {
			conn, err := lnB.Accept()
			if err != nil {
				return
			}
			if attemptsB.Add(1) == 1 {
				conn.Close()
				continue
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br, bw, ok := handshake(conn, 1)
				if !ok {
					return
				}
				for {
					typ, _, err := server.ReadFrame(br, server.DefaultMaxFrame)
					if err != nil || typ != server.FrameQuery {
						return
					}
					payload, err := server.EncodeResult(&mal.ResultSet{
						Names: []string{"val"},
						Cols:  []*bat.BAT{bat.MakeInts("val", []int64{42})},
					})
					if err != nil {
						t.Error(err)
						return
					}
					server.WriteFrame(bw, server.FrameResult, payload)
					bw.Flush()
				}
			}(conn)
		}
	}()

	cfg := DefaultConfig()
	cfg.FailoverRounds = 3
	cfg.FailoverBackoff = 5 * time.Millisecond
	cl, err := DialConfig(addrA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	rs, err := cl.Query(ctx, "select val from t where id = 1")
	if err != nil {
		t.Fatalf("query should survive two failures via backoff: %v", err)
	}
	if rs.NumRows() != 1 {
		t.Fatalf("peer answered %d rows, want 1", rs.NumRows())
	}
	if got := attemptsB.Load(); got < 2 {
		t.Fatalf("peer saw %d connection attempts, want >= 2 (refused then served)", got)
	}
	if cl.Addr() != addrB {
		t.Fatalf("client homed at %s, want rehomed to %s", cl.Addr(), addrB)
	}
	// The winning pass came after at least the jitter floor of one
	// backoff (base/2), proving the retry waited rather than spun.
	if waited := time.Since(start); waited < cfg.FailoverBackoff/2 {
		t.Fatalf("failover returned in %s, under the backoff floor", waited)
	}
}

// TestFailoverRoundsBounded checks the retry budget is a budget: with
// everything down, the client gives up after its configured passes
// instead of retrying forever.
func TestFailoverRoundsBounded(t *testing.T) {
	s := servedRing(t)
	cfg := DefaultConfig()
	cfg.FailoverRounds = 2
	cfg.FailoverBackoff = 2 * time.Millisecond
	cl, err := DialConfig(s.Addr(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := cl.Query(ctx, "select sum(val) from t"); err == nil {
		t.Fatal("query against a fully dead ring succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("bounded retry took %s — budget not enforced", waited)
	}
}

// TestFailoverOrderRingOrder: a failover pass tries the peers in ring
// order after the home, and the home itself last (later rounds
// reconsider a restarted home).
func TestFailoverOrderRingOrder(t *testing.T) {
	for _, tc := range []struct {
		home, n int
		want    []int
	}{
		{1, 3, []int{2, 0, 1}},
		{0, 4, []int{1, 2, 3, 0}},
		{3, 4, []int{0, 1, 2, 3}},
		{0, 1, []int{0}},
	} {
		if got := failoverOrder(tc.home, tc.n); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("failoverOrder(%d, %d) = %v, want %v", tc.home, tc.n, got, tc.want)
		}
	}
}
