package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/dcclient"
	"repro/internal/dcopt"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/mal/maltest"
	"repro/internal/minisql"
	"repro/internal/server"
	"repro/internal/tpch"
)

// wideSQL is wide_result's projection: about half of lineitem's rows,
// three columns the ring stores narrow.
const wideSQL = "select l_orderkey, l_suppkey, l_extendedprice from lineitem where l_quantity < 25"

// TestServedFramesMatchLocalReference: for each of the four queries
// whose rewritten plans are golden (internal/tpch/testdata), the result
// frame a node serves, decoded and with every column widened, encodes
// byte for byte to the frame of the same plan run locally, fragment by
// fragment at the ring's cuts, over the generator's wide columns —
// whatever widths the ring stores its fragments in. Same cuts, same
// merge order: float sums agree to the bit, so any difference is the
// kernel's or the frame's. A projection's result keeps the codes of
// the ring's narrow fragments, merged without widening: the wide
// query's columns arrive narrow, in at most half the reference's
// bytes. q6ish sums the decimal l_extendedprice, and wide projects it.
// At 1000-row fragments a fetch exit's bitmaps end in padding bits and
// a scalar tail past the last whole vector block.
func TestServedFramesMatchLocalReference(t *testing.T) {
	db := tpch.GenDB(0.002, 1)
	for _, c := range []struct {
		name  string
		width int
	}{{"l_quantity", 1}, {"l_discount", 1}, {"l_extendedprice", 2}} {
		col, _ := db.Column("lineitem", c.name)
		if w := bat.Narrow(col).Tail().Width(); w != c.width {
			t.Fatalf("%s narrows to %d bytes, want %d: the ring would serve it wide", c.name, w, c.width)
		}
	}
	for _, rows := range []int{0, 1000, 2048, 1 << 20} {
		cfg := live.DefaultConfig()
		cfg.FragmentRows = rows
		checkServedFrames(t, db, cfg)
	}
}

func checkServedFrames(t *testing.T, db *tpch.DB, cfg live.Config) {
	t.Helper()
	r, err := live.NewRing(3, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, c := range []struct{ name, sql string }{
		{"q6ish", tpch.Q6ishSQL},
		{"wide", "select l_orderkey, l_suppkey, l_extendedprice from lineitem where l_quantity < 25"},
		{"q1", tpch.Q1SQL},
		{"q3ish", tpch.Q3ishSQL},
	} {
		plan, err := minisql.Compile(c.sql, db.Schema(), "sys")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dc, _, err := dcopt.Rewrite(plan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		local := &maltest.FragDC{Cols: db.ColumnMap(), Cuts: maltest.EveryRows(cfg.FragmentRows)}
		ref, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: local}, dc)
		if err != nil {
			t.Fatalf("%s: local reference: %v", c.name, err)
		}
		want, err := server.EncodeResult(ref.(*mal.ResultSet))
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < r.Size(); node++ {
			rs, err := r.Node(node).ExecSQL(c.sql)
			if err != nil {
				t.Fatalf("%s on node %d: %v", c.name, node, err)
			}
			got, err := server.EncodeResult(rs)
			if err != nil {
				t.Fatal(err)
			}
			served, err := server.DecodeResult(got)
			if err != nil {
				t.Fatalf("%s on node %d: served frame does not decode: %v", c.name, node, err)
			}
			for i, col := range served.Cols {
				if c.name == "wide" && col.Tail().Width() >= 8 {
					t.Fatalf("wide on node %d, %d-row fragments: column %q arrived %d bytes wide, want its codes",
						node, cfg.FragmentRows, served.Names[i], col.Tail().Width())
				}
				served.Cols[i] = bat.Widen(col)
			}
			widened, err := server.EncodeResult(served)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(widened, want) {
				t.Fatalf("%s on node %d, %d-row fragments: served frame (%d bytes, %d widened) differs from the local reference's (%d bytes)",
					c.name, node, cfg.FragmentRows, len(got), len(widened), len(want))
			}
			if c.name == "wide" && 2*len(got) > len(want) {
				t.Fatalf("wide on node %d, %d-row fragments: served frame is %d bytes, want at most half the reference's %d",
					node, cfg.FragmentRows, len(got), len(want))
			}
		}
	}
}

// servedTPCH serves a 3-node ring over TPC-H at scale factor 0.002
// (12,000 lineitem rows).
func servedTPCH(t *testing.T, cfg server.Config) (*live.Ring, *server.Server) {
	t.Helper()
	db := tpch.GenDB(0.002, 1)
	r, err := live.NewRing(3, db.ColumnMap(), db.Schema(), live.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.Serve(r, cfg)
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

// TestServedWideFrameHasDenseHeads: the wide projection, served over a
// real connection, decodes to the tails the node computes, each under
// the dense head [0, n): the candidate list does not travel.
func TestServedWideFrameHasDenseHeads(t *testing.T) {
	r, s := servedTPCH(t, server.DefaultConfig())
	want, err := r.Node(1).ExecSQL(wideSQL)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := dcclient.Dial(s.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got, err := cl.Query(context.Background(), wideSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cols) != 3 || got.NumRows() != want.NumRows() || want.NumRows() < 1000 {
		t.Fatalf("%d columns of %d rows, want 3 of the node's %d", len(got.Cols), got.NumRows(), want.NumRows())
	}
	for i, c := range got.Cols {
		if h := c.Head(); !h.Dense() || h.Base() != 0 {
			t.Fatalf("column %q arrived with a %s head (dense %v, base %d)", got.Names[i], h.Kind(), h.Dense(), h.Base())
		}
		for row := 0; row < c.Len(); row++ {
			if g, w := c.Tail().Value(row), want.Cols[i].Tail().Value(row); g != w {
				t.Fatalf("column %q row %d: %v, want %v", got.Names[i], row, g, w)
			}
		}
	}
}

// TestFetchExitsOutliveUnpin: a fetch exit's merge reads every
// fragment after its part unpinned it (bat.FetchAll). On a ring whose
// cache is far below the working set, fragments arrive by circulation
// and are released at unpin, and a test binary poisons every slab it
// recycles: a merge that read one past the query's grace period would
// serve poison. Two sessions run the wide projection at once, and every
// answer matches the local reference cell for cell.
func TestFetchExitsOutliveUnpin(t *testing.T) {
	db := tpch.GenDB(0.002, 1)
	cfg := live.DefaultConfig()
	cfg.FragmentRows, cfg.CacheBytes = 1000, 8<<10
	r, err := live.NewRing(3, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := server.Serve(r, server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plan, err := minisql.Compile(wideSQL, db.Schema(), "sys")
	if err != nil {
		t.Fatal(err)
	}
	dc, _, err := dcopt.Rewrite(plan)
	if err != nil {
		t.Fatal(err)
	}
	local := &maltest.FragDC{Cols: db.ColumnMap(), Cuts: maltest.EveryRows(cfg.FragmentRows)}
	ref, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: local}, dc)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.(*mal.ResultSet)
	var wg sync.WaitGroup
	for session := 0; session < 2; session++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			cl, err := dcclient.Dial(s.Addr(session))
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for q := 0; q < 6; q++ {
				got, err := cl.Query(context.Background(), wideSQL)
				if err != nil {
					t.Errorf("session %d, query %d: %v", session, q, err)
					return
				}
				if err := sameCells(got, want); err != nil {
					t.Errorf("session %d, query %d: %v", session, q, err)
					return
				}
			}
		}(session)
	}
	wg.Wait()
	var cs live.CacheStats
	for i := 0; i < r.Size(); i++ {
		cs.Merge(r.Node(i).CacheStats())
	}
	if cs.RingWaits == 0 || cs.Evictions == 0 {
		t.Fatalf("no fragment circulated past a full cache (%d ring waits, %d evictions)", cs.RingWaits, cs.Evictions)
	}
}

// TestServedResultsSurviveRecycling: a served result's merged columns
// and its masks' bitmaps go back to their pools once its frame is
// written, and a test binary poisons each buffer it takes back. Two
// sessions alternate wide projections that keep about half, a twelfth
// and nearly all of lineitem's rows, and Q6ish, whose fused select and
// sum gathers kept codes into scratch from the same pools (and, on a
// host without VBMI2, sums and counts at bitmaps from the arena), so
// buffers of several lengths cycle between queries of both; a buffer
// released before its frame was written, or released twice and drawn
// by two queries at once, or a bitmap recycled while a part still reads
// it, would serve poison or the other query's rows.
// Every answer matches the local reference cell for cell.
func TestServedResultsSurviveRecycling(t *testing.T) {
	const rounds = 50
	db := tpch.GenDB(0.002, 1)
	cfg := live.DefaultConfig()
	cfg.FragmentRows = 1000
	r, err := live.NewRing(3, db.ColumnMap(), db.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, err := server.Serve(r, server.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sqls := []string{wideSQL,
		"select l_orderkey, l_suppkey, l_extendedprice from lineitem where l_quantity < 5",
		"select l_orderkey, l_suppkey, l_extendedprice from lineitem where l_quantity < 50",
		tpch.Q6ishSQL}
	wants := make([]*mal.ResultSet, len(sqls))
	for i, sql := range sqls {
		plan, err := minisql.Compile(sql, db.Schema(), "sys")
		if err != nil {
			t.Fatal(err)
		}
		dc, _, err := dcopt.Rewrite(plan)
		if err != nil {
			t.Fatal(err)
		}
		local := &maltest.FragDC{Cols: db.ColumnMap(), Cuts: maltest.EveryRows(cfg.FragmentRows)}
		ref, err := mal.Run(&mal.Context{Registry: mal.Standard(), DC: local}, dc)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = ref.(*mal.ResultSet)
	}
	var wg sync.WaitGroup
	for session := 0; session < 2; session++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			cl, err := dcclient.Dial(s.Addr(session))
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for q := 0; q < rounds; q++ {
				i := (q + session) % len(sqls)
				got, err := cl.Query(context.Background(), sqls[i])
				if err != nil {
					t.Errorf("session %d, round %d: %v", session, q, err)
					return
				}
				if err := sameCells(got, wants[i]); err != nil {
					t.Errorf("session %d, round %d (%s): %v", session, q, sqls[i], err)
					return
				}
			}
		}(session)
	}
	wg.Wait()
}

// sameCells reports the first cell where got differs from want.
func sameCells(got, want *mal.ResultSet) error {
	if len(got.Cols) != len(want.Cols) || got.NumRows() != want.NumRows() {
		return fmt.Errorf("%d columns of %d rows, want %d of %d", len(got.Cols), got.NumRows(), len(want.Cols), want.NumRows())
	}
	for i, c := range got.Cols {
		for row := 0; row < c.Len(); row++ {
			if g, w := c.Tail().Value(row), want.Cols[i].Tail().Value(row); g != w {
				return fmt.Errorf("column %q row %d: %v, want %v", got.Names[i], row, g, w)
			}
		}
	}
	return nil
}

// TestOversizedResultIsRefused: a result frame past MaxFrame is answered
// with CodeExec before a byte of it is written. Written, the client
// under the same limit would drop it as a transport error, retry and
// fail over, and every node would execute the query.
func TestOversizedResultIsRefused(t *testing.T) {
	const limit = 8 << 10
	cfg := server.DefaultConfig()
	cfg.MaxFrame = limit
	r, s := servedTPCH(t, cfg)
	clCfg := dcclient.DefaultConfig()
	clCfg.MaxFrame = limit
	cl, err := dcclient.DialConfig(s.Addr(0), clCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query(context.Background(), wideSQL)
	var re *server.RemoteError
	if !errors.As(err, &re) || re.Code != server.CodeExec {
		t.Fatalf("oversized result answered %v, want a CodeExec RemoteError", err)
	}
	accepted := int64(0)
	for i := 0; i < r.Size(); i++ {
		accepted += s.Stats(i).Accepted
	}
	if accepted != 1 {
		t.Fatalf("the query was accepted %d times across the ring, want once", accepted)
	}
	// The premise: the wide result's frame is past the limit.
	rs, err := r.Node(0).ExecSQL(wideSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, n, err := server.ResultVec(rs); err != nil || n <= limit {
		t.Fatalf("the wide result's frame is %d bytes (%v), want past the %d-byte limit", n, err, limit)
	}
	// The refusal leaves the connection in step: a scalar answers.
	if _, err := cl.Query(context.Background(), "select count(*) from lineitem"); err != nil {
		t.Fatalf("connection unusable after the refusal: %v", err)
	}
}

// TestUndeliveredResultIsFailed: a client that sends the wide query and
// hangs up with a reset never gets its result, so the node counts the
// query failed, not ok.
func TestUndeliveredResultIsFailed(t *testing.T) {
	_, s := servedTPCH(t, server.DefaultConfig())
	conn, err := net.Dial("tcp", s.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := server.WriteFrame(conn, server.FrameHello, []byte(server.Magic)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := server.ReadFrame(conn, server.DefaultMaxFrame); err != nil || typ != server.FrameHelloOK {
		t.Fatalf("handshake: frame %d, %v", typ, err)
	}
	if err := server.WriteFrame(conn, server.FrameQuery, []byte(wideSQL)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).SetLinger(0) // close sends a reset
	conn.Close()
	deadline := time.Now().Add(10 * time.Second)
	st := s.Stats(1)
	for st.OK+st.Failed == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		st = s.Stats(1)
	}
	if st.Accepted != 1 || st.OK != 0 || st.Failed != 1 {
		t.Fatalf("accepted %d, ok %d, failed %d; want the undelivered query failed", st.Accepted, st.OK, st.Failed)
	}
}
