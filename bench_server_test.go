package datacyclotron

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dcclient"
	"repro/internal/live"
	"repro/internal/server"
	"repro/internal/tpch"
)

// BenchmarkServerThroughput measures the network query service end to
// end: TPC-H data partitioned over a 4-node live ring, every node
// served over TCP, and pooled clients firing the Q6-style selective
// aggregate concurrently through the full protocol path (admission,
// plan cache, execution, result serialization). The sub-benchmarks
// compare whole-column circulation against horizontal fragmentation
// (lineitem splits into several independently circulating fragments,
// pinned out of order and scanned per fragment).
func BenchmarkServerThroughput(b *testing.B) {
	b.Run("unfragmented", func(b *testing.B) { benchServerThroughput(b, 0) })
	b.Run("frag512", func(b *testing.B) { benchServerThroughput(b, 512) })
}

func benchServerThroughput(b *testing.B, fragmentRows int) {
	db := tpch.GenDB(0.0005, 1)
	columns := db.ColumnMap()
	cfg := live.DefaultConfig()
	cfg.FragmentRows = fragmentRows
	ring, err := live.NewRing(4, columns, db.Schema(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer ring.Close()
	srv, err := server.Serve(ring, server.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	// One pooled client per node, handed out round-robin to the
	// benchmark's parallel workers.
	clients := make([]*dcclient.Client, ring.Size())
	for i := range clients {
		clients[i], err = dcclient.Dial(srv.Addr(i))
		if err != nil {
			b.Fatal(err)
		}
		defer clients[i].Close()
	}
	var nextClient int
	var pickMu sync.Mutex
	pick := func() *dcclient.Client {
		pickMu.Lock()
		cl := clients[nextClient%len(clients)]
		nextClient++
		pickMu.Unlock()
		return cl
	}

	ctx := context.Background()
	b.SetParallelism(4) // 4 client goroutines per CPU: keep admission slots busy
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cl := pick()
		for pb.Next() {
			rs, err := cl.Query(ctx, tpch.Q6ishSQL)
			if err != nil {
				b.Fatal(err)
			}
			if rs.NumRows() != 1 {
				b.Fatalf("rows = %d", rs.NumRows())
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(ring.HopStats().MaxMsg), "maxhop-bytes")
}
