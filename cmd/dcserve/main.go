// Command dcserve starts a live Data Cyclotron ring over generated
// TPC-H-style data and serves every node over TCP: the network front
// door for external clients (see cmd/dcload for a matching driver).
//
// Usage:
//
//	dcserve -nodes 4 -sf 0.001
//	dcserve -nodes 4 -inflight 8 -queue 64
//
// It prints one "node <i>: <addr>" line per listener, then serves until
// SIGINT/SIGTERM, draining in-flight queries before exiting.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	dc "repro"
	"repro/internal/tpch"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 4, "ring size")
		sf       = flag.Float64("sf", 0.001, "TPC-H scale factor for the generated data")
		seed     = flag.Int64("seed", 1, "data generator seed")
		addr     = flag.String("addr", "127.0.0.1:0", "base listen address (port 0 = ephemeral per node; concrete port P serves node i on P+i)")
		inflight = flag.Int("inflight", 8, "max concurrently executing queries per node")
		queue    = flag.Int("queue", 64, "max queries waiting for a slot per node")
	)
	flag.Parse()

	db := tpch.GenDB(*sf, *seed)
	columns := db.ColumnMap()
	ring, err := dc.NewLiveRing(*nodes, columns, db.Schema(), dc.DefaultLiveConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcserve:", err)
		os.Exit(1)
	}
	defer ring.Close()

	srvCfg := dc.DefaultServerConfig()
	srvCfg.Addr = *addr
	srvCfg.MaxInFlight = *inflight
	srvCfg.MaxQueue = *queue
	srv, err := dc.Serve(ring, srvCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcserve:", err)
		os.Exit(1)
	}

	fmt.Printf("serving %d-node ring over TPC-H sf=%g (lineitem=%d rows)\n",
		ring.Size(), *sf, db.Rows("lineitem"))
	for i, a := range srv.Addrs() {
		fmt.Printf("node %d: %s\n", i, a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig

	fmt.Println("\ndraining...")
	srv.Close()
	if !ring.Quiesce(5 * time.Second) {
		fmt.Fprintln(os.Stderr, "dcserve: ring did not quiesce; closing anyway")
	}
	for i := 0; i < ring.Size(); i++ {
		fmt.Printf("node %d: %s\n", i, srv.Stats(i))
	}
}
