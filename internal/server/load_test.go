package server_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dcclient"
	"repro/internal/live"
	"repro/internal/server"
)

// TestConcurrentClientsOverTCPRing drives many simultaneous dcclient
// sessions across all nodes of a ring whose *internal* transport is
// also real TCP: the full network path, concurrently, race-detector
// clean. Every client must get either a correct result or a clean
// admission rejection, and the per-node in-flight peak must respect the
// configured cap.
func TestConcurrentClientsOverTCPRing(t *testing.T) {
	ringCfg := live.DefaultConfig()
	srvCfg := server.DefaultConfig()
	srvCfg.MaxInFlight = 4
	srvCfg.MaxQueue = 8
	r, s := servedRing(t, 3, ringCfg, srvCfg)

	const sql = "select c.t_id from t, c where c.t_id = t.id"
	want, err := r.Node(0).ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := want.Rows()

	const clients = 64
	const perClient = 3
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		okCount  int
		rejected int
		failures []string
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := dcclient.Dial(s.Addr(i % r.Size()))
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("client %d dial: %v", i, err))
				mu.Unlock()
				return
			}
			defer cl.Close()
			for k := 0; k < perClient; k++ {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				rs, err := cl.Query(ctx, sql)
				cancel()
				switch {
				case err == nil:
					if !sameRowMultiset(rs.Rows(), wantRows) {
						mu.Lock()
						failures = append(failures, fmt.Sprintf("client %d: wrong result %v", i, rs.Rows()))
						mu.Unlock()
						return
					}
					mu.Lock()
					okCount++
					mu.Unlock()
				case dcclient.IsRejected(err):
					mu.Lock()
					rejected++
					mu.Unlock()
				default:
					mu.Lock()
					failures = append(failures, fmt.Sprintf("client %d: %v", i, err))
					mu.Unlock()
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("%d failures, first: %s", len(failures), failures[0])
	}
	if okCount == 0 {
		t.Fatal("no query succeeded")
	}
	if okCount+rejected != clients*perClient {
		t.Fatalf("accounting: ok=%d rejected=%d, want total %d", okCount, rejected, clients*perClient)
	}
	for i := 0; i < r.Size(); i++ {
		st := s.Stats(i)
		if st.MaxInFlight > int64(srvCfg.MaxInFlight) {
			t.Fatalf("node %d: in-flight peaked at %d, cap %d", i, st.MaxInFlight, srvCfg.MaxInFlight)
		}
		// The server decrements the gauge after flushing the result (so a
		// drain never tears down a buffered answer): a client can hold its
		// answer an instant before the gauge drops.
		for deadline := time.Now().Add(5 * time.Second); st.InFlight != 0; st = s.Stats(i) {
			if time.Now().After(deadline) {
				t.Fatalf("node %d: %d queries still in flight", i, st.InFlight)
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Logf("ok=%d rejected=%d", okCount, rejected)
	for i := 0; i < r.Size(); i++ {
		t.Logf("node %d: %s", i, s.Stats(i))
	}
}

// sameRowMultiset compares results ignoring row order.
func sameRowMultiset(a, b [][]any) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r []any) string { return fmt.Sprint(r) }
	count := map[string]int{}
	for _, r := range a {
		count[key(r)]++
	}
	for _, r := range b {
		count[key(r)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}
