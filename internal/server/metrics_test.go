package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/dcclient"
	"repro/internal/live"
	"repro/internal/server"
)

// A server with MetricsAddr set must answer HTTP scrapes with the
// Prometheus text format, reflecting queries that actually ran.
func TestMetricsScrape(t *testing.T) {
	ringCfg := live.DefaultConfig()
	srvCfg := server.DefaultConfig()
	srvCfg.MetricsAddr = "127.0.0.1:0"
	_, s := servedRing(t, 2, ringCfg, srvCfg)

	addr := s.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty with the endpoint enabled")
	}
	cl, err := dcclient.Dial(s.Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Query(context.Background(), "select name from t where id >= 2 order by name"); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE dc_queries_total counter",
		`dc_queries_total{node="0",outcome="ok"} 1`,
		`dc_queries_total{node="1",outcome="ok"} 0`,
		"# TYPE dc_wire_syscalls_total counter",
		"# TYPE dc_query_latency_seconds gauge",
		`dc_query_latency_count{node="0"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, text)
		}
	}
	// Hops moved fragments for the join-free scan too; the wire counters
	// must be plumbed through (nonzero on at least one node).
	var sys int64
	for i := 0; i < 2; i++ {
		sys += s.Stats(i).WireSyscalls
	}
	if sys == 0 {
		t.Fatal("WireSyscalls zero across all nodes of a TCP ring")
	}
}

// Without MetricsAddr the endpoint stays off and the server behaves as
// before.
func TestMetricsDisabledByDefault(t *testing.T) {
	_, s := servedRing(t, 2, live.DefaultConfig(), server.DefaultConfig())
	if addr := s.MetricsAddr(); addr != "" {
		t.Fatalf("MetricsAddr = %q on a server without metrics", addr)
	}
}

// The metrics listener serves pprof: a running node can be profiled in
// place. A server without the listener serves nothing of the kind.
func TestPprofOnMetricsListener(t *testing.T) {
	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	srvCfg := server.DefaultConfig()
	srvCfg.MetricsAddr = "127.0.0.1:0"
	_, s := servedRing(t, 2, live.DefaultConfig(), srvCfg)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1", "/debug/pprof/goroutine?debug=1"} {
		if code := get("http://" + s.MetricsAddr() + path); code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, code)
		}
	}
	// The disabled server binds no listener, and its client socket
	// speaks the query protocol, never HTTP.
	_, off := servedRing(t, 2, live.DefaultConfig(), server.DefaultConfig())
	if off.MetricsAddr() != "" {
		t.Fatal("a server without MetricsAddr bound a metrics listener")
	}
	client := http.Client{Timeout: 5 * time.Second}
	if _, err := client.Get("http://" + off.Addr(0) + "/debug/pprof/"); err == nil {
		t.Fatal("a server without MetricsAddr answered /debug/pprof/ over HTTP")
	}
}
