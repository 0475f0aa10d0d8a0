package server_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"reflect"
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
		`dc_queries_total{node="0",outcome="ok"} 1`,
		`dc_queries_total{node="1",outcome="ok"} 0`,
		`dc_query_latency_count{node="0"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, text)
		}
	}

	// Every family keeps its name, type and label sets: one sample per
	// node for each label suffix listed.
	families := []struct {
		name, typ string
		labels    []string
	}{
		{"dc_queries_total", "counter", []string{`,outcome="ok"`, `,outcome="failed"`, `,outcome="rejected"`, `,outcome="drained"`}},
		{"dc_inflight_queries", "gauge", []string{""}},
		{"dc_queued_queries", "gauge", []string{""}},
		{"dc_plan_cache_total", "counter", []string{`,result="hit"`, `,result="miss"`}},
		{"dc_frag_cache_total", "counter", []string{`,result="hit"`, `,result="miss"`, `,result="stale"`}},
		{"dc_frag_cache_bytes", "gauge", []string{""}},
		{"dc_ring_wait_seconds_total", "counter", []string{""}},
		{"dc_hop_messages_total", "counter", []string{""}},
		{"dc_hop_fragments_total", "counter", []string{""}},
		{"dc_hop_bytes_total", "counter", []string{""}},
		{"dc_wire_syscalls_total", "counter", []string{""}},
		{"dc_query_latency_seconds", "gauge", []string{`,quantile="0.5"`, `,quantile="0.95"`, `,quantile="0.99"`}},
		{"dc_query_latency_count", "counter", []string{""}},
	}
	want := map[string]bool{}
	for _, f := range families {
		want["# TYPE "+f.name+" "+f.typ] = true
		for node := 0; node < 2; node++ {
			for _, l := range f.labels {
				want[fmt.Sprintf("%s{node=\"%d\"%s}", f.name, node, l)] = true
			}
		}
	}
	got := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			got[line] = true
		case !strings.HasPrefix(line, "#"):
			series, _, _ := strings.Cut(line, " ")
			got[series] = true
		}
	}
	if !reflect.DeepEqual(got, want) {
		for k := range want {
			if !got[k] {
				t.Errorf("scrape missing %s", k)
			}
		}
		for k := range got {
			if !want[k] {
				t.Errorf("scrape has unexpected %s", k)
			}
		}
		t.Fatalf("scrape:\n%s", text)
	}

	// Hops moved fragments for the join-free scan too; the wire counters
	// must be plumbed through (nonzero on at least one node).
	var sys int64
	for i := 0; i < 2; i++ {
		sys += s.Stats(i).Hop.WireSyscalls
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
