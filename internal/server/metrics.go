// Prometheus-style text exposition of the query service's counters.
// The server already aggregates everything a scraper wants into
// NodeStats (admission, plan cache, fragment cache, hop transport, wire
// syscalls, membership, latency quantiles); this file renders those
// snapshots in the text format any Prometheus-compatible collector can
// ingest, on a separate listener so scrapes never compete with query
// traffic for protocol framing or admission slots. The same listener
// serves net/http/pprof under /debug/pprof/, so a running node can be
// profiled in place.

package server

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// metricsServer is the optional /metrics HTTP listener.
type metricsServer struct {
	ln  net.Listener
	srv *http.Server
}

func (m *metricsServer) close() {
	// http.Server.Close shuts the listener and every open scrape
	// connection; the Serve goroutine (counted in Server.wg) exits.
	m.srv.Close()
}

// startMetrics binds the /metrics and /debug/pprof/ endpoints when
// Config.MetricsAddr is set. Called once from Serve before the server is
// handed to the caller; the metrics handler snapshots node state per
// scrape, so nodes added later by ServeNode appear automatically.
func (s *Server) startMetrics() error {
	if s.cfg.MetricsAddr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", s.cfg.MetricsAddr)
	if err != nil {
		return fmt.Errorf("server: metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.metrics = &metricsServer{ln: ln, srv: &http.Server{Handler: mux}}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.metrics.srv.Serve(ln)
	}()
	return nil
}

// MetricsAddr reports the bound address of the /metrics listener, or ""
// when the endpoint is disabled.
func (s *Server) MetricsAddr() string {
	if s.metrics == nil {
		return ""
	}
	return s.metrics.ln.Addr().String()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b bytes.Buffer
	s.renderMetrics(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}

// renderMetrics writes the text-format exposition of every served
// node's counters, labelled by ring position.
func (s *Server) renderMetrics(b *bytes.Buffer) {
	nodes := s.nodeServers()
	stats := make([]NodeStats, len(nodes))
	for i := range nodes {
		stats[i] = s.Stats(i)
	}
	head := func(name, typ, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	// line emits one sample; extra is appended inside the label braces.
	line := func(name string, i int, extra string, v any) {
		fmt.Fprintf(b, "%s{node=\"%d\"%s} %v\n", name, i, extra, v)
	}

	head("dc_queries_total", "counter", "Queries by admission/execution outcome.")
	for i, st := range stats {
		for _, oc := range []struct {
			name string
			v    int64
		}{{"ok", st.OK}, {"failed", st.Failed}, {"rejected", st.Rejected}, {"drained", st.Drained}} {
			line("dc_queries_total", i, fmt.Sprintf(",outcome=%q", oc.name), oc.v)
		}
	}
	head("dc_inflight_queries", "gauge", "Queries executing right now.")
	for i, st := range stats {
		line("dc_inflight_queries", i, "", st.InFlight)
	}
	head("dc_queued_queries", "gauge", "Queries waiting for an execution slot.")
	for i, st := range stats {
		line("dc_queued_queries", i, "", st.Queued)
	}
	head("dc_plan_cache_total", "counter", "Plan cache lookups by result.")
	for i, st := range stats {
		line("dc_plan_cache_total", i, `,result="hit"`, st.PlanCacheHits)
		line("dc_plan_cache_total", i, `,result="miss"`, st.PlanCacheMisses)
	}
	head("dc_frag_cache_total", "counter", "Hot-set fragment cache pins by result.")
	for i, st := range stats {
		for _, rc := range []struct {
			name string
			v    int64
		}{{"hit", st.Cache.Hits}, {"miss", st.Cache.Misses}, {"stale", st.Cache.Stale}} {
			line("dc_frag_cache_total", i, fmt.Sprintf(",result=%q", rc.name), rc.v)
		}
	}
	head("dc_frag_cache_bytes", "gauge", "Bytes held by the fragment cache.")
	for i, st := range stats {
		line("dc_frag_cache_bytes", i, "", st.Cache.Bytes)
	}
	head("dc_ring_wait_seconds_total", "counter", "Cumulative time pins blocked on ring circulation.")
	for i, st := range stats {
		line("dc_ring_wait_seconds_total", i, "", time.Duration(st.Cache.RingWaitNanos).Seconds())
	}
	head("dc_hop_messages_total", "counter", "Wire messages sent by the hop scheduler.")
	for i, st := range stats {
		line("dc_hop_messages_total", i, "", st.Hop.Msgs)
	}
	head("dc_hop_fragments_total", "counter", "Fragments forwarded by the hop scheduler.")
	for i, st := range stats {
		line("dc_hop_fragments_total", i, "", st.Hop.Frags)
	}
	head("dc_hop_bytes_total", "counter", "Payload bytes moved by the hop scheduler.")
	for i, st := range stats {
		line("dc_hop_bytes_total", i, "", st.Hop.Bytes)
	}
	head("dc_wire_syscalls_total", "counter", "Reads and writes issued on the data links (a lower bound of syscalls).")
	for i, st := range stats {
		line("dc_wire_syscalls_total", i, "", st.Hop.WireSyscalls)
	}
	head("dc_query_latency_seconds", "gauge", "Completed-query latency quantiles.")
	for i, st := range stats {
		line("dc_query_latency_seconds", i, `,quantile="0.5"`, st.P50.Seconds())
		line("dc_query_latency_seconds", i, `,quantile="0.95"`, st.P95.Seconds())
		line("dc_query_latency_seconds", i, `,quantile="0.99"`, st.P99.Seconds())
	}
	head("dc_query_latency_count", "counter", "Completed queries observed by the latency histogram.")
	for i, st := range stats {
		line("dc_query_latency_count", i, "", st.Count)
	}
}
