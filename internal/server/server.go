// Package server is the network front door of the live Data Cyclotron
// ring: one TCP listener per node speaking a length-prefixed binary
// protocol (see proto.go). The paper's §4 architecture lets queries
// settle on any node; this layer adds what production traffic needs on
// top of that — per-node admission control (a bounded in-flight slot
// pool with a FIFO wait queue and queue-depth rejection), a plan cache
// so hot SQL skips compilation and the DC rewrite, per-query latency
// and outcome counters, and graceful drain on shutdown.
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/dcopt"
	"repro/internal/live"
	"repro/internal/mal"
	"repro/internal/metrics"
	"repro/internal/minisql"
)

// Config tunes the query service.
type Config struct {
	// Addr is the base listen address. Port 0 gives every node an
	// ephemeral port (Addrs reports what was bound); a concrete port P
	// serves node i on P+i.
	Addr string
	// MaxInFlight bounds concurrently executing queries per node.
	MaxInFlight int
	// MaxQueue bounds queries waiting for a slot per node; arrivals
	// beyond it are rejected immediately.
	MaxQueue int
	// PlanCacheSize bounds cached compiled plans per node. 0 picks the
	// default; a negative value disables the cache (every query
	// compiles, no hit/miss stats are counted).
	PlanCacheSize int
	// MaxFrame bounds a single protocol frame.
	MaxFrame int
	// DrainTimeout bounds how long Close waits for in-flight queries.
	DrainTimeout time.Duration
	// MetricsAddr, when non-empty, serves the per-node counters in
	// Prometheus text format at http://MetricsAddr/metrics (port 0
	// binds an ephemeral port; MetricsAddr() reports it). Empty
	// disables the endpoint.
	MetricsAddr string
}

// DefaultConfig suits loopback serving.
func DefaultConfig() Config {
	return Config{
		Addr:          "127.0.0.1:0",
		MaxInFlight:   8,
		MaxQueue:      64,
		PlanCacheSize: 128,
		MaxFrame:      DefaultMaxFrame,
		DrainTimeout:  10 * time.Second,
	}
}

// NodeStats snapshots one node server's counters.
type NodeStats struct {
	Accepted int64 // queries that got an execution slot
	OK       int64 // completed successfully
	Failed   int64 // compile or execution error
	Rejected int64 // bounced by the full wait queue
	Drained  int64 // bounced because the server was draining

	InFlight    int64 // executing right now
	MaxInFlight int64 // peak concurrent executions observed
	Queued      int64 // waiting for a slot right now

	PlanCacheHits   int64
	PlanCacheMisses int64

	// The served ring node's own snapshots, whole: hot-set cache and
	// ring waits, hop transport and wire syscalls, membership and
	// failover. The stats frame carries them as nested objects; fold
	// several nodes' snapshots with their Merge methods.
	Cache live.CacheStats
	Hop   live.HopStats
	Memb  live.MembershipStats

	// Latency quantiles over completed queries (OK + Failed).
	Count               int64
	Mean, P50, P95, P99 time.Duration
}

func (s NodeStats) String() string {
	return fmt.Sprintf("accepted=%d ok=%d failed=%d rejected=%d drained=%d inflight=%d/%d(max) plancache=%d/%d hotcache=%d/%d ringwait=%s hop=%d/%dmsg parked=%d p50=%s p95=%s p99=%s",
		s.Accepted, s.OK, s.Failed, s.Rejected, s.Drained, s.InFlight, s.MaxInFlight,
		s.PlanCacheHits, s.PlanCacheHits+s.PlanCacheMisses,
		s.Cache.Hits, s.Cache.Hits+s.Cache.Misses, time.Duration(s.Cache.RingWaitNanos),
		s.Hop.Frags, s.Hop.Msgs, s.Hop.Parked,
		s.P50, s.P95, s.P99)
}

// Server serves every node of a live ring.
type Server struct {
	cfg   Config
	ring  *live.Ring
	drain chan struct{}

	// nodesMu guards nodes: the slice grows at runtime when ServeNode
	// brings a joined ring node online (live.Ring.Join).
	nodesMu sync.RWMutex
	nodes   []*nodeServer

	// metrics is the optional /metrics HTTP listener (nil unless
	// Config.MetricsAddr was set); see metrics.go.
	metrics *metricsServer

	wg        sync.WaitGroup // accept loops + connection handlers
	closeOnce sync.Once
	closeErr  error
}

// nodeServer is the per-node listener and its serving state.
type nodeServer struct {
	srv    *Server
	node   *live.Node
	nodeID int // position on ring
	schema minisql.Schema
	ln     net.Listener
	adm    *admission
	cache  *planCache

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	accepted metrics.Counter
	ok       metrics.Counter
	failed   metrics.Counter
	rejected metrics.Counter
	drained  metrics.Counter
	inFlight metrics.Gauge
	latency  *metrics.SyncHistogram
}

// Serve starts one TCP listener per ring node and returns immediately;
// queries arriving at node i's address execute on node i (and fragments
// flow to it around the ring as usual).
func Serve(ring *live.Ring, cfg Config) (*Server, error) {
	s := &Server{cfg: normalizeConfig(cfg), ring: ring, drain: make(chan struct{})}
	for i := 0; i < ring.Size(); i++ {
		if err := s.addNode(i); err != nil {
			s.Close()
			return nil, err
		}
	}
	if err := s.startMetrics(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// normalizeConfig fills config defaults.
func normalizeConfig(cfg Config) Config {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultConfig().MaxInFlight
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.PlanCacheSize == 0 {
		cfg.PlanCacheSize = DefaultConfig().PlanCacheSize
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultConfig().DrainTimeout
	}
	return cfg
}

// addNode binds a listener for ring node nodeID and starts its accept
// loop.
func (s *Server) addNode(nodeID int) error {
	addr, err := nodeAddr(s.cfg.Addr, nodeID)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: node %d: %w", nodeID, err)
	}
	node := s.ring.Node(nodeID)
	ns := &nodeServer{
		srv:     s,
		node:    node,
		nodeID:  nodeID,
		schema:  node.Schema(),
		ln:      ln,
		adm:     newAdmission(s.cfg.MaxInFlight, s.cfg.MaxQueue),
		cache:   newPlanCache(s.cfg.PlanCacheSize),
		conns:   map[net.Conn]struct{}{},
		latency: metrics.NewSyncHistogram(fmt.Sprintf("node%d.latency", nodeID), 0.0001),
	}
	s.nodes = append(s.nodes, ns)
	s.wg.Add(1)
	go ns.acceptLoop()
	return nil
}

// nodeAddr derives node i's listen address from the base address: an
// ephemeral base (port 0) is shared as-is, a concrete port P becomes
// P+i so a multi-node ring can be served on fixed, predictable ports.
func nodeAddr(base string, i int) (string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return "", fmt.Errorf("server: bad listen address %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("server: bad listen port %q: %w", portStr, err)
	}
	if port == 0 {
		return base, nil
	}
	return net.JoinHostPort(host, strconv.Itoa(port+i)), nil
}

// Addr reports the bound address of node i's listener.
func (s *Server) Addr(i int) string {
	s.nodesMu.RLock()
	defer s.nodesMu.RUnlock()
	return s.nodes[i].ln.Addr().String()
}

// Addrs reports every node's bound address, in ring order.
func (s *Server) Addrs() []string {
	s.nodesMu.RLock()
	defer s.nodesMu.RUnlock()
	out := make([]string, len(s.nodes))
	for i, ns := range s.nodes {
		out[i] = ns.ln.Addr().String()
	}
	return out
}

// nodeServers snapshots the per-node listener list.
func (s *Server) nodeServers() []*nodeServer {
	s.nodesMu.RLock()
	defer s.nodesMu.RUnlock()
	return append([]*nodeServer(nil), s.nodes...)
}

// ServeNode starts a listener for ring node i, a node admitted after
// Serve by live.Ring.Join. Listeners must be added in ring order (node
// i right after node i-1); the bound address is returned. Subsequent
// handshakes on every node advertise the grown address list, so
// clients learn the newcomer on their next natural refresh.
func (s *Server) ServeNode(i int) (string, error) {
	s.nodesMu.Lock()
	defer s.nodesMu.Unlock()
	// Checked under nodesMu: Close snapshots the node list under the
	// same lock, so a node added here is either seen by Close's
	// teardown or refused below — never leaked.
	select {
	case <-s.drain:
		return "", fmt.Errorf("server: draining")
	default:
	}
	if i < 0 || i >= s.ring.Size() {
		return "", fmt.Errorf("server: no ring node %d", i)
	}
	if i < len(s.nodes) {
		return "", fmt.Errorf("server: node %d already served", i)
	}
	if i != len(s.nodes) {
		return "", fmt.Errorf("server: node %d out of order (next is %d)", i, len(s.nodes))
	}
	if err := s.addNode(i); err != nil {
		return "", err
	}
	return s.nodes[len(s.nodes)-1].ln.Addr().String(), nil
}

// Stats snapshots node i's serving counters.
func (s *Server) Stats(i int) NodeStats {
	s.nodesMu.RLock()
	ns := s.nodes[i]
	s.nodesMu.RUnlock()
	hits, misses := ns.cache.stats()
	st := NodeStats{
		Accepted:        ns.accepted.Get(),
		OK:              ns.ok.Get(),
		Failed:          ns.failed.Get(),
		Rejected:        ns.rejected.Get(),
		Drained:         ns.drained.Get(),
		InFlight:        ns.inFlight.Get(),
		MaxInFlight:     ns.inFlight.Max(),
		Queued:          ns.adm.queued(),
		PlanCacheHits:   hits,
		PlanCacheMisses: misses,
		Cache:           ns.node.CacheStats(),
		Hop:             ns.node.HopStats(),
		Memb:            ns.node.MembershipStats(),
		Count:           int64(ns.latency.Count()),
	}
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	st.Mean = sec(ns.latency.Mean())
	st.P50 = sec(ns.latency.Quantile(0.50))
	st.P95 = sec(ns.latency.Quantile(0.95))
	st.P99 = sec(ns.latency.Quantile(0.99))
	return st
}

// KillNode crashes the service of node i: its listener and open
// connections are torn down, so clients see connection failures, not
// graceful errors, and then the ring node dies (silently, as a real
// crash — survivors must detect it through missed heartbeats). The
// connections go first: a query the dying node was running fails with
// "ring closed", and that answer must not reach a client as an
// execution error instead of the hang-up it fails over on. The rest of
// the server keeps serving.
func (s *Server) KillNode(i int) {
	s.nodesMu.RLock()
	ns := s.nodes[i]
	s.nodesMu.RUnlock()
	ns.ln.Close()
	ns.connMu.Lock()
	for c := range ns.conns {
		c.Close()
	}
	ns.connMu.Unlock()
	s.ring.KillNode(ns.nodeID)
}

// Close drains and shuts the server down: new queries are refused with
// CodeDraining at once, in-flight queries get up to DrainTimeout to
// finish, then all listeners and connections close. It does not close
// the ring. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.drain)
		if s.metrics != nil {
			s.metrics.close()
		}
		nodes := s.nodeServers()
		for _, ns := range nodes {
			ns.ln.Close()
		}
		deadline := time.Now().Add(s.cfg.DrainTimeout)
		for time.Now().Before(deadline) {
			busy := false
			for _, ns := range nodes {
				// Admission slots, not the stats gauge: the slot is held
				// from the admit operation itself until the response is
				// flushed, so no just-admitted query can slip past drain.
				if ns.adm.inUse() > 0 {
					busy = true
					break
				}
			}
			if !busy {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		for _, ns := range nodes {
			ns.connMu.Lock()
			for c := range ns.conns {
				c.Close()
			}
			ns.connMu.Unlock()
		}
		s.wg.Wait()
	})
	return s.closeErr
}

func (ns *nodeServer) acceptLoop() {
	defer ns.srv.wg.Done()
	for {
		conn, err := ns.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Query traffic is strict request/response: the client blocks on
		// the frame we are about to send, so letting Nagle's algorithm
		// hold a small result or error frame behind an un-ACKed segment
		// only adds RTTs of latency. Flushes here mark complete protocol
		// frames — push them to the wire at once. (Go enables NODELAY by
		// default; set it explicitly so the latency contract survives a
		// stdlib default change and is visible in the code.)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		ns.connMu.Lock()
		ns.conns[conn] = struct{}{}
		ns.connMu.Unlock()
		ns.srv.wg.Add(1)
		go ns.handle(conn)
	}
}

func (ns *nodeServer) dropConn(conn net.Conn) {
	ns.connMu.Lock()
	delete(ns.conns, conn)
	ns.connMu.Unlock()
	conn.Close()
}

// handle speaks the protocol on one connection: handshake, then a
// query/response loop until the client goes away.
func (ns *nodeServer) handle(conn net.Conn) {
	defer ns.srv.wg.Done()
	defer ns.dropConn(conn)
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	typ, payload, err := ReadFrame(br, len(Magic)) // the only valid hello
	if err != nil || typ != FrameHello || string(payload) != Magic {
		WriteFrame(bw, FrameError, EncodeError(CodeBadRequest, "bad handshake"))
		bw.Flush()
		return
	}
	hello, err := EncodeHello(ns.buildHello())
	if err != nil {
		return
	}
	if err := WriteFrame(bw, FrameHelloOK, hello); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}

	for {
		typ, payload, err := readRequest(br, ns.srv.cfg.MaxFrame)
		if err != nil {
			return // client hung up (or drain force-closed us)
		}
		switch typ {
		case FrameQuery:
			ns.serveQuery(conn, bw, string(payload))
		case FrameStats:
			ns.serveStats(bw)
		default:
			WriteFrame(bw, FrameError, EncodeError(CodeBadRequest,
				fmt.Sprintf("unexpected frame type %d", typ)))
			bw.Flush()
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// buildHello assembles the handshake response: the ring's size, every
// node's address and liveness, and this node's membership view version.
func (ns *nodeServer) buildHello() Hello {
	ring := ns.srv.ring
	return Hello{
		Node:        ns.nodeID,
		Ring:        ring.Size(),
		MaxInFlight: ns.srv.cfg.MaxInFlight,
		ViewVersion: ns.node.MembershipStats().ViewVersion,
		Addrs:       ns.srv.Addrs(),
		Alive:       ring.AliveNodes(),
	}
}

// serveQuery admits, executes, and answers one query.
func (ns *nodeServer) serveQuery(conn net.Conn, bw *bufio.Writer, sql string) {
	if !ns.srv.ring.Alive(ns.nodeID) {
		// The ring declared this node dead (a failover it did not
		// initiate): its fragments have been re-owned elsewhere and its
		// ring links are cut, so any execution here would only produce
		// "ring closed" errors. Answer as a draining server — clients
		// treat that as "go ask a survivor" and fail over.
		ns.drained.Inc()
		WriteFrame(bw, FrameError, EncodeError(CodeDraining, "node declared dead by the ring"))
		return
	}
	switch err := ns.adm.acquire(ns.srv.drain); err {
	case nil:
	case errRejected:
		ns.rejected.Inc()
		WriteFrame(bw, FrameError, EncodeError(CodeRejected, "admission queue full"))
		return
	default: // errDraining
		ns.drained.Inc()
		WriteFrame(bw, FrameError, EncodeError(CodeDraining, "server draining"))
		return
	}
	ns.accepted.Inc()
	ns.inFlight.Inc()
	// The query counts as in flight until its answer is flushed: Close's
	// drain loop watches this gauge, and a completed query whose result
	// frame is still buffered must not have its connection torn down.
	defer func() {
		bw.Flush()
		ns.inFlight.Dec()
		ns.adm.release()
	}()
	start := time.Now()
	rs, err := ns.exec(sql)
	ns.latency.Observe(time.Since(start).Seconds())

	var frame net.Buffers
	if err == nil {
		// The frame carries the result columns' own memory: their pooled
		// buffers go back once it is written (TCP has copied every byte
		// by then, or never will), or once it is refused.
		defer rs.Release()
		frame, err = resultFrame(rs, ns.srv.cfg.MaxFrame)
	}
	if err != nil {
		ns.failed.Inc()
		WriteFrame(bw, FrameError, EncodeError(CodeExec, err.Error()))
		return
	}
	// bw is empty here (handle flushes after every answer), so the frame
	// goes straight to the socket, in one write. The query is counted ok
	// before it: a client that has read its whole result must find it
	// in the counters it scrapes next. A result the client never got is
	// a failed query, so a failed write moves it from ok to failed; the
	// broken connection is left to handle's next read.
	ns.ok.Inc()
	if _, err := frame.WriteTo(conn); err != nil {
		ns.ok.Add(-1)
		ns.failed.Inc()
	}
}

// resultFrame is the FrameResult for rs as one vectored write (writev):
// the frame header, then ResultVec's slices, the result columns' values
// among them uncopied. A frame past maxFrame is an error, found before a
// byte is written: a client reading under the same limit would drop it
// as a transport error and fail the query over to every other node.
func resultFrame(rs *mal.ResultSet, maxFrame int) (net.Buffers, error) {
	vecs, n, err := ResultVec(rs)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("result frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	hdr := frameHeader(FrameResult, n)
	return append(net.Buffers{hdr[:]}, vecs...), nil
}

// serveStats answers one FrameStats request with the node's current
// counters. Stats reads bypass admission: they are cheap, read-only,
// and most useful exactly when the admission queue is saturated.
func (ns *nodeServer) serveStats(bw *bufio.Writer) {
	payload, err := json.Marshal(ns.srv.Stats(ns.nodeID))
	if err != nil {
		WriteFrame(bw, FrameError, EncodeError(CodeExec, err.Error()))
		return
	}
	WriteFrame(bw, FrameStatsOK, payload)
}

// exec runs sql on this node, going through the plan cache: a hit skips
// both minisql.Compile and the DC rewrite.
func (ns *nodeServer) exec(sql string) (*mal.ResultSet, error) {
	plan, ok := ns.cache.get(sql)
	if !ok {
		compiled, err := minisql.Compile(sql, ns.schema, "sys")
		if err != nil {
			return nil, err
		}
		plan, _, err = dcopt.Rewrite(compiled)
		if err != nil {
			return nil, err
		}
		ns.cache.put(sql, plan)
	}
	return ns.node.ExecPlan(plan)
}
