// Package dcclient is the Go client for the Data Cyclotron query
// service (internal/server): it dials a node's listener, performs the
// protocol handshake, and executes SQL with context-based timeouts.
// Connections are pooled and reused across queries; protocol-level
// errors (rejection, drain, query failure) keep the connection alive,
// transport errors discard it.
//
// The client treats its node address as a cache, not a binding: every
// handshake refreshes the ring's full address list and per-node
// liveness (the server's membership view), and when the home node
// dies mid-run the client fails the query over to a surviving node
// and rehomes there. Queries are read-only, so cross-node retry is
// sound; server-answered errors (RemoteError) are never retried, with
// one exception — a draining answer means "this node is leaving the
// ring", which is exactly when a survivor should get the query.
package dcclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/mal"
	"repro/internal/server"
)

// Config tunes a client.
type Config struct {
	// DialTimeout bounds establishing + handshaking a new connection
	// when the calling context has no deadline of its own.
	DialTimeout time.Duration
	// MaxIdle bounds pooled idle connections.
	MaxIdle int
	// MaxFrame bounds a single protocol frame (result sets included).
	MaxFrame int
	// FailoverRounds bounds how many full passes over surviving peers a
	// failed query makes before surfacing the original error. The first
	// pass is immediate; each further pass is preceded by an exponential
	// backoff, so transient whole-ring outages (a restart, a rolling
	// upgrade, a join in flight) get time to heal without the client
	// spinning on dead sockets.
	FailoverRounds int
	// FailoverBackoff is the base delay before the second failover pass;
	// pass k waits FailoverBackoff << (k-2), half-to-full jittered,
	// capped at 2s.
	FailoverBackoff time.Duration
}

// DefaultConfig suits loopback clients.
func DefaultConfig() Config {
	return Config{
		DialTimeout:     5 * time.Second,
		MaxIdle:         8,
		MaxFrame:        server.DefaultMaxFrame,
		FailoverRounds:  3,
		FailoverBackoff: 25 * time.Millisecond,
	}
}

// ErrClosed is returned by operations on a closed client.
var ErrClosed = errors.New("dcclient: client closed")

// Client talks to one node of a served ring, failing over to another
// when that node dies.
type Client struct {
	cfg Config

	mu     sync.Mutex
	addr   string       // current home address (rehomed on failover)
	hello  server.Hello // last good handshake: ring info + routing cache
	idle   []*conn
	closed bool
}

// conn is one established, handshaken connection.
type conn struct {
	c  net.Conn
	cr *countingReader
	br *bufio.Reader
	bw *bufio.Writer
	// reused marks a connection that came back from the idle pool: it
	// may have gone stale (server restart) since it was last used, so a
	// transport failure before any response byte is retried once on a
	// fresh connection.
	reused bool
}

// countingReader counts the bytes read off the socket, so the retry
// logic can tell "the connection died before the server said anything"
// from "a response was underway". A conn is owned by one query at a
// time, so no synchronization is needed.
type countingReader struct {
	r net.Conn
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// Dial connects to a node server and performs the handshake.
func Dial(addr string) (*Client, error) {
	return DialConfig(addr, DefaultConfig())
}

// DialConfig is Dial with explicit tuning.
func DialConfig(addr string, cfg Config) (*Client, error) {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = DefaultConfig().DialTimeout
	}
	if cfg.MaxIdle <= 0 {
		cfg.MaxIdle = DefaultConfig().MaxIdle
	}
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = server.DefaultMaxFrame
	}
	cl := &Client{addr: addr, cfg: cfg}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.DialTimeout)
	defer cancel()
	cn, err := cl.dial(ctx)
	if err != nil {
		return nil, err
	}
	cl.put(cn)
	return cl, nil
}

// Node reports the served node's handshake info (ring position, ring
// size, admission slots).
func (cl *Client) Node() server.Hello {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.hello
}

// Addr reports the server address this client currently talks to (the
// original Dial target, or the node it rehomed onto after a failover).
func (cl *Client) Addr() string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.addr
}

// Peers reports the routing cache from the last good handshake: every
// ring node's address and whether the serving node's membership view
// has it alive. Empty when the server predates the membership protocol.
func (cl *Client) Peers() (addrs []string, alive []bool) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return append([]string(nil), cl.hello.Addrs...), append([]bool(nil), cl.hello.Alive...)
}

// Query executes sql on the connected node, honouring ctx's deadline
// and cancellation for the whole round trip (including dialing a fresh
// connection when the pool is empty). The result's columns are what
// server.DecodeResult gives: a numeric one may be narrow and a string
// one dictionary codes, so read them through Int, Float, Str and Value,
// or widen them with bat.Widen.
//
// A pooled connection whose server restarted since it was last used
// fails on its first use; when that failure happens before a single
// response byte arrived (the idempotent point — TCP gives no ack
// visibility, so "nothing heard back" is the observable stand-in for
// "request not accepted", sound for this read-only query protocol),
// the query is retried exactly once on a freshly dialed connection.
//
// When the home node itself is gone — dial fails, or the retry dies on
// the wire too — the query fails over: surviving peers from the routing
// cache are tried in ring order, and the first one that answers becomes
// the new home. Deadline expiries and server-answered errors
// (RemoteError) are never retried anywhere — except a draining answer,
// which marks the node as leaving the ring and fails over like a dead
// connection.
func (cl *Client) Query(ctx context.Context, sql string) (*mal.ResultSet, error) {
	cn, err := cl.get(ctx)
	if err != nil {
		if errors.Is(err, ErrClosed) || ctx.Err() != nil {
			return nil, err
		}
		return cl.queryFailover(ctx, sql, err)
	}
	wasReused := cn.reused
	rs, err, preByte, transport := cl.run(ctx, cn, sql)
	if err == nil || !transport {
		return rs, err
	}
	if wasReused && preByte {
		fresh, derr := cl.freshConn(ctx)
		if derr == nil {
			rs, err, _, transport = cl.run(ctx, fresh, sql)
			if err == nil || !transport {
				return rs, err
			}
		}
	}
	return cl.queryFailover(ctx, sql, err)
}

// queryFailover retries sql against surviving peers after the home node
// failed with orig. Candidates come from the routing cache of the last
// good handshake, tried in ring order starting after the home position
// and skipping nodes the membership view has declared dead. The first
// peer whose handshake succeeds becomes the new home (its Hello also
// refreshes the cache); a server-answered error from it settles the
// query — the ring is alive, the query itself is the problem.
//
// Up to FailoverRounds full passes run; passes after the first wait an
// exponentially growing, jittered backoff first, re-snapshot the
// routing cache (a pass may have refreshed it via a handshake), and
// also reconsider the original home — a restarted node is a survivor
// too. If every pass comes up empty, the original failure stands.
func (cl *Client) queryFailover(ctx context.Context, sql string, orig error) (*mal.ResultSet, error) {
	rounds := cl.cfg.FailoverRounds
	if rounds <= 0 {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		if round > 0 && !cl.backoff(ctx, round) {
			return nil, orig
		}
		cl.mu.Lock()
		home := cl.addr
		homeIdx := cl.hello.Node
		addrs := append([]string(nil), cl.hello.Addrs...)
		alive := append([]bool(nil), cl.hello.Alive...)
		cl.mu.Unlock()
		if len(addrs) == 0 {
			return nil, orig // no routing cache: nothing to fail over to
		}
		if homeIdx < 0 || homeIdx >= len(addrs) {
			homeIdx = 0
		}
		for _, i := range failoverOrder(homeIdx, len(addrs)) {
			if ctx.Err() != nil {
				return nil, orig
			}
			if addrs[i] == home && round == 0 {
				continue // the home just failed; give it a round to recover
			}
			if i < len(alive) && !alive[i] && addrs[i] != home {
				continue
			}
			cn, err := cl.dialPeer(ctx, addrs[i])
			if err != nil {
				continue // unreachable too; try the next survivor
			}
			cl.rehome(addrs[i])
			rs, err, _, transport := cl.run(ctx, cn, sql)
			if err == nil || !transport {
				return rs, err
			}
		}
	}
	return nil, orig
}

// failoverOrder lists the candidate indexes of one failover pass: ring
// order starting after the home position, the home last.
func failoverOrder(homeIdx, n int) []int {
	order := make([]int, n)
	for k := range order {
		order[k] = (homeIdx + k + 1) % n
	}
	return order
}

// backoff sleeps the exponential delay preceding failover pass `round`
// (1-based over the waiting passes), honouring ctx. Half-to-full jitter
// de-synchronizes the retry herd of clients that all lost the same
// node. Reports false when ctx expired instead of the timer.
func (cl *Client) backoff(ctx context.Context, round int) bool {
	base := cl.cfg.FailoverBackoff
	if base <= 0 {
		base = DefaultConfig().FailoverBackoff
	}
	d := base << (round - 1)
	if max := 2 * time.Second; d > max {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// run performs one round trip on cn, settling the connection (pooled on
// protocol-level outcomes, closed on transport errors) and mapping
// context errors. preByte reports that the failure happened before any
// response byte arrived; transport reports a failure that justifies
// trying another node — a dead connection (neither a server-answered
// error nor a deadline), or a server that answered it is draining.
func (cl *Client) run(ctx context.Context, cn *conn, sql string) (rs *mal.ResultSet, err error, preByte, transport bool) {
	before := cn.cr.n
	rs, err = cn.roundTrip(ctx, cl.cfg.MaxFrame, sql)
	if err == nil {
		cl.put(cn)
		return rs, nil, false, false
	}
	var re *server.RemoteError
	if errors.As(err, &re) {
		if re.Code == server.CodeDraining {
			// The node is shutting down — or the ring declared it dead
			// and its server is refusing queries. The answer is
			// authoritative for this node but not for the query: it
			// deserves a survivor, so report it failover-eligible. The
			// connection has nothing more to offer.
			cn.c.Close()
			return nil, err, false, true
		}
		// The server answered; the connection is still in protocol.
		cl.put(cn)
		return nil, err, false, false
	}
	cn.c.Close()
	if ctx.Err() != nil {
		return nil, ctx.Err(), false, false
	}
	// The only socket deadline is the one mapped from ctx, so a
	// timeout is the context's deadline even when the socket clock
	// fired a moment before the context's own timer.
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if _, ok := ctx.Deadline(); ok {
			return nil, context.DeadlineExceeded, false, false
		}
		return nil, err, false, false
	}
	return nil, err, cn.cr.n == before, true
}

// Stats fetches the serving node's counters (queries, admission,
// plan-cache, hot-set cache, ring wait). Stats reads bypass server
// admission, so they work even when the node is saturated. Like Query,
// a pooled connection that died before any response byte (server
// restarted since last use) is retried exactly once on a fresh
// connection; stats reads are idempotent by nature.
func (cl *Client) Stats(ctx context.Context) (server.NodeStats, error) {
	var st server.NodeStats
	cn, err := cl.get(ctx)
	if err != nil {
		return st, err
	}
	wasReused := cn.reused
	st, err, retryable := cl.runStats(ctx, cn)
	if err == nil || !wasReused || !retryable {
		return st, err
	}
	fresh, derr := cl.freshConn(ctx)
	if derr != nil {
		return st, err // the original failure stands
	}
	st, err, _ = cl.runStats(ctx, fresh)
	return st, err
}

// runStats performs one stats round trip on cn, settling the connection
// the same way run does for queries. retryable reports a transport
// failure before any response byte and not through a deadline.
func (cl *Client) runStats(ctx context.Context, cn *conn) (st server.NodeStats, err error, retryable bool) {
	before := cn.cr.n
	st, err = cn.statsTrip(ctx, cl.cfg.MaxFrame)
	if err == nil {
		cl.put(cn)
		return st, nil, false
	}
	var re *server.RemoteError
	if errors.As(err, &re) {
		cl.put(cn) // the server answered; the connection is in protocol
		return st, err, false
	}
	cn.c.Close()
	if ctx.Err() != nil {
		return st, ctx.Err(), false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if _, ok := ctx.Deadline(); ok {
			return st, context.DeadlineExceeded, false
		}
		return st, err, false
	}
	return st, err, cn.cr.n == before
}

// statsTrip sends one FrameStats and reads its answer.
func (cn *conn) statsTrip(ctx context.Context, maxFrame int) (server.NodeStats, error) {
	var st server.NodeStats
	if d, ok := ctx.Deadline(); ok {
		cn.c.SetDeadline(d)
	} else {
		cn.c.SetDeadline(time.Time{})
	}
	if err := server.WriteFrame(cn.bw, server.FrameStats, nil); err != nil {
		return st, err
	}
	if err := cn.bw.Flush(); err != nil {
		return st, err
	}
	typ, payload, err := server.ReadFrame(cn.br, maxFrame)
	if err != nil {
		return st, err
	}
	switch typ {
	case server.FrameStatsOK:
		if err := json.Unmarshal(payload, &st); err != nil {
			return st, fmt.Errorf("dcclient: corrupt stats frame: %w", err)
		}
		return st, nil
	case server.FrameError:
		return st, server.DecodeError(payload)
	}
	return st, fmt.Errorf("dcclient: unexpected frame type %d", typ)
}

// freshConn always dials a new connection (never the pool), bounding
// the dial like get does when ctx carries no deadline.
func (cl *Client) freshConn(ctx context.Context) (*conn, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, ErrClosed
	}
	cl.mu.Unlock()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cl.cfg.DialTimeout)
		defer cancel()
	}
	return cl.dial(ctx)
}

// Refresh re-handshakes with the home node on a fresh connection,
// updating the routing cache (address list, liveness, view version)
// from its current membership view; the connection is then pooled. The
// cache otherwise refreshes only when a dial happens naturally — on an
// empty pool or a failover.
func (cl *Client) Refresh(ctx context.Context) error {
	cn, err := cl.freshConn(ctx)
	if err != nil {
		return err
	}
	cl.put(cn)
	return nil
}

// dialPeer dials a specific peer address with the same deadline
// bounding as freshConn.
func (cl *Client) dialPeer(ctx context.Context, addr string) (*conn, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, ErrClosed
	}
	cl.mu.Unlock()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cl.cfg.DialTimeout)
		defer cancel()
	}
	return cl.dialAddr(ctx, addr)
}

// rehome makes addr the client's home node: the idle pool (connections
// to the old home) is discarded, and subsequent queries dial addr.
func (cl *Client) rehome(addr string) {
	cl.mu.Lock()
	if cl.addr == addr {
		cl.mu.Unlock()
		return
	}
	cl.addr = addr
	idle := cl.idle
	cl.idle = nil
	cl.mu.Unlock()
	for _, cn := range idle {
		cn.c.Close()
	}
}

// Close releases all pooled connections.
func (cl *Client) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.closed = true
	for _, cn := range cl.idle {
		cn.c.Close()
	}
	cl.idle = nil
	return nil
}

// get pops a pooled connection or dials a new one.
func (cl *Client) get(ctx context.Context) (*conn, error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(cl.idle); n > 0 {
		cn := cl.idle[n-1]
		cl.idle = cl.idle[:n-1]
		cl.mu.Unlock()
		return cn, nil
	}
	cl.mu.Unlock()
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cl.cfg.DialTimeout)
		defer cancel()
	}
	return cl.dial(ctx)
}

// put returns a connection to the pool (or closes it when full/closed).
func (cl *Client) put(cn *conn) {
	cl.mu.Lock()
	if cl.closed || len(cl.idle) >= cl.cfg.MaxIdle {
		cl.mu.Unlock()
		cn.c.Close()
		return
	}
	cn.reused = true
	cl.idle = append(cl.idle, cn)
	cl.mu.Unlock()
}

// dial establishes and handshakes one connection to the current home
// address under ctx.
func (cl *Client) dial(ctx context.Context) (*conn, error) {
	return cl.dialAddr(ctx, cl.Addr())
}

// dialAddr establishes and handshakes one connection to addr under
// ctx. The handshake's Hello refreshes the routing cache.
func (cl *Client) dialAddr(ctx context.Context, addr string) (*conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dcclient: dial %s: %w", addr, err)
	}
	// The protocol is strict request/response — the client stalls on
	// every reply — so Nagle-delaying a small query frame costs an RTT
	// per round trip. Disable coalescing explicitly rather than relying
	// on Go's default, mirroring the server's accept side.
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	cr := &countingReader{r: c}
	cn := &conn{c: c, cr: cr, br: bufio.NewReader(cr), bw: bufio.NewWriter(c)}
	if d, ok := ctx.Deadline(); ok {
		c.SetDeadline(d)
	}
	if err := server.WriteFrame(cn.bw, server.FrameHello, []byte(server.Magic)); err != nil {
		c.Close()
		return nil, err
	}
	if err := cn.bw.Flush(); err != nil {
		c.Close()
		return nil, err
	}
	typ, payload, err := server.ReadFrame(cn.br, cl.cfg.MaxFrame)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("dcclient: handshake: %w", err)
	}
	if typ != server.FrameHelloOK {
		c.Close()
		if typ == server.FrameError {
			return nil, server.DecodeError(payload)
		}
		return nil, fmt.Errorf("dcclient: handshake got frame type %d", typ)
	}
	hello, err := server.DecodeHello(payload)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("dcclient: handshake: %w", err)
	}
	c.SetDeadline(time.Time{})
	cl.mu.Lock()
	cl.hello = hello
	cl.mu.Unlock()
	return cn, nil
}

// roundTrip sends one query and reads its answer, mapping ctx's
// deadline and cancellation onto the socket.
func (cn *conn) roundTrip(ctx context.Context, maxFrame int, sql string) (*mal.ResultSet, error) {
	if d, ok := ctx.Deadline(); ok {
		cn.c.SetDeadline(d)
	} else {
		cn.c.SetDeadline(time.Time{})
	}
	if done := ctx.Done(); done != nil {
		stop := make(chan struct{})
		exited := make(chan struct{})
		go func() {
			defer close(exited)
			select {
			case <-done:
				// Wake any blocked read/write; Query maps the resulting
				// I/O error back onto ctx.Err().
				cn.c.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
		// Join the watcher before returning: a fire-and-forget goroutine
		// could otherwise poison this connection's deadline after it has
		// been pooled and picked up by an unrelated query.
		defer func() {
			close(stop)
			<-exited
		}()
	}
	if err := server.WriteFrame(cn.bw, server.FrameQuery, []byte(sql)); err != nil {
		return nil, err
	}
	if err := cn.bw.Flush(); err != nil {
		return nil, err
	}
	typ, payload, err := server.ReadFrame(cn.br, maxFrame)
	if err != nil {
		return nil, err
	}
	switch typ {
	case server.FrameResult:
		return server.DecodeResult(payload)
	case server.FrameError:
		return nil, server.DecodeError(payload)
	}
	return nil, fmt.Errorf("dcclient: unexpected frame type %d", typ)
}

// IsTemporary reports whether err is a server-side pushback (admission
// rejection or drain) that may succeed on retry.
func IsTemporary(err error) bool {
	var re *server.RemoteError
	return errors.As(err, &re) && re.Temporary()
}

// IsRejected reports whether err is an admission-control rejection.
func IsRejected(err error) bool {
	var re *server.RemoteError
	return errors.As(err, &re) && re.Code == server.CodeRejected
}
