package live

import (
	"sync/atomic"
	"time"
)

// RevolutionTime reports the measured ring revolution time: the mean of
// every node's owner-side EWMA of the gap between successive returns of
// its own fragments. Zero until at least one fragment has come full
// circle twice.
func (r *Ring) RevolutionTime() time.Duration {
	var total int64
	var count int64
	for _, n := range r.nodeList() {
		if v := atomic.LoadInt64(&n.revNanos); v > 0 {
			total += v
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return time.Duration(total / count)
}

// CacheStats snapshots the node's hot-set cache counters plus the
// ring-wait accounting (the latter is recorded whether or not the
// cache is enabled, so disabled-vs-enabled runs compare directly).
func (n *Node) CacheStats() CacheStats {
	var s CacheStats
	if n.hot != nil {
		s = n.hot.stats()
	}
	s.RingWaits = atomic.LoadInt64(&n.ringWaits)
	s.RingWaitNanos = atomic.LoadInt64(&n.ringWaitNanos)
	return s
}

// CacheStats merges the hot-set cache counters of every node.
func (r *Ring) CacheStats() CacheStats {
	var total CacheStats
	for _, n := range r.nodeList() {
		total.Merge(n.CacheStats())
	}
	return total
}

// Quiesce blocks until no node is executing a query, or until timeout
// elapses; it reports whether the ring went idle. Callers that submit
// queries from several places (e.g. a drained server plus in-process
// submitters) use this before tearing the ring down.
func (r *Ring) Quiesce(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, n := range r.nodeList() {
			if n.ActiveQueries() > 0 || n.InterpRunning() > 0 {
				idle = false
				break
			}
		}
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// HopStats merges the hop-transport counters of every node.
func (r *Ring) HopStats() HopStats {
	var total HopStats
	for _, n := range r.nodeList() {
		total.Merge(n.HopStats())
	}
	return total
}
