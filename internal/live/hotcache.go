package live

// The hot-set fragment cache, the dual of the paper's hot-set model:
// the ring keeps interesting data flowing, and this cache keeps what
// already flowed past. Ring deliveries and store reads off the ring
// fill a bytes-budgeted per-node map of BATID → (version, payload). A
// pin consults it first (acquireLocked): an entry at the catalog's current
// version is a zero-copy hit with no ring wait. A miss pins at the
// runtime, which serves every local pin of a BAT with one pass.
//
// Correctness contract (the staleness proof):
//
//  1. every payload on the wire is labelled with the version its owner
//     installed it under (envelope v2), read in the same critical
//     section that guards the owner's store — a payload labelled v IS
//     version v's bytes;
//  2. a cache entry inherits the label of the delivery that populated
//     it and is immutable afterwards;
//  3. a hit is served only while the entry's label equals the ring
//     catalog's current version for that fragment; the atomic catalog
//     read is the pin's linearization point. UpdateColumn advances the
//     catalog version inside its ordered column/owner critical section
//     before it returns.
//
// So no pin whose catalog read happens after an update commits can be
// served an entry labelled with an older version. A pin that read the
// catalog just before the commit may still complete against the old
// version — that is ordinary MVCC (the pin linearizes before the
// update), not staleness. Eviction and explicit invalidation are
// memory hygiene, not correctness requirements.
//
// Eviction is LOI-weighted: every hit raises an entry's interest score,
// every eviction scan decays all scores by half, and the lowest-interest
// entry goes first (the least recently touched among equals) — the
// cache's local rendition of the ring's level-of-interest economy, so a
// fragment the node's queries keep meeting stays resident while
// one-pass traffic ages out.

import (
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
)

// CacheStats snapshots one node's hot-set cache counters. RingWaits /
// RingWaitNanos count pins that blocked on ring circulation (and for
// how long, cumulatively) — the latency term cache hits eliminate;
// they are counted whether or not the cache is enabled, so off-vs-on
// runs compare directly.
type CacheStats struct {
	Hits      int64 // pins served node-locally, no ring wait
	Misses    int64 // pins that had to wait for circulation
	Stale     int64 // superseded entries dropped (pin-time mismatch or update sweep)
	Inserts   int64 // deliveries admitted into the cache
	Evictions int64 // entries evicted by the bytes budget

	Bytes   int64 // resident payload bytes
	Entries int64 // resident fragments

	RingWaits     int64 // pins that blocked on the ring
	RingWaitNanos int64 // total time those pins spent blocked
}

// HitRate reports the fraction of pins served from the cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Merge folds another node's snapshot into s. Every field sums.
func (s *CacheStats) Merge(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Stale += o.Stale
	s.Inserts += o.Inserts
	s.Evictions += o.Evictions
	s.Bytes += o.Bytes
	s.Entries += o.Entries
	s.RingWaits += o.RingWaits
	s.RingWaitNanos += o.RingWaitNanos
}

// hotEntry is one resident fragment version.
type hotEntry struct {
	f     *fragment
	bytes int64
	loi   float64 // interest score; hits raise, scans decay
	seq   int64   // recency stamp (tie-break)
}

// hotCache is one node's hot-set fragment cache.
type hotCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	seq     int64
	entries map[core.BATID]*hotEntry

	hits      metrics.Counter
	misses    metrics.Counter
	stale     metrics.Counter
	inserts   metrics.Counter
	evictions metrics.Counter
}

// cacheDecay is the divisor applied to every resident entry's interest
// score on each eviction scan: halve per scan.
const cacheDecay = 2

func newHotCache(budget int) *hotCache {
	return &hotCache{
		budget:  int64(budget),
		entries: map[core.BATID]*hotEntry{},
	}
}

// get returns the cached fragment id if it is resident at exactly
// version wantVer, bumping its interest. An entry at any other version
// is dead by the validation contract and is dropped on sight.
func (h *hotCache) get(id core.BATID, wantVer int) *fragment {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.entries[id]
	if !ok {
		h.misses.Inc()
		return nil
	}
	if e.f.ver != wantVer {
		h.dropLocked(id, e)
		h.stale.Inc()
		h.misses.Inc()
		return nil
	}
	e.loi++
	h.seq++
	e.seq = h.seq
	h.hits.Inc()
	e.f.slab.lend()
	return e.f
}

// peek reports whether id is resident at wantVer without counting a
// hit or a miss (the request-path probe that decides whether to skip
// the ring request altogether).
func (h *hotCache) peek(id core.BATID, wantVer int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.entries[id]
	return ok && e.f.ver == wantVer
}

// put admits a delivered fragment version; an admitted entry holds its
// slab until it is evicted, dropped or replaced. The budget is enforced
// by LOI-weighted eviction; a fragment bigger than the whole budget is
// not admitted.
func (h *hotCache) put(id core.BATID, f *fragment) {
	size := int64(f.b.Bytes())
	if size > h.budget {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if old, ok := h.entries[id]; ok {
		if old.f.ver >= f.ver {
			// Same version: the resident entry already holds these bytes
			// and its accumulated interest — re-inserting would reset the
			// LOI score a circulating fragment keeps earning. Newer
			// version resident: an older delivery never downgrades it.
			return
		}
		h.dropLocked(id, old)
	}
	h.seq++
	f.slab.retain()
	h.entries[id] = &hotEntry{f: f, bytes: size, loi: 1, seq: h.seq}
	h.bytes += size
	h.inserts.Inc()
	for h.bytes > h.budget {
		h.evictLocked(id)
	}
}

// evictLocked removes the least interesting entry other than keep, and
// decays every score so interest is recency-biased: a once-hot fragment
// the queries stopped meeting ages out.
func (h *hotCache) evictLocked(keep core.BATID) {
	var victimID core.BATID
	var victim *hotEntry
	for id, e := range h.entries {
		if id == keep {
			continue
		}
		if victim == nil || h.lessLocked(e, victim) {
			victimID, victim = id, e
		}
	}
	if victim == nil {
		return // only keep is resident; budget honoured by put's size gate
	}
	h.dropLocked(victimID, victim)
	h.evictions.Inc()
	for _, e := range h.entries {
		e.loi /= cacheDecay
	}
}

// lessLocked orders eviction candidates: true means a is evicted
// before b.
func (h *hotCache) lessLocked(a, b *hotEntry) bool {
	if a.loi == b.loi {
		return a.seq < b.seq
	}
	return a.loi < b.loi
}

func (h *hotCache) dropLocked(id core.BATID, e *hotEntry) {
	delete(h.entries, id)
	h.bytes -= e.bytes
	e.f.slab.release()
}

// drop removes id outright (owner unload: the fragment left the ring's
// hot set; the entry would still validate, but the owner serves its
// own pins from the store, so resident bytes are better spent).
func (h *hotCache) drop(id core.BATID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.entries[id]; ok {
		h.dropLocked(id, e)
	}
}

// invalidateBelow removes id if its resident version predates ver:
// UpdateColumn's hygiene pass, run under the ordered column/owner
// locks after the catalog version advanced. Version validation already
// guarantees such an entry can never be served; dropping it here frees
// the bytes immediately instead of on the next pin.
func (h *hotCache) invalidateBelow(id core.BATID, ver int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.entries[id]; ok && e.f.ver < ver {
		h.dropLocked(id, e)
		h.stale.Inc()
	}
}

// stats snapshots the cache counters.
func (h *hotCache) stats() CacheStats {
	h.mu.Lock()
	bytes, entries := h.bytes, int64(len(h.entries))
	h.mu.Unlock()
	return CacheStats{
		Hits:      h.hits.Get(),
		Misses:    h.misses.Get(),
		Stale:     h.stale.Get(),
		Inserts:   h.inserts.Get(),
		Evictions: h.evictions.Get(),
		Bytes:     bytes,
		Entries:   entries,
	}
}
