package live

// The fragment table: everything a node holds of a fragment, in one map
// under n.mu. The paper gives each node one catalog keyed by BAT (core's
// S1, S2, S3); the table is its payload side. An entry holds one
// *fragment — the newest version the node holds, which no role ever
// downgrades — in one or more roles:
//
//	owned    the owner's copy ("local disk"): what the owner forwards
//	         and serves, at the catalog's version (move.go invariant 1)
//	replica  a copy at a successor of the owner, with the last LOI seen
//	         on the circulating original (what a promotion re-admits)
//	pinned   a ring delivery, kept while the runtime counts a local pin
//	         on it (core.Runtime.CachePins)
//	hot      the hot-set cache: passing traffic and store reads kept so a
//	         repeat pin is a node-local read instead of a ring wait
//
// An entry that takes a received version holds its slab, once, until
// that version is replaced or the entry loses its last role (take).
//
// The hot role is the dual of the paper's hot-set model: the ring keeps
// interesting data flowing, and the table keeps what already flowed
// past, within a byte budget (Config.CacheBytes; 0 holds nothing hot).
// A pin consults it first (acquireLocked): a hot entry at the catalog's
// current version is a zero-copy hit with no ring wait. A miss pins at
// the runtime, which serves every local pin of a BAT with one pass.
//
// Correctness contract (the staleness proof):
//
//  1. every payload on the wire is labelled with the version its owner
//     installed it under (envelope v2), read in the same critical
//     section that guards the owner's entry — a payload labelled v IS
//     version v's bytes;
//  2. an entry's version only rises: it takes a delivery's label, an
//     older delivery never replaces a newer version, and a version is
//     immutable;
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
// Eviction is LOI-weighted: every hit raises a hot entry's interest
// score, every eviction scan decays all scores by half, and the
// lowest-interest entry goes first (the least recently touched among
// equals) — the table's local rendition of the ring's level-of-interest
// economy, so a fragment the node's queries keep meeting stays resident
// while one-pass traffic ages out.

import "repro/internal/core"

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

// held is one fragment's table entry: its newest version and the roles
// the node holds it in.
type held struct {
	f                           *fragment
	owned, replica, pinned, hot bool
	loi                         float64 // replica: last LOI seen circulating
	seen                        int64   // owned: unix ns of its last return
	score                       float64 // hot: interest; hits raise, scans decay
	seq                         int64   // hot: recency stamp (tie-break)
	bytes                       int64   // hot: bytes charged to the budget
}

// table is one node's fragment table and its hot-set policy. Guarded by
// the node's mu.
type table struct {
	m      map[core.BATID]*held
	budget int64      // hot bytes allowed
	cs     CacheStats // the hot role's counters; Bytes and Entries are its residents
	seq    int64
}

// cacheDecay is the divisor applied to every hot entry's interest score
// on each eviction scan: halve per scan.
const cacheDecay = 2

func newTable(budget int) table {
	return table{m: map[core.BATID]*held{}, budget: int64(budget)}
}

// take makes f the version e holds (nil: none) — the one place a table
// hold on a receive slab is taken and let go. Every take of a received
// version happens while the receive loop still holds its slab.
func (t *table) take(e *held, f *fragment) {
	if f != nil {
		f.slab.retain()
	}
	if e.f != nil {
		e.f.slab.release()
	}
	e.f = f
}

// hold returns id's entry, creating it, with f as its version unless
// it holds a newer one. A version in GC memory — an install or a store
// read — replaces the same version in a slab.
func (t *table) hold(id core.BATID, f *fragment) *held {
	e := t.m[id]
	if e == nil {
		e = &held{}
		t.m[id] = e
	}
	if e.f == nil || f.ver > e.f.ver || f.ver == e.f.ver && f.slab == nil {
		t.take(e, f)
	}
	return e
}

// tidy forgets id once its entry holds it in no role.
func (t *table) tidy(id core.BATID, e *held) {
	if !e.owned && !e.replica && !e.pinned && !e.hot {
		t.take(e, nil)
		delete(t.m, id)
	}
}

// owned is the version n owns of id (nil when it owns none).
func (t *table) owned(id core.BATID) *fragment {
	if e := t.m[id]; e != nil && e.owned {
		return e.f
	}
	return nil
}

// hit returns id's version if it is hot at exactly version want,
// raising its interest. A hot entry at any other version is dead by
// the contract and loses its hot role on sight.
func (t *table) hit(id core.BATID, want int) *fragment {
	if t.budget == 0 {
		return nil // no hot role, nothing to count
	}
	e := t.m[id]
	if e == nil || !e.hot || e.f.ver != want {
		if e != nil && e.hot {
			t.cool(id)
			t.cs.Stale++
		}
		t.cs.Misses++
		return nil
	}
	e.score++
	t.seq++
	e.seq = t.seq
	t.cs.Hits++
	e.f.slab.lend()
	return e.f
}

// peek reports whether id is hot at want without counting a hit or a
// miss (the request-path probe that decides whether to skip the ring
// request altogether).
func (t *table) peek(id core.BATID, want int) bool {
	e := t.m[id]
	return e != nil && e.hot && e.f.ver == want
}

// admit makes a delivered (or store-read) version hot. A hot entry at
// the same or a newer version keeps its place and its interest; a
// version bigger than the whole budget is not admitted. The budget is
// enforced by LOI-weighted eviction.
func (t *table) admit(id core.BATID, f *fragment) {
	size := int64(f.b.Bytes())
	if t.budget == 0 || size > t.budget {
		return
	}
	if e := t.m[id]; e != nil && e.hot && e.f.ver >= f.ver {
		return
	}
	t.cool(id)
	e := t.hold(id, f)
	t.seq++
	e.hot, e.score, e.seq, e.bytes = true, 1, t.seq, size
	t.cs.Bytes += size
	t.cs.Entries++
	t.cs.Inserts++
	for t.cs.Bytes > t.budget {
		t.evict(id)
	}
}

// evict takes the hot role from the least interesting entry other than
// keep, and decays every score so interest is recency-biased: a
// once-hot fragment the queries stopped meeting ages out.
func (t *table) evict(keep core.BATID) {
	var victimID core.BATID
	var victim *held
	for id, e := range t.m {
		if e.hot && id != keep && (victim == nil || e.score < victim.score ||
			e.score == victim.score && e.seq < victim.seq) {
			victimID, victim = id, e
		}
	}
	if victim == nil {
		return // only keep is hot; admit's size gate honours the budget
	}
	t.cool(victimID)
	t.cs.Evictions++
	for _, e := range t.m {
		e.score /= cacheDecay
	}
}

// cool takes id's hot role away, if it has one (also owner unload and
// install: the owner serves its own copy, so resident bytes are better
// spent elsewhere).
func (t *table) cool(id core.BATID) {
	if e := t.m[id]; e != nil && e.hot {
		e.hot = false
		t.cs.Bytes -= e.bytes
		t.cs.Entries--
		t.tidy(id, e)
	}
}

// invalidateBelow takes id's hot role away if its version predates
// ver: UpdateColumn's hygiene pass, run after the catalog version
// advanced. Validation already guarantees such an entry can never be
// served; dropping it here frees the bytes at once instead of on the
// next pin.
func (t *table) invalidateBelow(id core.BATID, ver int) {
	if e := t.m[id]; e != nil && e.hot && e.f.ver < ver {
		t.cool(id)
		t.cs.Stale++
	}
}
