package live

// Horizontal fragmentation: every registered column is split into
// bounded-size fragments that circulate, are requested, and are
// admitted/evicted independently — the fragment granularity the paper
// sweeps in §5. The unit of circulation (and of RDMA region sizing) is
// the largest *fragment*, not the largest column, so a 1M-row column
// rotates as a train of small messages instead of one giant one, and a
// pin can start working as soon as the first fragment flows past.
//
// The catalog maps a column name to its ordered fragment ids. Fragment
// heads are Slice views of the logical column, so their dense OID bases
// carry the global row offsets, and the columns of one table are cut at
// the same rows: a plan's fragment-local region (dcopt) runs on fragment
// i of every column it reads as those arrive, in whatever order, and
// what leaves it — concatenated (bat.Concat) or, for aggregates, merged
// in fragment order — is what the region returns on the whole columns,
// float sums up to the order of addition.

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
)

// colFrags is one column's catalog entry: its fragment ids in fragment
// order. Nothing writes ids once the entry is published (NewRing,
// Publish), so readers share the slice (Fragments).
type colFrags struct {
	ids []core.BATID
}

// fragHandle is the request handle for a column, a list of one or more
// fragments: what datacyclotron.request returns and pin / aligned
// consume.
type fragHandle struct {
	name string
	ids  []core.BATID
}

// fragmentSpans cuts [0, n) into row ranges of at most rows each
// (one span covering everything when rows <= 0).
func fragmentSpans(n, rows int) [][2]int {
	if rows <= 0 || n <= rows {
		return [][2]int{{0, n}}
	}
	spans := make([][2]int, 0, (n+rows-1)/rows)
	for from := 0; from < n; from += rows {
		to := from + rows
		if to > n {
			to = n
		}
		spans = append(spans, [2]int{from, to})
	}
	return spans
}

// Fragments lists the fragment ids of a column, in fragment order. The
// slice is the catalog's own: the caller must not modify it.
func (r *Ring) Fragments(name string) ([]core.BATID, bool) {
	r.idsMu.RLock()
	defer r.idsMu.RUnlock()
	cf, ok := r.cols[name]
	if !ok {
		return nil, false
	}
	return cf.ids, true
}

// fragVersion reports the catalog's current version of one fragment
// (0 for base data and for ids the catalog does not know). Lock-free
// beyond the catalog-map read: the pin fast path calls this on every
// cache validation.
func (r *Ring) fragVersion(id core.BATID) int {
	r.idsMu.RLock()
	defer r.idsMu.RUnlock()
	return r.versionLocked(id)
}

// versionLocked is fragVersion with idsMu held.
func (r *Ring) versionLocked(id core.BATID) int {
	if p := r.fragVer[id]; p != nil {
		return int(p.Load())
	}
	return 0
}

// fragKnown reports whether id is a published fragment in the ring
// catalog — the authority consulted before a full-circle request is
// allowed to conclude "BAT does not exist".
func (r *Ring) fragKnown(id core.BATID) bool {
	r.idsMu.RLock()
	_, ok := r.fragVer[id]
	r.idsMu.RUnlock()
	return ok
}

// MaxMessage reports the ring's data message limit — what every RDMA
// memory region is sized to. With fragmentation on, it is keyed to the
// largest fragment rather than the largest column.
func (r *Ring) MaxMessage() int { return r.maxMsgBytes }

// ---------------------------------------------------------------------
// fragment acquisition: store read, cache hit, or ring wait
// ---------------------------------------------------------------------

// maxSnapshotRetries bounds how often a multi-fragment pin re-acquires
// fragments whose versions straddled a concurrent UpdateColumn. Each
// round needs a fresh update to land mid-collection, so the bound only
// trips under pathological sustained update pressure.
const maxSnapshotRetries = 64

// A fragment acquisition resolves one payload for pinning, in order of
// preference:
//
//  1. this node's owned entry, which holds the catalog's version
//     (move.go invariant 1). With the hot-set cache on
//     (Core.LocalPinsSkipLoad), it is read off the runtime; without it,
//     the owner pins at the runtime, which loads the fragment into the
//     ring and delivers.
//  2. a hot entry at the catalog's version: node-local, with no ring
//     interest, so a fragment every reader holds parks at its owner.
//  3. a ring wait (waitLocked): a runtime pin, and an entry in the
//     node's waiters that the delivery ends (deliverLocked). The node's
//     misses of one fragment share the runtime's pass.
//
// A pin never returns a version below the catalog's at acquisition: a
// ring delivery can be older, and the worker that takes its part
// replaces it before the part runs (fragMap.settle). viaRing marks the
// acquisitions that hold a runtime pin (releaseRing); owned reads and
// cache hits hold none — payloads are immutable, and a view of a receive
// slab stays readable until the query returns (slab.go).

// acquireLocked starts every acquisition in acqs under n.mu and one
// read of the catalog's versions: store reads and cache hits complete,
// every other one becomes a ring wait, which the runtime may end at
// once. It reports how many are left waiting or delivered stale.
func (d *queryDC) acquireLocked(acqs []fragAcq) (open int) {
	n := d.n
	n.ring.catalogVersions(acqs)
	for i := range acqs {
		a := &acqs[i]
		if n.rt.Owns(a.id) {
			// Ownership is checked in the critical section that reads the
			// owned entry or pins, so its version is the catalog's, and a
			// runtime pin is delivered (deliverLocked) before it returns.
			if st := n.tab.owned(a.id); n.cfg.Core.LocalPinsSkipLoad && st != nil {
				d.withdrawLocked(a.id) // asked for before this node owned it
				a.f = st
				continue
			}
		} else if a.f = n.tab.hit(a.id, a.cur); a.f != nil {
			// The pin is served locally, so nothing will ever mark a
			// runtime request of this query delivered, and its resend
			// timer would re-request a fragment nobody is waiting for.
			d.withdrawLocked(a.id)
			continue
		}
		d.waitLocked(a)
		if a.waiting || a.stale() {
			open++
		}
	}
	return open
}

// withdrawLocked drops this query's ring interest in id, when it
// registered any (announce, waitLocked). Called with n.mu held.
func (d *queryDC) withdrawLocked(id core.BATID) {
	if !d.interest[id] {
		return
	}
	delete(d.interest, id)
	ids := [1]core.BATID{id}
	d.n.rt.CancelQuery(d.q, ids[:])
}

// catalogVersions reads the catalog's current version of every
// acquisition's fragment into its cur (0 for base data and for ids the
// catalog does not know), under one hold of idsMu.
func (r *Ring) catalogVersions(acqs []fragAcq) {
	r.idsMu.RLock()
	defer r.idsMu.RUnlock()
	for i := range acqs {
		acqs[i].cur = r.versionLocked(acqs[i].id)
	}
}

// waitLocked makes a a ring wait of this query and pins its fragment at
// the runtime, which may deliver before it returns (an owner, or a
// payload another local pin holds). A query already waiting on the
// fragment is not pinned again: the runtime delivers a query a BAT
// once, and that delivery ends all its waits. Called with n.mu held.
func (d *queryDC) waitLocked(a *fragAcq) {
	n := d.n
	key := waitKey{d.q, a.id}
	a.next, a.waiting = n.waiters[key], true
	n.waiters[key] = a
	a.p.missing++
	if a.next == nil {
		d.markInterestLocked(a.id)
		n.rt.Pin(d.q, a.id)
		n.applyLocked()
	}
	if a.waiting {
		a.since = time.Now() // a synchronous delivery is no ring wait
	}
}

// markInterestLocked notes that this query registers ring interest in
// id at the runtime (withdrawLocked). Called with n.mu held.
func (d *queryDC) markInterestLocked(id core.BATID) {
	if d.interest == nil {
		d.interest = map[core.BATID]bool{}
	}
	d.interest[id] = true
}

// ownerStoreRead reads a fragment's owned version from its owner's
// table (nil when no owner holds it), in GC memory and holding no
// runtime refs. It takes the owner's lock, which may be n.mu: never
// call it with n.mu held.
func ownerStoreRead(r *Ring, id core.BATID) *fragment {
	owner := r.ownerOf(id)
	if owner == nil {
		return nil
	}
	owner.mu.Lock()
	defer owner.mu.Unlock()
	return owner.tab.owned(id)
}

// ---------------------------------------------------------------------
// aligned fragment maps
// ---------------------------------------------------------------------

// PinMap implements mal.FragmentedDC over the fragments of k columns of
// one table: part runs once per fragment index against that index's k
// fragments. The columns of a table are cut at the same rows (NewRing
// cuts them alike, and UpdateColumn keeps a column's length and
// boundaries), so fragment i of each covers the same rows.
func (d *queryDC) PinMap(handles []mal.Value, part func(mal.DCRuntime) (mal.Value, error)) ([]mal.Value, error) {
	cols := make([][]core.BATID, len(handles))
	for j, h := range handles {
		fh, ok := h.(*fragHandle)
		if !ok {
			return nil, fmt.Errorf("live: bad pin handle %T", h)
		}
		if j > 0 && len(fh.ids) != len(cols[0]) {
			return nil, fmt.Errorf("live: %s has %d fragments, the map's first column %d", fh.name, len(fh.ids), len(cols[0]))
		}
		cols[j] = fh.ids
	}
	if len(cols) == 0 {
		return nil, errors.New("live: aligned map over no columns")
	}
	return d.pinAligned(cols, part)
}

// pinAligned maps part over the fragment indexes of cols (each column's
// fragment ids, all of one length) and returns the per-index results in
// fragment order. The fragments a result was computed from are one
// version per column: a concurrent UpdateColumn bumps every fragment of
// its column together, so when the versions seen across the indexes of
// a column differ, the indexes on the older side run again until the
// set agrees. Readers that collected entirely before the update keep
// their old version (MVCC: the update does not invalidate a snapshot
// already taken, it only forbids mixing).
func (d *queryDC) pinAligned(cols [][]core.BATID, part func(mal.DCRuntime) (mal.Value, error)) ([]mal.Value, error) {
	n := len(cols[0])
	results := make([]mal.Value, n)
	vers := make([][]int, n) // per index, the version of each column's fragment
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for attempt := 0; len(idx) > 0; attempt++ {
		if attempt > maxSnapshotRetries {
			return nil, fmt.Errorf("live: no consistent snapshot after %d retries (sustained concurrent updates)", maxSnapshotRetries)
		}
		if err := d.mapParts(cols, idx, part, results, vers); err != nil {
			return nil, err
		}
		idx = staleParts(vers)
	}
	return results, nil
}

// staleParts lists the indexes holding, for some column, a version
// older than the newest one collected for that column.
func staleParts(vers [][]int) []int {
	newest := append([]int(nil), vers[0]...)
	for _, v := range vers[1:] {
		for j := range v {
			newest[j] = max(newest[j], v[j])
		}
	}
	var stale []int
	for i, v := range vers {
		if !slices.Equal(v, newest) {
			stale = append(stale, i)
		}
	}
	return stale
}

// fragAcq is one fragment acquisition of an aligned map. acquireLocked
// fills f, or makes it a ring wait that a delivery or a failure ends
// under n.mu, filling f and viaRing or err and counting it into its
// part p; out belongs to the part alone.
type fragAcq struct {
	id      core.BATID
	cur     int // the catalog's version when acquireLocked ran
	p       *partDC
	f       *fragment
	err     error
	viaRing bool // the acquisition holds runtime refs until released
	out     bool // handed to the part by Pin, not unpinned yet
	// A ring wait is in n.waiters, chained to the query's other waits on
	// the fragment, and blocked since the runtime's pin returned.
	waiting bool
	next    *fragAcq
	since   time.Time
}

// stale reports whether a holds a ring delivery older than the
// catalog's version when it was acquired.
func (a *fragAcq) stale() bool { return a.viaRing && a.f.ver < a.cur }

// partDC is the DC runtime one part of an aligned map sees: Pin(slot)
// hands out this index's fragment of that column. A part runs only
// once every one of its acquisitions is in, so Pin never waits.
type partDC struct {
	d       *queryDC
	m       *fragMap  // nil while its map has no ready queue
	i       int       // the fragment index it runs
	acqs    []fragAcq // one per column
	vers    []int     // the versions it read, one per column
	missing int       // ring waits not ended yet; guarded by n.mu
}

// inLocked counts one of p's ring waits in, under n.mu; the last queues p.
func (p *partDC) inLocked() {
	if p.missing--; p.missing == 0 && p.m != nil {
		p.m.ready <- p // buffered to the number of parts
	}
}

func (p *partDC) Request(schema, table, column string) (mal.Value, error) {
	return nil, errors.New("live: request inside a fragment part")
}

func (p *partDC) Pin(handle mal.Value) (mal.Value, error) {
	slot, ok := handle.(mal.Slot)
	if !ok || int(slot) >= len(p.acqs) {
		return nil, fmt.Errorf("live: bad part pin handle %#v", handle)
	}
	a := &p.acqs[slot]
	if a.err != nil {
		return nil, a.err
	}
	a.out = true
	return a.f.b, nil
}

func (p *partDC) Unpin(v mal.Value) error {
	for j := range p.acqs {
		if a := &p.acqs[j]; a.out && a.f.b == v {
			a.out = false
			if a.viaRing {
				a.viaRing = false
				p.d.releaseRing(a.id)
			}
			return nil
		}
	}
	return fmt.Errorf("live: unpin of a BAT that was never pinned")
}

// releaseRing drops the runtime pin a ring acquisition (viaRing) holds,
// with the last holder when one delivery ended several waits
// (n.sharedPins), and with the node's last pin the table's pinned role.
func (d *queryDC) releaseRing(id core.BATID) {
	n := d.n
	key := waitKey{d.q, id}
	n.mu.Lock()
	if c := n.sharedPins[key]; c > 0 {
		if n.sharedPins[key] = c - 1; c == 1 {
			delete(n.sharedPins, key)
		}
	} else {
		n.unpinLocked(d.q, id)
	}
	n.mu.Unlock()
}

// runPart runs part on p and records its result and the versions it
// read at p's fragment index.
func runPart(p *partDC, part func(mal.DCRuntime) (mal.Value, error), results []mal.Value, vers [][]int) error {
	v, err := part(p)
	if err != nil {
		return err
	}
	results[p.i] = v
	for j := range p.acqs {
		p.vers[j] = p.acqs[j].f.ver
	}
	vers[p.i] = p.vers
	return nil
}

// mapParts runs part over the fragment indexes idx. Every acquisition —
// each index of each column — starts before any part runs, in one pass
// under the node's lock (acquireLocked): a pin registered after its
// envelope went by costs a whole extra revolution. The delivery that
// brings a part's last acquisition in queues the part, and Workers
// workers — the caller and Workers − 1 others — run queued parts
// (fragMap.work); with nothing open and one worker, the caller runs
// them in order. What a part did not unpin is released before return.
func (d *queryDC) mapParts(cols [][]core.BATID, idx []int, part func(mal.DCRuntime) (mal.Value, error), results []mal.Value, vers [][]int) error {
	n := d.n
	workers := max(1, min(n.cfg.Workers, len(idx)))
	// The parts, their acquisitions and their versions are one
	// allocation each, whatever the number of parts.
	k := len(cols)
	parts := make([]partDC, len(idx))
	acqs := make([]fragAcq, len(idx)*k)
	partVers := make([]int, len(idx)*k)
	for pi, i := range idx {
		p := &parts[pi]
		p.d, p.i = d, i
		p.acqs = acqs[pi*k : (pi+1)*k : (pi+1)*k]
		p.vers = partVers[pi*k : (pi+1)*k : (pi+1)*k]
		for j := range cols {
			p.acqs[j].id, p.acqs[j].p = cols[j][i], p
		}
	}
	var m *fragMap
	n.mu.Lock()
	if d.acquireLocked(acqs) > 0 || workers > 1 {
		m = &fragMap{d: d, part: part, results: results, vers: vers, parts: parts, ready: make(chan *partDC, len(parts))}
		for pi := range parts {
			p := &parts[pi]
			p.m = m
			if p.missing == 0 {
				m.ready <- p
			}
		}
	}
	n.mu.Unlock()
	var err error
	if m == nil {
		for pi := 0; pi < len(parts) && err == nil; pi++ {
			err = runPart(&parts[pi], part, results, vers)
		}
	} else {
		var helpers sync.WaitGroup
		helpers.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go func(m *fragMap) { defer helpers.Done(); m.work() }(m)
		}
		m.work()
		helpers.Wait()
		err = m.err
	}
	for pi := range parts {
		for j := range parts[pi].acqs {
			if a := &parts[pi].acqs[j]; a.viaRing {
				d.releaseRing(a.id)
			}
		}
	}
	return err
}

// fragMap is an aligned map that waits on the ring or runs its parts on
// more than one worker: its ready queue, and its first failure.
type fragMap struct {
	d       *queryDC
	part    func(mal.DCRuntime) (mal.Value, error)
	results []mal.Value
	vers    [][]int
	parts   []partDC
	ready   chan *partDC // parts whose acquisitions are all in
	claimed atomic.Int32 // parts the workers have taken on
	err     error        // the first failure; written under n.mu (fail)
}

// work takes on parts until the workers have taken on every one, and
// runs each as it comes off the ready queue (a stale one waits again,
// settle). Cancel and close fail the map, which readies every part.
func (m *fragMap) work() {
	cancel, closed := m.d.cancel, m.d.n.closed // cancel is nil for uncancellable callers
	for int(m.claimed.Add(1)) <= len(m.parts) {
		for ran := false; !ran; {
			select {
			case p := <-m.ready:
				if ran = m.settle(p); ran {
					if err := runPart(p, m.part, m.results, m.vers); err != nil {
						m.fail(err)
					}
				}
			case <-cancel:
				m.fail(mal.ErrCancelled)
				cancel, closed = nil, nil
			case <-closed:
				m.fail(errors.New("live: ring closed"))
				cancel, closed = nil, nil
			}
		}
	}
}

// fail records the map's first failure and ends the map's pending ring
// waits with it, withdrawing the query's interest in a fragment it no
// longer waits on, so that the map's closing release loop is the one
// place left that releases a delivered ring pin.
func (m *fragMap) fail(err error) {
	d, n := m.d, m.d.n
	n.mu.Lock()
	defer n.mu.Unlock()
	if m.err != nil {
		return
	}
	m.err = err
	for pi := range m.parts {
		for j := range m.parts[pi].acqs {
			a := &m.parts[pi].acqs[j]
			if !a.waiting {
				continue
			}
			key := waitKey{d.q, a.id}
			head := n.waiters[key]
			if head == a {
				head = a.next
			}
			for w := head; w != nil; w = w.next {
				if w.next == a {
					w.next = a.next
				}
			}
			if n.waiters[key] = head; head == nil {
				delete(n.waiters, key)
				d.withdrawLocked(a.id)
			}
			a.next = nil
			n.endWaitsLocked(a, nil, err)
		}
	}
}

// settle readies p to run and reports whether it can. A stale delivery
// is released and replaced from the owner's table, catalog-current by
// construction (move.go invariant 1), which it makes hot here so repeat
// pins stay node-local; with no owner copy that new, p waits on
// the ring for it again, and comes back here once it is delivered.
func (m *fragMap) settle(p *partDC) bool {
	d, n := m.d, m.d.n
	for j := range p.acqs {
		a := &p.acqs[j]
		if !a.stale() {
			continue
		}
		d.releaseRing(a.id)
		a.f, a.viaRing = nil, false
		of := ownerStoreRead(n.ring, a.id)
		n.mu.Lock()
		if of != nil && of.ver >= a.cur {
			a.f = of
			n.tab.admit(a.id, of)
			n.mu.Unlock()
			continue
		}
		failed := m.err
		if a.err = failed; failed == nil {
			d.waitLocked(a) // a synchronous delivery queues p again
		}
		n.mu.Unlock()
		if failed == nil {
			return false // p is no longer this worker's to touch
		}
	}
	return true
}

// pinMerged pins every fragment of h (out of order) and concatenates
// the payloads in fragment order — a single-version snapshot of the
// column, for the readers that need it whole (Node.Fetch, a pin outside
// any aligned region). A one-fragment column is the k = 1, one-part map,
// run on the calling goroutine. The fragments are unpinned as they are
// collected: payloads are immutable, and a view of a receive slab stays
// readable until the query returns, so no pin needs to outlive the
// merge, and the caller's later unpin of the merged value only drops
// its tracking in d.merged.
func (d *queryDC) pinMerged(h *fragHandle) (*bat.BAT, error) {
	parts, err := d.pinAligned([][]core.BATID{h.ids}, func(dc mal.DCRuntime) (mal.Value, error) {
		v, err := dc.Pin(mal.Slot(0))
		if err != nil {
			return nil, err
		}
		return v, dc.Unpin(v)
	})
	if err != nil {
		return nil, err
	}
	frags := make([]*bat.BAT, len(parts))
	for i, p := range parts {
		frags[i] = p.(*bat.BAT)
	}
	merged := bat.Concat(frags)
	d.mu.Lock()
	if d.merged == nil {
		d.merged = map[*bat.BAT]bool{}
	}
	d.merged[merged] = true
	d.mu.Unlock()
	return merged, nil
}
