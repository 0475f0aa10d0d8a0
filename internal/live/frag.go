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
// fragment acquisition: store read, cache hit, or ring circulation
// ---------------------------------------------------------------------

// errPinAborted marks a pin abandoned because a sibling fragment of the
// same multi-fragment pin already failed; it never surfaces to callers.
var errPinAborted = errors.New("live: pin aborted")

// maxSnapshotRetries bounds how often a multi-fragment pin re-acquires
// fragments whose versions straddled a concurrent UpdateColumn. Each
// round needs a fresh update to land mid-collection, so the bound only
// trips under pathological sustained update pressure.
const maxSnapshotRetries = 64

// A fragment acquisition resolves one payload for pinning, in order of
// preference:
//
//  1. this node's own store: the owner holds the catalog's version
//     (move.go invariant 1), so there is no cache entry for its
//     fragments (dataLoop skips own fragments) and nothing to wait for.
//     With the hot-set cache on (Core.LocalPinsSkipLoad, which NewRing
//     sets with it), the runtime's pin of an owned fragment would only
//     hand over the store's copy, so the fragment is read from the
//     store, off the runtime; without it, the owner pins at the runtime,
//     whose Request loads the fragment into the ring, and the delivery
//     holds runtime refs.
//  2. hot-set cache hit, version-validated against the ring catalog at
//     this instant: a node-local read — no waiter, no ring wait, and
//     no ring interest: a fragment every reader holds needs no ring
//     slot, so it idles and parks at its owner until a miss or an
//     invalidation requests it again. Any outstanding ring interest of
//     this query is withdrawn.
//  3. the ring's circulation (fetchCurrent): a runtime pin. Concurrent
//     misses of one BAT at this node share it: one pass delivers to all.
//
// Steps 1 and 2 cannot wait: acquireNow takes them on the caller's
// goroutine, and acquireWait the rest. One rule holds on every path,
// cached or not: a pin never returns a version below the catalog's at
// acquisition.
//
// viaRing reports whether the acquisition holds a runtime pin the
// caller must release after use (releaseRing), as the owner's runtime
// pin and a ring delivery do; store reads and cache hits hold none —
// the payloads are immutable, a store is GC memory, and a payload that
// is a view of a receive slab stays readable until the query returns
// (the grace period, slab.go).

// acquireNow takes the first step of every acquisition in acqs, which
// never blocks, under one hold of n.mu and one read of the catalog's
// versions (Ring.catalogVersions). It completes the ones that cannot
// wait — setting in, f, viaRing and err — and leaves the others
// holding nothing: they have to come through acquireWait.
func (d *queryDC) acquireNow(acqs []fragAcq) {
	n := d.n
	storeReads := n.cfg.Core.LocalPinsSkipLoad
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ring.catalogVersions(acqs)
	for i := range acqs {
		a := &acqs[i]
		if n.rt.Owns(a.id) {
			// Ownership is checked in the critical section that reads the
			// store or pins, so the store's version is the catalog's, and
			// a runtime pin's delivery (deliverLocked) is in ch on
			// return.
			if st := n.store[a.id]; storeReads && st != nil {
				d.withdrawLocked(a.id) // asked for before this node owned it
				a.f, a.in = st, true
				continue
			}
			a.f, a.err = delivered(a.id, <-d.pinLocked(a.id))
			a.viaRing, a.in = a.err == nil, true
			continue
		}
		if n.hot == nil {
			continue
		}
		if a.f = n.hot.get(a.id, a.cur); a.f != nil {
			// The pin is served locally, so nothing will ever mark a
			// runtime request of this query delivered, and its resend
			// timer would re-request a fragment nobody is waiting for.
			d.withdrawLocked(a.id)
			a.in = true
		}
	}
}

// withdrawLocked drops this query's ring interest in id, when it
// registered any (announce, pinLocked): the fragment was served off
// the ring. Called with n.mu held.
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

// acquireWait completes an acquisition acquireNow could not, through
// the ring. abort abandons the wait with errPinAborted.
func (d *queryDC) acquireWait(id core.BATID, abort <-chan struct{}) (f *fragment, viaRing bool, err error) {
	n := d.n
	f, viaRing, err = d.fetchCurrent(id, n.ring.fragVersion(id), abort)
	if err == nil && !viaRing && n.hot != nil {
		// Read from the owner's store, off the ring: seed the cache so
		// repeat pins stay node-local until the version moves.
		n.hot.put(id, f)
	}
	return f, viaRing, err
}

// fetchCurrent obtains fragment id at version cur or newer through the
// ring's circulation (ringPin). The ring can hand back a copy older
// than cur — Deliver serves transit and query-pinned payloads as they
// are, and an orbit copy refreshes only when a pass takes it through
// its owner — so a stale delivery is dropped and the bytes taken from
// the owner's store instead, which is catalog-current by construction
// (move.go invariant 1).
func (d *queryDC) fetchCurrent(id core.BATID, cur int, abort <-chan struct{}) (f *fragment, viaRing bool, err error) {
	for {
		f, err = d.ringPin(id, abort)
		if err != nil {
			return nil, false, err
		}
		if f.ver >= cur {
			return f, true, nil
		}
		d.releaseRing(id)
		if of := ownerStoreRead(d.n.ring, id); of != nil && of.ver >= cur {
			return of, false, nil
		}
	}
}

// ownerStoreRead reads a fragment straight from its owner's store —
// fetchCurrent's stale-orbit fallback (nil when no owner holds it). The
// fragment is in GC memory (stores never hold slab views); the caller
// holds no runtime refs on it.
func ownerStoreRead(r *Ring, id core.BATID) *fragment {
	owner := r.ownerOf(id)
	if owner == nil {
		return nil
	}
	owner.mu.Lock()
	defer owner.mu.Unlock()
	return owner.store[id]
}

// ringPin is the circulation path: register a waiter, announce the pin,
// and block until delivery. Only time actually spent blocked counts as
// ring wait — a synchronous delivery (owner store, or a payload another
// local pin already holds) involves no circulation and no wait.
func (d *queryDC) ringPin(id core.BATID, abort <-chan struct{}) (*fragment, error) {
	n := d.n
	n.mu.Lock()
	ch := d.pinLocked(id)
	n.mu.Unlock()
	select {
	case f := <-ch: // delivered synchronously: not a ring wait
		return delivered(id, f)
	default:
	}
	start := time.Now()
	select {
	case f := <-ch:
		atomic.AddInt64(&n.ringWaits, 1)
		atomic.AddInt64(&n.ringWaitNanos, time.Since(start).Nanoseconds())
		return delivered(id, f)
	case <-d.cancel: // nil for uncancellable callers: blocks forever
		d.abandonPin(id, ch)
		return nil, mal.ErrCancelled
	case <-n.closed:
		d.abandonPin(id, ch)
		return nil, errors.New("live: ring closed")
	case <-abort:
		d.abandonPin(id, ch)
		return nil, errPinAborted
	}
}

// pinLocked registers a waiter for id and pins it at the runtime, which
// may deliver into the returned channel before it returns. Called with
// n.mu held.
func (d *queryDC) pinLocked(id core.BATID) chan *fragment {
	ch := make(chan *fragment, 1)
	d.n.waiters[waitKey{d.q, id}] = ch
	d.markInterestLocked(id)
	d.n.rt.Pin(d.q, id)
	d.n.applyLocked()
	return ch
}

// markInterestLocked notes that this query registers ring interest in
// id at the runtime (withdrawLocked). Called with n.mu held.
func (d *queryDC) markInterestLocked(id core.BATID) {
	if d.interest == nil {
		d.interest = map[core.BATID]bool{}
	}
	d.interest[id] = true
}

// delivered turns a waiter's delivery into a pin result: nil is the
// runtime's verdict that id does not exist.
func delivered(id core.BATID, f *fragment) (*fragment, error) {
	if f == nil {
		return nil, fmt.Errorf("live: BAT %d does not exist", id)
	}
	return f, nil
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

// fragAcq is one fragment acquisition of an aligned map. acquireNow or
// its goroutine fills f, viaRing and err before the acquisition counts
// itself in (partDC.missing); out belongs to the part alone.
type fragAcq struct {
	id      core.BATID
	cur     int // the catalog's version when acquireNow ran
	f       *fragment
	err     error
	in      bool // acquireNow completed it
	viaRing bool // the acquisition holds runtime refs until released
	out     bool // handed to the part by Pin, not unpinned yet
}

// partDC is the DC runtime one part of an aligned map sees: Pin(slot)
// hands out this index's fragment of that column. A part runs only
// once every one of its acquisitions is in, so Pin never waits.
type partDC struct {
	d       *queryDC
	acqs    []fragAcq    // one per column
	missing atomic.Int32 // acquisitions not in yet
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

// releaseRing drops the runtime pin a ring acquisition (viaRing)
// holds, and with the node's last pin the payload n.cached keeps.
func (d *queryDC) releaseRing(id core.BATID) {
	n := d.n
	n.mu.Lock()
	n.rt.Unpin(d.q, id)
	n.unrefCached(id)
	n.mu.Unlock()
}

// mapParts runs part over the fragment indexes idx. Every acquisition —
// each index of each column — starts before any part runs: the ones
// that cannot wait complete on the calling goroutine, all in one pass
// under the node's lock (acquireNow), and every other one on a
// lightweight goroutine of its own (a ring wait; arrival order is the
// ring's business), so each pin is registered before any part blocks: a
// fragment whose pin is registered only after its envelope went by
// costs a whole extra revolution. A part is ready once its last
// acquisition is in, and ready parts queue in the order they became
// ready; Workers workers — the calling goroutine and Workers − 1 others
// — take them from the queue, so at most that many parts compute at a
// time and none waits inside one. The first
// failure aborts the remaining waits; their parts still become ready,
// and their pins fail. Whatever a part did not unpin itself is released
// before mapParts returns.
func (d *queryDC) mapParts(cols [][]core.BATID, idx []int, part func(mal.DCRuntime) (mal.Value, error), results []mal.Value, vers [][]int) error {
	n := d.n
	workers := max(1, min(n.cfg.Workers, len(idx)))
	abort := make(chan struct{})
	var abortOnce sync.Once
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		abortOnce.Do(func() { close(abort) })
	}

	// The parts, their acquisitions and their versions are one
	// allocation each, whatever the number of parts.
	k := len(cols)
	parts := make([]partDC, len(idx))
	acqs := make([]fragAcq, len(idx)*k)
	partVers := make([]int, len(idx)*k)
	for pi, i := range idx {
		p := &parts[pi]
		p.d, p.acqs = d, acqs[pi*k:(pi+1)*k:(pi+1)*k]
		for j := range cols {
			p.acqs[j].id = cols[j][i]
		}
	}
	d.acquireNow(acqs)
	ready := make(chan int, len(parts))
	in := func(pi int) {
		if parts[pi].missing.Add(-1) == 0 {
			ready <- pi
		}
	}
	var wg sync.WaitGroup
	for pi := range parts {
		p := &parts[pi]
		missing := 0
		for j := range p.acqs {
			if !p.acqs[j].in {
				missing++
			}
		}
		if missing == 0 {
			ready <- pi
			continue
		}
		p.missing.Store(int32(missing))
		for j := range p.acqs {
			if a := &p.acqs[j]; !a.in {
				wg.Add(1)
				go func(pi int) {
					defer wg.Done()
					a.f, a.viaRing, a.err = d.acquireWait(a.id, abort)
					in(pi)
				}(pi)
			}
		}
	}
	run := func(pi int) {
		p, i := &parts[pi], idx[pi]
		v, err := part(p)
		if err != nil {
			fail(err)
			return
		}
		results[i] = v
		vers[i] = partVers[pi*k : (pi+1)*k : (pi+1)*k]
		for j := range p.acqs {
			vers[i][j] = p.acqs[j].f.ver
		}
	}
	var taken atomic.Int32
	work := func() {
		for int(taken.Add(1)) <= len(parts) {
			run(<-ready)
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for pi := range parts {
		for j := range parts[pi].acqs {
			if a := &parts[pi].acqs[j]; a.viaRing {
				d.releaseRing(a.id)
			}
		}
	}
	return firstErr
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
