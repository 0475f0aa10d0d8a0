package live

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/mal"
)

// This file implements the §6 extensions on the live ring:
//
//   - result caching (§6.2): intermediate results published as
//     first-class fragments with their own LOI-governed life;
//   - updates (§6.4): multi-version columns — a new version replaces
//     the owner's copy while readers of the old version continue
//     undisturbed (BAT immutability gives MVCC for free); a new version
//     keeps its column's length and is cut at the existing fragments,
//     each replaced at its own owner;
//   - the nomadic phase (§6.1): Submit picks the cheapest node by
//     bidding before settling a query.
//
// Substitution note: the paper coordinates concurrent updaters by
// tagging the flowing BAT "updating"; this implementation serializes
// updates through a per-column lock at the ring, which provides the
// same mutual exclusion with the machinery available in-process.

// firstDynamicID separates static catalog ids from published
// intermediates.
const firstDynamicID core.BATID = 1 << 20

var nextDynamicID int64 = int64(firstDynamicID)

// Publish registers an intermediate result as a ring-wide fragment
// owned by this node (§6.2). It returns the fragment id; any node can
// subsequently Fetch it by name. The fragment's life in the ring is
// governed by its level of interest like any base fragment.
// Intermediates are not split: they are already query-sized, and the
// exact admission check keeps oversized ones out of the ring.
func (n *Node) Publish(name string, b *bat.BAT) (core.BATID, error) {
	// Exact admission check: the codec reports the encoded size to the
	// byte, so the only overhead to account for is the fixed envelope.
	if wire := dataHdrSize + bat.MarshalSize(b); wire > n.ring.MaxMessage() {
		return 0, fmt.Errorf("live: intermediate %q (%d wire bytes) exceeds ring message limit %d",
			name, wire, n.ring.MaxMessage())
	}
	r := n.ring
	r.idsMu.Lock()
	if _, exists := r.cols[name]; exists {
		r.idsMu.Unlock()
		return 0, fmt.Errorf("live: fragment %q already published", name)
	}
	id := core.BATID(atomic.AddInt64(&nextDynamicID, 1))
	r.cols[name] = &colFrags{ids: []core.BATID{id}}
	r.fragVer[id] = &atomic.Int64{}
	r.fragCol[id] = name
	r.names = append(r.names, name)
	r.idsMu.Unlock()
	// Same placement rule as base fragments, so a published intermediate
	// survives its owner's death too.
	chain := replicaChain(r, n.id)
	unlock := lockNodes(append(chain, n)...)
	installOwner(n, id, newFragment(b, 0, nil, nil), 0, chain)
	unlock()
	r.setPlacement(id, n, chain)
	return id, nil
}

// Fetch retrieves a column by name through the normal Data Cyclotron
// path: request every fragment, wait for them to flow past (any
// order), pin, merge, and unpin. The column comes back in the form the
// merge gives — narrow when every fragment is narrow at one exponent
// (bat.Concat) — and copied out of any receive slab, which the ring
// recycles once the fetch returns.
func (n *Node) Fetch(name string) (*bat.BAT, error) {
	ids, ok := n.ring.Fragments(name)
	if !ok {
		return nil, fmt.Errorf("live: unknown fragment %q", name)
	}
	defer n.exitQuery(n.enterQuery())
	q := core.QueryID(atomic.AddInt64(&n.nextQ, 1))<<16 | core.QueryID(n.id)
	dc := &queryDC{n: n, q: q}
	defer func() {
		n.mu.Lock()
		n.rt.CancelQuery(q, ids)
		n.mu.Unlock()
	}()
	dc.announce(ids)
	merged, err := dc.pinMerged(&fragHandle{name: name, ids: ids})
	if err != nil {
		return nil, err
	}
	return n.ownResult(merged), nil
}

// UpdateColumn applies fn to the latest version of the named column,
// atomically installing the result as the new version (§6.4).
// Concurrent updates of the same column serialize; readers holding the
// previous version continue on it. fn sees the current fragments merged
// and must keep the column's row count, since a table's columns share
// one length: a version of another length is refused with an error, and
// nothing is installed. The new version is cut at the current fragment
// boundaries, each fragment installed at its own owner. It returns the
// new version number (base data is version 0).
func (r *Ring) UpdateColumn(name string, fn func(*bat.BAT) *bat.BAT) (int, error) {
	ids, ok := r.Fragments(name)
	if !ok {
		return 0, fmt.Errorf("live: unknown column %q", name)
	}
	lock := r.columnLock(name)
	lock.Lock()
	defer lock.Unlock()

	// Gather: under the column lock no move can flip an owner.
	owners := make([]*Node, len(ids))
	frags := make([]*bat.BAT, len(ids))
	for i, id := range ids {
		owner := r.ownerOf(id)
		if owner == nil {
			return 0, fmt.Errorf("live: no owner for fragment %d of %q", i, name)
		}
		owner.mu.Lock()
		frags[i] = owner.store[id].b
		owner.mu.Unlock()
		owners[i] = owner
	}
	next := fn(bat.Concat(frags))
	if next == nil {
		return 0, fmt.Errorf("live: update produced nil version")
	}
	rows := 0
	for _, f := range frags {
		rows += f.Len()
	}
	if next.Len() != rows {
		return 0, fmt.Errorf("live: new version of %q has %d rows, the column %d: a table's columns share one length",
			name, next.Len(), rows)
	}
	// Cut at the current boundaries; each fragment must fit the ring's
	// regions.
	at := 0
	for i, f := range frags {
		frags[i], at = next.Slice(at, at+f.Len()), at+f.Len()
		if wire := dataHdrSize + bat.MarshalSize(frags[i]); wire > r.MaxMessage() {
			return 0, fmt.Errorf("live: new version of %q fragment %d (%d wire bytes) exceeds ring message limit %d",
				name, i, wire, r.MaxMessage())
		}
	}

	// Install every fragment with all owners and live replica holders
	// locked at once: the stores never expose a mix of old and new
	// fragments. A query whose pins straddle the update may still pick
	// up adjacent versions of different fragments — versioning is per
	// fragment — which the multi-fragment pin reconciles (frag.go).
	reps := make([][]*Node, len(ids))
	locked := append([]*Node(nil), owners...)
	for i, id := range ids {
		reps[i] = r.replicaNodes(id)
		locked = append(locked, reps[i]...)
	}
	unlock := lockNodes(locked...)
	defer unlock()
	version := 0
	for i, id := range ids {
		ver := owners[i].store[id].ver + 1
		installOwner(owners[i], id, newFragment(frags[i], ver, nil, nil), heldLOI(id, reps[i]), reps[i])
		// Advance the catalog while the owner's store is still locked:
		// a pin that reads the catalog from here on can no longer
		// validate an entry labelled with an older version (the catalog
		// read is the pin's linearization point; a pin that read just
		// before completes against the old version, ordinary MVCC).
		// Dropping the superseded cache entries is then memory hygiene.
		r.idsMu.RLock()
		r.fragVer[id].Store(int64(ver))
		r.idsMu.RUnlock()
		for _, node := range r.nodeList() {
			if node.hot != nil {
				node.hot.invalidateBelow(id, ver)
			}
		}
		if ver > version {
			version = ver
		}
	}
	return version, nil
}

// Version reports the current version of a column (the highest version
// among its fragments; updates bump every fragment together). It reads
// the ring's version catalog — the same source the hot-set cache
// validates against — so it never touches an owner lock.
func (r *Ring) Version(name string) (int, error) {
	ids, ok := r.Fragments(name)
	if !ok {
		return 0, fmt.Errorf("live: unknown column %q", name)
	}
	version := 0
	for _, id := range ids {
		if v := r.fragVersion(id); v > version {
			version = v
		}
	}
	return version, nil
}

// Submit executes sql after a nomadic phase (§6.1): every node bids its
// current load (active queries) and the query settles on the cheapest.
func (r *Ring) Submit(sql string) (*mal.ResultSet, error) {
	nodes := r.nodeList()
	best := nodes[0]
	bestBid := int64(1 << 62)
	for _, n := range nodes {
		if bid := atomic.LoadInt64(&n.activeQueries); bid < bestBid {
			bestBid = bid
			best = n
		}
	}
	return best.ExecSQL(sql)
}
