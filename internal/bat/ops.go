package bat

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
)

// The operators in this file are devirtualized: each call dispatches on
// the column kind ONCE, then runs a monomorphic loop over the typed
// payload slice (the generic functions below instantiate per kind, and
// per code width for narrow int and decimal float columns — narrow.go).
// Sorted tails take a binary-search span and return an O(1) zero-copy
// view; unsorted scans count qualifying rows first and allocate the
// index buffer at its exact size. The boxed row-at-a-time path lives in
// generic.go and is reached only for literals that cannot be normalized
// to the column kind.

// Predicate bounds for Select. Nil means unbounded on that side.
type Bound struct {
	Value     any
	Inclusive bool
}

// emptyLike returns a zero-row BAT with b's column kinds and density.
func (b *BAT) emptyLike() *BAT {
	return &BAT{Name: b.Name, h: b.h.view(0, 0), t: b.t.view(0, 0)}
}

// viewAll returns the whole BAT as a zero-copy view.
func (b *BAT) viewAll() *BAT {
	return &BAT{Name: b.Name, h: b.h, t: b.t}
}

// bounds is a range predicate whose limits are normalized to the
// payload type and hoisted out of the scan loop. Numeric kinds always
// arrive closed — both sides present and inclusive: an open side takes
// the type's extreme, an exclusive one steps one value inward — which
// is the form the branch-light scan loop handles; strings have no
// largest value and keep the flags.
type bounds[T cmp.Ordered] struct {
	lo, hi         T
	hasLo, hasHi   bool
	loIncl, hiIncl bool
}

func closedBounds[T cmp.Ordered](lo, hi T) bounds[T] {
	return bounds[T]{lo: lo, hi: hi, hasLo: true, hasHi: true, loIncl: true, hiIncl: true}
}

// noBounds is an unsatisfiable range: what a literal beyond the column
// type's domain normalizes to.
func noBounds[T int64 | Oid | float64]() bounds[T] { return closedBounds[T](1, 0) }

func (r bounds[T]) closed() bool { return r.hasLo && r.hasHi && r.loIncl && r.hiIncl }

// empty reports a contradictory range: no value can lie inside it.
func (r bounds[T]) empty() bool {
	return r.hasLo && r.hasHi && (r.lo > r.hi || (r.lo == r.hi && !(r.loIncl && r.hiIncl)))
}

// holds is the general predicate, for bounds that are not closed.
func (r bounds[T]) holds(v T) bool {
	if r.hasLo && (v < r.lo || (v == r.lo && !r.loIncl)) {
		return false
	}
	if r.hasHi && (v > r.hi || (v == r.hi && !r.hiIncl)) {
		return false
	}
	return true
}

// b2i compiles to a flag move, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// slicePool recycles the worst-case-sized scratch of the single-pass
// kernels: a buffer sized for "every row qualifies" is dead as soon as
// the caller has gathered (or copied out) the qualifying prefix, so it
// goes back instead of leaving megabytes of garbage per scan. The
// pooled object is the *[]T itself — get hands it out, put takes the
// same pointer back — so a round trip allocates nothing.
type slicePool[T any] struct{ pool sync.Pool } // of *[]T

func (sp *slicePool[T]) get(n int) *[]T {
	p, _ := sp.pool.Get().(*[]T)
	if p == nil {
		p = new([]T)
	}
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

// put takes back what get returned; nil (a list that was never pooled)
// is a no-op.
func (sp *slicePool[T]) put(p *[]T) {
	if p != nil {
		sp.pool.Put(p)
	}
}

var (
	idxPool slicePool[int32]  // row positions: rangeIdx, keptRows, mergeMemberIdx, gallopProbeIdx
	oidPool slicePool[Oid]    // candidate OIDs: rangeOids, candOids; an Arena's keptHead
	bitPool slicePool[uint64] // row bitmaps: keptList, keptRows; an Arena's masks
	u8Pool  slicePool[uint8]  // an Arena's merged codes, one pool per width: mergeCodes; SumKept's kept codes
	u16Pool slicePool[uint16]
	u32Pool slicePool[uint32]
)

// Arena holds the pooled buffers one query drew: the bitmaps of its
// masks (SelectMask), which its parts and its merge read, and the
// merged result columns (FetchAll, ConcatAll), which live as long as
// the query's result. Whoever is done with the result hands them back with
// Release; a nil Arena draws with make, and an Arena never released
// leaves its buffers to the collector. The lists are typed, so an
// Arena that draws nothing allocates nothing. Draws and Release may
// run on different goroutines.
type Arena struct {
	mu   sync.Mutex
	u8   drawn[uint8]
	u16  drawn[uint16]
	u32  drawn[uint32]
	oids drawn[Oid]
	bits drawn[uint64]
}

// Release hands every buffer the arena drew back to its pool. Nothing
// may read a column merged into it afterwards; a second Release, with
// no draw between, puts nothing back. In a test binary each buffer is
// poisoned first, so a column read after its Release fails an answer
// check instead of passing by luck.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.u8.release(&u8Pool)
	a.u16.release(&u16Pool)
	a.u32.release(&u32Pool)
	a.oids.release(&oidPool)
	a.bits.release(&bitPool)
}

// draw is n elements of T, from the arena's pool for T (uninitialized),
// or made when a is nil.
func draw[T code | Oid | uint64](a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var v []T
	switch p := any(&v).(type) {
	case *[]uint8:
		*p = a.u8.draw(&u8Pool, n)
	case *[]uint16:
		*p = a.u16.draw(&u16Pool, n)
	case *[]uint32:
		*p = a.u32.draw(&u32Pool, n)
	case *[]Oid:
		*p = a.oids.draw(&oidPool, n)
	case *[]uint64:
		*p = a.bits.draw(&bitPool, n)
	}
	return v
}

// poison is what Release overwrites a buffer with when poisonReleased
// holds: in a test binary.
const poison = 0xdb

var poisonReleased = testing.Testing()

// drawn is an Arena's list of one element type's buffers.
type drawn[T code | Oid | uint64] []*[]T

func (d *drawn[T]) draw(pool *slicePool[T], n int) []T {
	p := pool.get(n)
	*d = append(*d, p)
	return (*p)[:n:n] // an append past n must not write the pool's spare room
}

func (d *drawn[T]) release(pool *slicePool[T]) {
	for _, p := range *d {
		if poisonReleased {
			b := (*p)[:cap(*p)]
			for i := range b {
				b[i] = ^T(0) / 0xff * poison // the byte in every byte
			}
		}
		pool.put(p)
	}
	*d = nil
}

// rangeRows writes first + i, ascending, to out for every row i of the
// unsorted payload vals whose value lies within r, and returns how many:
// one pass, every row number stored and the cursor advanced by the
// predicate's outcome, so the loop body has no data-dependent branch to
// mispredict. out holds len(vals) entries.
func rangeRows[T cmp.Ordered, O int32 | Oid](vals []T, out []O, first O, r bounds[T]) int {
	n := 0
	out = out[:len(vals)]
	if r.closed() {
		lo, hi := r.lo, r.hi
		for i, v := range vals {
			out[n] = first + O(i)
			n += b2i(v >= lo) & b2i(v <= hi)
		}
	} else {
		for i, v := range vals {
			out[n] = first + O(i)
			n += b2i(r.holds(v))
		}
	}
	return n
}

// rangeIdx is rangeRows' positions, in idxPool scratch sized for the
// worst case, which goes back after the caller's gather.
func rangeIdx[T cmp.Ordered](vals []T, r bounds[T]) *[]int32 {
	p := idxPool.get(len(vals))
	*p = (*p)[:rangeRows(vals, *p, 0, r)]
	return p
}

// rangeOids is rangeRows for a dense head: the pass writes the
// qualifying rows' OIDs themselves, base + position, so a candidate
// list needs no gather afterwards.
func rangeOids[T cmp.Ordered](vals []T, base Oid, r bounds[T]) []Oid {
	p := oidPool.get(len(vals))
	return exactOids(p, rangeRows(vals, *p, base, r))
}

// candOids is rangeOids restricted to the rows the ascending OID list c
// names: vals[o-base] is tested for each candidate o and nothing else is
// read. c must lie inside [base, base+len(vals)) — the caller clips it —
// and may repeat an OID, which is reported once: copies are adjacent.
func candOids[T cmp.Ordered](vals []T, base Oid, c []Oid, r bounds[T]) []Oid {
	if len(c) == 0 {
		return nil
	}
	p := oidPool.get(len(c))
	out := *p
	n := 0
	prev := ^c[0] // differs from the first candidate
	if r.closed() {
		lo, hi := r.lo, r.hi
		for _, o := range c {
			v := vals[o-base]
			out[n] = o
			n += b2i(v >= lo) & b2i(v <= hi) & b2i(o != prev)
			prev = o
		}
	} else {
		for _, o := range c {
			out[n] = o
			n += b2i(r.holds(vals[o-base])) & b2i(o != prev)
			prev = o
		}
	}
	return exactOids(p, n)
}

// exactOids copies the first n OIDs of a pooled scratch into a slice of
// exactly that size and hands the scratch back: a candidate list lives
// as long as its query, a worst-case-sized buffer must not.
func exactOids(p *[]Oid, n int) []Oid {
	out := append([]Oid(nil), (*p)[:n]...) // unlike make, nothing is zeroed first
	oidPool.put(p)
	return out
}

// rangeSpan binary-searches a sorted payload for the qualifying
// half-open row range [from, to): O(log n).
func rangeSpan[T cmp.Ordered](vals []T, r bounds[T]) (from, to int) {
	from, to = 0, len(vals)
	if r.hasLo {
		l := r.lo
		if r.loIncl {
			from = sort.Search(len(vals), func(i int) bool { return vals[i] >= l })
		} else {
			from = sort.Search(len(vals), func(i int) bool { return vals[i] > l })
		}
	}
	if r.hasHi {
		h := r.hi
		if r.hiIncl {
			to = sort.Search(len(vals), func(i int) bool { return vals[i] > h })
		} else {
			to = sort.Search(len(vals), func(i int) bool { return vals[i] >= h })
		}
	}
	if to < from {
		to = from
	}
	return from, to
}

// hits names the rows a select kept, in row order: a contiguous span
// (sorted and dense tails, trivial predicates — answered without a
// scan and materialized as a zero-copy view) or the ascending position
// list of a scan.
type hits struct {
	from, to int      // the span, when !scanned
	idx      []int32  // the positions, when scanned
	pooled   *[]int32 // idx's idxPool buffer, handed back after the gather; nil: not pooled
	scanned  bool
	constant bool // every kept tail value is the same, hence sorted
}

// selectTyped runs the monomorphic select kernel over one typed payload:
// sorted tails get the O(log n) span, unsorted ones the single-pass scan.
func selectTyped[T cmp.Ordered](t *Column, vals []T, r bounds[T]) hits {
	if r.empty() {
		return hits{}
	}
	if t.Sorted() {
		from, to := rangeSpan(vals, r)
		return hits{from: from, to: to}
	}
	p := rangeIdx(vals, r)
	return hits{idx: *p, pooled: p, scanned: true, constant: r.closed() && r.lo == r.hi}
}

const (
	maxI64f = float64(1 << 63)  // 2^63, exact in float64
	minI64f = -float64(1 << 63) // -2^63, exact in float64
	maxU64f = float64(1 << 64)  // 2^64, exact in float64
)

// normIntBound turns a Bound over an int column into an inclusive int64
// limit. Float literals round toward the inside of the range, so mixed
// int/float predicates stay on the typed path. has=false: unbounded.
// empty=true: unsatisfiable. ok=false: fall back to the generic path.
func normIntBound(bd *Bound, isLo bool) (v int64, has, empty, ok bool) {
	if bd == nil {
		return 0, false, false, true
	}
	switch x := bd.Value.(type) {
	case int64:
		v = x
	case int:
		v = int64(x)
	case Oid:
		v = int64(x)
	case float64:
		if math.IsNaN(x) {
			return 0, false, false, false
		}
		if isLo {
			if x >= maxI64f {
				return 0, false, true, true
			}
			if x < minI64f {
				return 0, false, false, true
			}
			if c := math.Ceil(x); c != x {
				if c >= maxI64f {
					return 0, false, true, true
				}
				return int64(c), true, false, true // fractional: inclusiveness moot
			}
		} else {
			if x < minI64f {
				return 0, false, true, true
			}
			if x >= maxI64f {
				return 0, false, false, true
			}
			if f := math.Floor(x); f != x {
				return int64(f), true, false, true
			}
		}
		v = int64(x)
	default:
		return 0, false, false, false
	}
	if !bd.Inclusive {
		if isLo {
			if v == math.MaxInt64 {
				return 0, false, true, true
			}
			v++
		} else {
			if v == math.MinInt64 {
				return 0, false, true, true
			}
			v--
		}
	}
	return v, true, false, true
}

// normOidBound is normIntBound for OID (unsigned) columns.
func normOidBound(bd *Bound, isLo bool) (v Oid, has, empty, ok bool) {
	if bd == nil {
		return 0, false, false, true
	}
	switch x := bd.Value.(type) {
	case Oid:
		v = x
	case int64:
		if x < 0 {
			if isLo {
				return 0, false, false, true // every OID exceeds it
			}
			return 0, false, true, true
		}
		v = Oid(x)
	case int:
		if x < 0 {
			if isLo {
				return 0, false, false, true
			}
			return 0, false, true, true
		}
		v = Oid(x)
	case float64:
		if math.IsNaN(x) {
			return 0, false, false, false
		}
		if x < 0 {
			if isLo {
				return 0, false, false, true
			}
			return 0, false, true, true
		}
		if x >= maxU64f {
			if isLo {
				return 0, false, true, true
			}
			return 0, false, false, true
		}
		if isLo {
			if c := math.Ceil(x); c != x {
				if c >= maxU64f {
					return 0, false, true, true
				}
				return Oid(c), true, false, true
			}
		} else if f := math.Floor(x); f != x {
			return Oid(f), true, false, true
		}
		v = Oid(x)
	default:
		return 0, false, false, false
	}
	if !bd.Inclusive {
		if isLo {
			if v == ^Oid(0) {
				return 0, false, true, true
			}
			v++
		} else {
			if v == 0 {
				return 0, false, true, true
			}
			v--
		}
	}
	return v, true, false, true
}

// normFloatBound turns a Bound over a float column into a typed limit;
// int literals widen to float64 exactly like the boxed comparator did.
func normFloatBound(bd *Bound) (v float64, has, ok bool) {
	if bd == nil {
		return 0, false, true
	}
	switch x := bd.Value.(type) {
	case float64:
		if math.IsNaN(x) {
			return 0, false, false
		}
		return x, true, true
	case int64:
		return float64(x), true, true
	case int:
		return float64(x), true, true
	}
	return 0, false, false
}

// intBounds normalizes a Bound pair over an int column to closed form.
// ok=false: fall back to the generic path.
func intBounds(lo, hi *Bound) (r bounds[int64], ok bool) {
	loV, hasLo, emptyLo, ok1 := normIntBound(lo, true)
	hiV, hasHi, emptyHi, ok2 := normIntBound(hi, false)
	if emptyLo || emptyHi {
		return noBounds[int64](), ok1 && ok2
	}
	if !hasLo {
		loV = math.MinInt64
	}
	if !hasHi {
		hiV = math.MaxInt64
	}
	return closedBounds(loV, hiV), ok1 && ok2
}

// oidBounds is intBounds for OID columns.
func oidBounds(lo, hi *Bound) (r bounds[Oid], ok bool) {
	loV, _, emptyLo, ok1 := normOidBound(lo, true) // an open lower side is OID 0, loV's zero value
	hiV, hasHi, emptyHi, ok2 := normOidBound(hi, false)
	if emptyLo || emptyHi {
		return noBounds[Oid](), ok1 && ok2
	}
	if !hasHi {
		hiV = ^Oid(0)
	}
	return closedBounds(loV, hiV), ok1 && ok2
}

// floatBounds is intBounds for float columns: an exclusive limit steps
// to the adjacent float64, an open side is the infinity.
func floatBounds(lo, hi *Bound) (r bounds[float64], ok bool) {
	loV, hasLo, ok1 := normFloatBound(lo)
	hiV, hasHi, ok2 := normFloatBound(hi)
	switch {
	case !hasLo:
		loV = math.Inf(-1)
	case !lo.Inclusive:
		loV = math.Nextafter(loV, math.Inf(1))
	}
	switch {
	case !hasHi:
		hiV = math.Inf(1)
	case !hi.Inclusive:
		hiV = math.Nextafter(hiV, math.Inf(-1))
	}
	if (hasLo && !lo.Inclusive && math.IsInf(loV, 1)) || (hasHi && !hi.Inclusive && math.IsInf(hiV, -1)) {
		return noBounds[float64](), ok1 && ok2 // nothing beyond an infinity
	}
	return closedBounds(loV, hiV), ok1 && ok2
}

func strBounds(lo, hi *Bound) (r bounds[string], ok bool) {
	var ok1, ok2 bool
	r.lo, r.hasLo, ok1 = normStrBound(lo)
	r.hi, r.hasHi, ok2 = normStrBound(hi)
	r.loIncl = lo == nil || lo.Inclusive
	r.hiIncl = hi == nil || hi.Inclusive
	return r, ok1 && ok2
}

func normStrBound(bd *Bound) (v string, has, ok bool) {
	if bd == nil {
		return "", false, true
	}
	if s, isStr := bd.Value.(string); isStr {
		return s, true, true
	}
	return "", false, false
}

// selectRows evaluates a range predicate over the tail and names the
// qualifying rows; Select and USelect differ only in what they gather.
// ok=false: the literals cannot be normalized to the column kind and the
// caller takes the boxed path.
func (b *BAT) selectRows(lo, hi *Bound) (h hits, ok bool) {
	switch b.t.kind {
	case KInt:
		r, ok := intBounds(lo, hi)
		switch {
		case !ok:
		case b.t.narrow != nil:
			return b.t.selectCoded(r, r.empty(), r.lo == r.hi), true
		default:
			return selectTyped(b.t, b.t.ints, r), true
		}
	case KFloat:
		r, ok := floatBounds(lo, hi)
		switch {
		case !ok:
		case b.t.narrow != nil:
			return b.t.selectCoded(b.t.codeBounds(r), r.empty(), r.lo == r.hi), true
		default:
			return selectTyped(b.t, b.t.floats, r), true
		}
	case KOid:
		r, ok := oidBounds(lo, hi)
		switch {
		case !ok:
		case b.t.dense:
			return b.t.denseSpan(r.lo, r.hi), true
		default:
			return selectTyped(b.t, b.t.oids, r), true
		}
	case KStr:
		r, ok := strBounds(lo, hi)
		switch {
		case !ok:
		case b.t.narrow != nil:
			return b.t.selectCoded(b.t.dictBounds(r), r.empty(), r.closed() && r.lo == r.hi), true
		default:
			return selectTyped(b.t, b.t.strs, r), true
		}
	case KBool:
		return b.t.selectBool(lo, hi)
	}
	return hits{}, false
}

// Select returns the BUNs whose tail value lies within [lo, hi]
// (respecting inclusiveness; nil bounds are open). The result preserves
// head values and tail values of the qualifying rows, like MAL's
// algebra.select. Sorted (and dense) tails are answered with a binary
// search and an O(1) slice view instead of a scan.
func (b *BAT) Select(lo, hi *Bound) *BAT {
	if lo == nil && hi == nil {
		return b.viewAll()
	}
	h, ok := b.selectRows(lo, hi)
	switch {
	case !ok:
		return b.selectGeneric(lo, hi)
	case !h.scanned:
		return b.Slice(h.from, h.to)
	}
	nb := b.takeRows(h.idx)
	idxPool.put(h.pooled)
	nb.t.sorted = nb.t.sorted || h.constant
	return nb
}

// USelect is the head-only Select, MAL's algebra.uselect: it returns
// the candidate list [head|head] of the rows whose tail lies within the
// bounds — Select(lo, hi).Mirror() without ever gathering the tail, and
// with both sides sharing one column. Row order is preserved, so the
// list is sorted whenever b's head is: over a dense-headed column it is
// an ascending OID list, written by the scan or the bitmap (keptList).
func (b *BAT) USelect(lo, hi *Bound) *BAT {
	if lo == nil && hi == nil {
		return b.Mirror()
	}
	if l, ok := keptList([]Term{{B: b, Lo: lo, Hi: hi}}); ok {
		return l
	}
	if b.h.dense && !b.t.Sorted() {
		if oids, ok := b.scanDense(nil, false, lo, hi); ok {
			return candList(b.Name, oids)
		}
	}
	var c *Column
	h, ok := b.selectRows(lo, hi)
	switch {
	case !ok:
		c = b.selectGeneric(lo, hi).h
	case !h.scanned:
		c = b.h.view(h.from, h.to)
	default:
		c = b.h.take32(h.idx)
		idxPool.put(h.pooled)
		c.sorted = b.h.Sorted()
	}
	return &BAT{Name: b.Name, h: c, t: c}
}

// USelectCand is USelect with MonetDB's candidate argument: of the rows
// of b whose head is among cand's heads, the candidate list of those
// whose tail lies within the bounds. It is defined as
//
//	b.Semijoin(cand).USelect(lo, hi)
//
// and computed without the intersection: a conjunction chains its
// predicates through it, each testing only the rows the previous one
// kept. Copies of an OID in cand change nothing, as in Semijoin.
//
//   - b's head dense, cand an ascending OID list (every served fragment
//     and every list a select over one yields): one branch-light pass
//     over the candidates, clipped to b's head range by gallopTo.
//   - b's tail sorted: the binary-searched span, then the span's heads
//     intersected with cand — the rows were never scanned.
//   - cand dense: the composed form is already a sub-slice scan,
//     Semijoin against a dense range being an O(1) view.
//   - anything else (no bound at all, which keeps a NaN that every
//     bounded range drops; unsorted or non-OID heads, bool tails,
//     literals the column kind cannot normalize): the composed form.
func (b *BAT) USelectCand(cand *BAT, lo, hi *Bound) *BAT {
	switch {
	case lo == nil && hi == nil:
	case b.t.Sorted():
		if h, ok := b.selectRows(lo, hi); ok && !h.scanned {
			// Mirror before the semijoin so one column is gathered, and
			// after it because a sliced result is two views.
			return b.Slice(h.from, h.to).Mirror().Semijoin(cand).Mirror()
		}
	case b.h.dense && cand.h.kind == KOid && cand.h.Sorted() && !cand.h.dense:
		c := cand.h.oids
		from := gallopTo(c, 0, b.h.base)
		to := gallopTo(c, from, b.h.base+Oid(b.h.n))
		if oids, ok := b.scanDense(c[from:to], true, lo, hi); ok {
			return candList(b.Name, oids)
		}
	}
	return b.Semijoin(cand).USelect(lo, hi)
}

// candList wraps ascending OIDs as the candidate list [oids|oids].
func candList(name string, oids []Oid) *BAT {
	c := &Column{kind: KOid, oids: oids, sorted: true}
	return &BAT{Name: name, h: c, t: c}
}

// scanDense evaluates a range predicate over the unsorted tail of a
// dense-headed BAT and returns the qualifying rows' OIDs, ascending: of
// all rows, or — restricted — of the rows the ascending list c names,
// which the caller has clipped to b's head range. ok=false: a bool tail,
// or literals that do not normalize to the column kind; the caller takes
// the general path.
func (b *BAT) scanDense(c []Oid, restricted bool, lo, hi *Bound) (oids []Oid, ok bool) {
	if b.t.narrow != nil {
		if r, ok := b.t.narrowBounds(lo, hi); ok {
			return b.t.narrow.scanOids(b.h.base, c, restricted, r), true
		}
		return nil, false
	}
	switch b.t.kind {
	case KInt:
		if r, ok := intBounds(lo, hi); ok {
			return scanOids(b.t.ints, b.h.base, c, restricted, r), true
		}
	case KFloat:
		if r, ok := floatBounds(lo, hi); ok {
			return scanOids(b.t.floats, b.h.base, c, restricted, r), true
		}
	case KOid:
		if r, ok := oidBounds(lo, hi); ok {
			return scanOids(b.t.oids, b.h.base, c, restricted, r), true
		}
	case KStr:
		if r, ok := strBounds(lo, hi); ok {
			return scanOids(b.t.strs, b.h.base, c, restricted, r), true
		}
	}
	return nil, false
}

// narrowBounds normalizes a literal range over a narrow column to the
// integers its codes stand for, ref + code: an int column's values, a
// decimal column's scaled integers (codeBounds), a dictionary column's
// codes (dictBounds). ok=false: the literals do not normalize to the
// column's kind.
func (c *Column) narrowBounds(lo, hi *Bound) (r bounds[int64], ok bool) {
	switch c.kind {
	case KInt:
		return intBounds(lo, hi)
	case KFloat:
		fr, ok := floatBounds(lo, hi)
		return c.codeBounds(fr), ok
	case KStr:
		sr, ok := strBounds(lo, hi)
		return c.dictBounds(sr), ok
	}
	return r, false
}

func scanOids[T cmp.Ordered](vals []T, base Oid, c []Oid, restricted bool, r bounds[T]) []Oid {
	switch {
	case r.empty():
		return nil
	case restricted:
		return candOids(vals, base, c, r)
	}
	return rangeOids(vals, base, r)
}

// denseSpan answers the closed range [lo, hi] over a dense OID column
// with pure arithmetic.
func (c *Column) denseSpan(lo, hi Oid) hits {
	base, n := c.base, c.n
	if n == 0 || lo > hi || hi < base || lo > base+Oid(n-1) {
		return hits{}
	}
	from, to := 0, n
	if lo > base {
		from = int(lo - base)
	}
	if hi < base+Oid(n-1) {
		to = int(hi-base) + 1
	}
	if to < from {
		to = from
	}
	return hits{from: from, to: to}
}

// selectBool evaluates the bounds against the two possible values once,
// then runs a monomorphic equality scan (or answers with a span when
// both or neither value qualifies).
func (c *Column) selectBool(lo, hi *Bound) (h hits, ok bool) {
	if (lo != nil && !isBoolVal(lo.Value)) || (hi != nil && !isBoolVal(hi.Value)) {
		return hits{}, false // non-bool literal: boxed path panics as before
	}
	qualifies := func(v bool) bool {
		if lo != nil {
			lv := lo.Value.(bool)
			if boolLess(v, lv) || (v == lv && !lo.Inclusive) {
				return false
			}
		}
		if hi != nil {
			hv := hi.Value.(bool)
			if boolLess(hv, v) || (v == hv && !hi.Inclusive) {
				return false
			}
		}
		return true
	}
	allowF, allowT := qualifies(false), qualifies(true)
	switch {
	case allowF && allowT:
		return hits{to: len(c.bools)}, true
	case !allowF && !allowT:
		return hits{}, true
	}
	return hits{idx: eqScan(c.bools, allowT, true), scanned: true, constant: true}, true
}

func isBoolVal(v any) bool { _, ok := v.(bool); return ok }

func boolLess(a, b bool) bool { return !a && b }

// eqScan returns the positions whose value equals (keep=true) or
// differs from (keep=false) x, count-then-fill.
func eqScan[T comparable](vals []T, x T, keep bool) []int32 {
	n := 0
	for _, v := range vals {
		if (v == x) == keep {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i, v := range vals {
		if (v == x) == keep {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// SelectEq returns the BUNs whose tail equals v.
func (b *BAT) SelectEq(v any) *BAT {
	bd := &Bound{Value: v, Inclusive: true}
	return b.Select(bd, bd)
}

// SelectNe returns the BUNs whose tail differs from v.
func (b *BAT) SelectNe(v any) *BAT {
	switch b.t.kind {
	case KInt:
		switch x := v.(type) {
		case int64:
			return b.takeRows(eqScan(b.t.int64s(), x, false))
		case int:
			return b.takeRows(eqScan(b.t.int64s(), int64(x), false))
		case Oid:
			return b.takeRows(eqScan(b.t.int64s(), int64(x), false))
		case float64:
			if x != math.Trunc(x) || x >= maxI64f || x < minI64f {
				return b.viewAll() // no int equals a fractional/out-of-range float
			}
			return b.takeRows(eqScan(b.t.int64s(), int64(x), false))
		}
	case KFloat:
		switch x := v.(type) {
		case float64:
			return b.takeRows(eqScan(b.t.float64s(), x, false))
		case int64:
			return b.takeRows(eqScan(b.t.float64s(), float64(x), false))
		case int:
			return b.takeRows(eqScan(b.t.float64s(), float64(x), false))
		}
	case KOid:
		switch x := v.(type) {
		case Oid:
			return b.takeRows(eqScan(b.t.oidValues(), x, false))
		case int64:
			if x < 0 {
				return b.viewAll()
			}
			return b.takeRows(eqScan(b.t.oidValues(), Oid(x), false))
		case int:
			if x < 0 {
				return b.viewAll()
			}
			return b.takeRows(eqScan(b.t.oidValues(), Oid(x), false))
		}
	case KStr:
		if x, isStr := v.(string); isStr {
			return b.takeRows(eqScan(b.t.strings(), x, false))
		}
	case KBool:
		if x, isBool := v.(bool); isBool {
			return b.takeRows(eqScan(b.t.bools, x, false))
		}
	}
	return b.selectNeGeneric(v)
}

// eqIdx returns the positions where the two aligned payloads agree.
func eqIdx[T comparable](a, b []T) []int32 {
	n := 0
	for i, v := range a {
		if v == b[i] {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i, v := range a {
		if v == b[i] {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// EqRows returns the rows of b whose tail value equals r's tail at the
// same position (a positional equality filter, used for cyclic join
// predicates).
func (b *BAT) EqRows(r *BAT) *BAT {
	if b.Len() != r.Len() {
		panic("bat: EqRows length mismatch")
	}
	if b.t.kind != r.t.kind {
		return b.eqRowsGeneric(r) // mixed numeric kinds compare boxed
	}
	var idx []int32
	switch b.t.kind {
	case KOid:
		idx = eqIdx(b.t.oidValues(), r.t.oidValues())
	case KInt:
		idx = eqIdx(b.t.int64s(), r.t.int64s())
	case KFloat:
		idx = eqIdx(b.t.float64s(), r.t.float64s())
	case KStr:
		idx = eqIdx(b.t.strings(), r.t.strings())
	case KBool:
		idx = eqIdx(b.t.bools, r.t.bools)
	default:
		return b.eqRowsGeneric(r)
	}
	nb := &BAT{Name: b.Name, h: b.h.take32(idx), t: b.t.take32(idx)}
	nb.h.sorted = b.h.Sorted()
	return nb
}

// The join kernels below pick their algorithm from the operands' sizes
// and properties, MonetDB-style, and keep no state between calls. Each
// returns the matching row pairs (li[k], ri[k]) in one order: probe row
// ascending, and the build rows of one probe row ascending — the order
// of the boxed joinGeneric, which group first-appearance order, and
// through it every served result, depends on.

// denseFill bounds the dense arrays that stand in for hash tables over
// a small key domain: an array is used while it has at most this many
// slots per row the kernel reads.
const denseFill = 4

// chainTable indexes vals by value: head[v] is the first row holding v
// and next[i] the row after i with the same value (-1 ends a chain).
// Built backwards, so a chain runs in ascending row order; two
// allocations regardless of key skew. It is built on the smaller side
// of a join, whose keys are mostly distinct, so it is sized to it.
func chainTable[K comparable](vals []K) (head map[K]int32, next []int32) {
	head = make(map[K]int32, len(vals))
	next = make([]int32, len(vals))
	for i := len(vals) - 1; i >= 0; i-- {
		if first, dup := head[vals[i]]; dup {
			next[i] = first
		} else {
			next[i] = -1
		}
		head[vals[i]] = int32(i)
	}
	return head, next
}

// hashJoinTyped hashes the build payload rvals and probes it with lvals:
// one map instantiation per column kind, no boxing. MAL plans mostly run
// foreign-key joins that match ~1:1, so the probe length sizes the
// output.
func hashJoinTyped[T comparable](lvals, rvals []T) (li, ri []int32) {
	head, next := chainTable(rvals)
	li = make([]int32, 0, len(lvals))
	ri = make([]int32, 0, len(lvals))
	for i, v := range lvals {
		if j, ok := head[v]; ok {
			for ; j >= 0; j = next[j] {
				li = append(li, int32(i))
				ri = append(ri, j)
			}
		}
	}
	return li, ri
}

// hashSmaller joins two comparable payloads by hashing the smaller one.
// A table on the probe side is scanned with the build side's rows, in
// ascending order, and the matches are put back in join order.
func hashSmaller[T comparable](lvals, rvals []T) (li, ri []int32) {
	if len(lvals) >= len(rvals) {
		return hashJoinTyped(lvals, rvals)
	}
	head, next := chainTable(lvals)
	var pi, pj []int32
	for j, v := range rvals {
		if i, ok := head[v]; ok {
			for ; i >= 0; i = next[i] {
				pi = append(pi, i)
				pj = append(pj, int32(j))
			}
		}
	}
	return byProbeRow(pi, pj, len(lvals))
}

// byProbeRow puts matches found in build-row order into join order with
// a counting sort by probe row, which is stable, so each probe row's
// build rows stay ascending.
func byProbeRow(pi, pj []int32, nprobe int) (li, ri []int32) {
	start := make([]int32, nprobe+1)
	for _, i := range pi {
		start[i+1]++
	}
	for i := 1; i < nprobe; i++ {
		start[i] += start[i-1]
	}
	li = make([]int32, len(pi))
	ri = make([]int32, len(pi))
	for k, i := range pi {
		at := start[i]
		start[i]++
		li[at], ri[at] = i, pj[k]
	}
	return li, ri
}

// key is a payload a join searches or hashes in place: OIDs, wide ints,
// or a narrow int column's codes.
type key interface{ code | int64 | Oid }

// side is one operand of joinKeys, read in its own payload.
type side[T key] struct {
	v      []T
	sorted bool
	span   uint64 // every code lies in [0, span); 0: unknown, for wide values
}

// heads is a chain table's first-row lookup on build codes: a dense
// array indexed by code when their span is small next to the rows the
// join reads, a map otherwise.
type heads[U key] struct {
	dense []int32 // 1 + the first row, by code; 0: none
	m     map[U]int32
}

func newHeads[U key](span uint64, rows, read int) heads[U] {
	if span > 0 && span <= denseFill*uint64(read) {
		return heads[U]{dense: make([]int32, span)}
	}
	return heads[U]{m: make(map[U]int32, rows)}
}

func (h heads[U]) get(u U) (int32, bool) {
	if h.dense != nil {
		i := h.dense[u] - 1
		return i, i >= 0
	}
	i, ok := h.m[u]
	return i, ok
}

// push makes row i the first of u's chain and returns the row that was,
// -1 if none.
func (h heads[U]) push(u U, i int32) int32 {
	if h.dense != nil {
		prev := h.dense[u] - 1
		h.dense[u] = i + 1
		return prev
	}
	prev, ok := h.m[u]
	if !ok {
		prev = -1
	}
	h.m[u] = i
	return prev
}

// joinKeys joins two OID or int payloads in place. A probe value p
// matches the build code U(p + off) when lo <= p <= hi, the window of
// probe values the build side can hold at all; off maps the probe's
// code space onto the build's, both sides being value = ref + code (ref
// 0 for wide ints and OIDs).
//
//   - build sorted, and the probe sorted or not longer: each probe value
//     finds its run of build rows by binary search, a sorted probe by
//     galloping on from the previous one. No table at all.
//   - otherwise a chain table goes on the smaller side: a dense array
//     over the build's codes when their span allows (heads), a map
//     else.
func joinKeys[P, U key](p side[P], lo, hi P, off uint64, b side[U]) (li, ri []int32) {
	probe, build := p.v, b.v
	read := len(probe) + len(build)
	switch {
	case b.sorted && (p.sorted || len(probe) <= len(build)):
		li = make([]int32, 0, len(probe))
		ri = make([]int32, 0, len(probe))
		j := 0
		for i, x := range probe {
			if x < lo || x > hi {
				continue
			}
			u := U(uint64(x) + off)
			if p.sorted {
				j = gallopTo(build, j, u)
			} else {
				j, _ = slices.BinarySearch(build, u)
			}
			for k := j; k < len(build) && build[k] == u; k++ {
				li = append(li, int32(i))
				ri = append(ri, int32(k))
			}
		}
		return li, ri
	case len(probe) < len(build):
		head := newHeads[U](b.span, len(probe), read)
		next := make([]int32, len(probe))
		for i := len(probe) - 1; i >= 0; i-- {
			if x := probe[i]; x >= lo && x <= hi {
				next[i] = head.push(U(uint64(x)+off), int32(i))
			}
		}
		var pi, pj []int32
		for j, u := range build {
			if i, ok := head.get(u); ok {
				for ; i >= 0; i = next[i] {
					pi = append(pi, i)
					pj = append(pj, int32(j))
				}
			}
		}
		return byProbeRow(pi, pj, len(probe))
	}
	head := newHeads[U](b.span, len(build), read)
	next := make([]int32, len(build))
	for j := len(build) - 1; j >= 0; j-- {
		next[j] = head.push(build[j], int32(j))
	}
	li = make([]int32, 0, len(probe))
	ri = make([]int32, 0, len(probe))
	for i, x := range probe {
		if x < lo || x > hi {
			continue
		}
		if j, ok := head.get(U(uint64(x) + off)); ok {
			for ; j >= 0; j = next[j] {
				li = append(li, int32(i))
				ri = append(ri, j)
			}
		}
	}
	return li, ri
}

// joinInts is joinKeys for two int columns, each read in its own
// payload: a narrow build side is searched or hashed in its codes, and
// the probe values are mapped into them, as codeRange maps a select's
// literals. Nothing is widened.
func joinInts(p, c *Column) (li, ri []int32) {
	switch v := c.narrow.(type) {
	case nil:
		return joinIntProbe(p, side[int64]{v: c.ints, sorted: c.Sorted()}, 0, math.MinInt64, math.MaxInt64)
	case narrowInts[uint8]:
		return joinIntProbe(p, v.side(c.Sorted()), v.base, v.base, v.base+int64(v.hi))
	case narrowInts[uint16]:
		return joinIntProbe(p, v.side(c.Sorted()), v.base, v.base, v.base+int64(v.hi))
	case narrowInts[uint32]:
		return joinIntProbe(p, v.side(c.Sorted()), v.base, v.base, v.base+int64(v.hi))
	}
	panic("bat: bad narrow width")
}

// side is the codes as a join operand.
func (c narrowInts[U]) side(sorted bool) side[U] {
	return side[U]{v: c.v, sorted: sorted, span: uint64(c.hi) + 1}
}

// joinIntProbe dispatches on the probe column's payload. The build side
// b holds the values ref + code, every one of them in [lo, hi].
func joinIntProbe[U key](p *Column, b side[U], ref, lo, hi int64) (li, ri []int32) {
	switch v := p.narrow.(type) {
	case nil:
		return joinKeys(side[int64]{v: p.ints, sorted: p.Sorted()}, lo, hi, -uint64(ref), b)
	case narrowInts[uint8]:
		return joinCodes(v.side(p.Sorted()), v.base, b, ref, lo, hi)
	case narrowInts[uint16]:
		return joinCodes(v.side(p.Sorted()), v.base, b, ref, lo, hi)
	case narrowInts[uint32]:
		return joinCodes(v.side(p.Sorted()), v.base, b, ref, lo, hi)
	}
	panic("bat: bad narrow width")
}

// joinCodes is joinKeys for a narrow probe with reference pref: the
// build's value window [lo, hi] becomes a window of the probe's codes,
// or nothing matches.
func joinCodes[P code, U key](p side[P], pref int64, b side[U], ref, lo, hi int64) (li, ri []int32) {
	cr, ok := codeRange[P](closedBounds(lo, hi), pref)
	if !ok {
		return nil, nil
	}
	return joinKeys(p, cr.lo, cr.hi, uint64(pref)-uint64(ref), b)
}

// Join computes the natural join of b and r on b.tail == r.head,
// returning [b.head | r.tail], MAL's algebra.join. When r's head is a
// dense OID column the join degenerates to positional fetch
// (leftfetchjoin); when BOTH sides are dense the overlap is contiguous
// and the join is an O(1) pair of views. Otherwise OID and int keys go
// to joinKeys; float, string and bool keys hash the smaller side.
func (b *BAT) Join(r *BAT) *BAT {
	if b.t.kind != r.h.kind {
		panic(fmt.Sprintf("bat: join type mismatch %s != %s", b.t.kind, r.h.kind))
	}
	if r.h.dense {
		rbase, rn := r.h.base, r.h.Len()
		rend := rbase + Oid(rn)
		if b.t.dense {
			// Dense ∩ dense: the matching OIDs form one contiguous run.
			lo, hi := b.t.base, b.t.base+Oid(b.t.n)
			if rbase > lo {
				lo = rbase
			}
			if rend < hi {
				hi = rend
			}
			if hi <= lo {
				return &BAT{Name: b.Name, h: b.h.view(0, 0), t: r.t.view(0, 0)}
			}
			i0, cnt := int(lo-b.t.base), int(hi-lo)
			j0 := int(lo - rbase)
			return &BAT{Name: b.Name, h: b.h.view(i0, i0+cnt), t: r.t.view(j0, j0+cnt)}
		}
		// Typed positional fetch.
		// A sorted list lies in r's head whole when its first and last
		// OIDs do, so it needs no count pass; every candidate list a
		// region fetches at is sorted.
		oids, cnt := b.t.oids, len(b.t.oids)
		if !b.t.Sorted() || cnt > 0 && (oids[0] < rbase || oids[cnt-1] >= rend) {
			cnt = 0
			for _, o := range oids {
				if o >= rbase && o < rend {
					cnt++
				}
			}
		}
		if cnt == len(oids) {
			// Every position lands: the head passes through zero-copy and
			// the values are gathered straight from the OIDs.
			return &BAT{Name: b.Name, h: b.h, t: r.t.takeOids(oids, rbase)}
		}
		li := make([]int32, 0, cnt)
		ri := make([]int32, 0, cnt)
		for i, o := range oids {
			if o >= rbase && o < rend {
				li = append(li, int32(i))
				ri = append(ri, int32(o-rbase))
			}
		}
		nb := &BAT{Name: b.Name, h: b.h.take32(li), t: r.t.take32(ri)}
		nb.h.sorted = b.h.Sorted()
		return nb
	}
	var li, ri []int32
	switch b.t.kind {
	case KOid:
		li, ri = joinKeys(side[Oid]{v: b.t.oidValues(), sorted: b.t.Sorted()}, 0, ^Oid(0), 0, side[Oid]{v: r.h.oids, sorted: r.h.Sorted()})
	case KInt:
		li, ri = joinInts(b.t, r.h)
	case KFloat:
		li, ri = hashSmaller(b.t.float64s(), r.h.float64s())
	case KStr:
		li, ri = hashSmaller(b.t.strings(), r.h.strings())
	case KBool:
		li, ri = hashSmaller(b.t.bools, r.h.bools)
	default:
		return b.joinGeneric(r)
	}
	nb := &BAT{Name: b.Name, h: b.h.take32(li), t: r.t.take32(ri)}
	nb.h.sorted = b.h.Sorted() // probe order is preserved
	return nb
}

// makeSet builds a typed membership set over one payload. It grows with
// the distinct values rather than being sized to every row.
func makeSet[T comparable](vals []T) map[T]struct{} {
	set := make(map[T]struct{})
	for _, v := range vals {
		set[v] = struct{}{}
	}
	return set
}

// memberIdx returns the positions whose value is in the set.
func memberIdx[T comparable](vals []T, set map[T]struct{}) []int32 {
	n := 0
	for _, v := range vals {
		if _, in := set[v]; in {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i, v := range vals {
		if _, in := set[v]; in {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// rangeMemberIdx returns the positions whose OID lies in the dense range
// [base, end) — the set is implicit, no hash table at all.
func rangeMemberIdx(vals []Oid, base, end Oid) []int32 {
	n := 0
	for _, o := range vals {
		if o >= base && o < end {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i, o := range vals {
		if o >= base && o < end {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// gallopRatio is the length ratio past which intersecting two sorted
// lists searches the longer one exponentially instead of walking it.
const gallopRatio = 8

// mergeMemberIdx is memberIdx for two non-decreasing lists: one linear
// two-cursor walk, no hash table. Duplicates behave exactly as they do
// against a set: every copy in a that has a match in r is reported, and
// copies in r change nothing, because the r cursor only moves past
// values smaller than a's current one. The cursors advance by
// comparison outcomes, so the loop carries no data-dependent branch.
func mergeMemberIdx(a, r []Oid) *[]int32 {
	p := idxPool.get(len(a))
	idx := *p
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(r) {
		x, y := a[i], r[j]
		idx[n] = int32(i)
		step := b2i(x <= y) // a's value is settled: matched, or passed over
		n += step & b2i(x == y)
		i += step
		j += 1 - step
	}
	*p = idx[:n]
	return p
}

// gallopTo returns the first position at or after j whose value is >= v
// in the non-decreasing list r, probing at doubling distances before
// binary-searching the bracketed stretch: O(log distance).
func gallopTo[T cmp.Ordered](r []T, j int, v T) int {
	if j >= len(r) || r[j] >= v {
		return j
	}
	step := 1
	for j+step < len(r) && r[j+step] < v {
		step <<= 1
	}
	lo, hi := j+step>>1+1, j+step // r[lo-1] < v; r[hi] >= v or hi is past the end
	if hi > len(r) {
		hi = len(r)
	}
	k, _ := slices.BinarySearch(r[lo:hi], v)
	return lo + k
}

// gallopProbeIdx is mergeMemberIdx for a short a against a long r: each
// value of a gallops r's cursor forward, O(len(a) · log(len(r)/len(a))).
func gallopProbeIdx(a, r []Oid) *[]int32 {
	p := idxPool.get(len(a))
	idx := *p
	j, n := 0, 0
	for i, v := range a {
		j = gallopTo(r, j, v)
		idx[n] = int32(i)
		n += b2i(j < len(r) && r[j] == v)
	}
	*p = idx[:n]
	return p
}

// gallopRunsIdx is mergeMemberIdx for a long a against a
// short r: each distinct value of r gallops a's cursor to its run of
// copies.
func gallopRunsIdx(a, r []Oid) []int32 {
	idx := make([]int32, 0, len(r))
	i := 0
	for k, v := range r {
		if k > 0 && v == r[k-1] {
			continue
		}
		for i = gallopTo(a, i, v); i < len(a) && a[i] == v; i++ {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// sortedMemberIdx returns the positions of the non-decreasing OID list
// a whose value occurs in the non-decreasing list r, picking the walk by
// the length ratio. pooled is idx's idxPool buffer, nil when the walk
// sized its own.
func sortedMemberIdx(a, r []Oid) (idx []int32, pooled *[]int32) {
	switch {
	case len(r) > gallopRatio*len(a):
		pooled = gallopProbeIdx(a, r)
	case len(a) > gallopRatio*len(r):
		return gallopRunsIdx(a, r), nil
	default:
		pooled = mergeMemberIdx(a, r)
	}
	return *pooled, pooled
}

// denseMemberIdx returns the positions of a dense head [base, base+n)
// whose OID occurs in the non-decreasing list r: each distinct value of
// r inside the range is its own position.
func denseMemberIdx(base Oid, n int, r []Oid) []int32 {
	from := gallopTo(r, 0, base)
	to := gallopTo(r, from, base+Oid(n))
	idx := make([]int32, 0, to-from)
	for k := from; k < to; k++ {
		if k == from || r[k] != r[k-1] {
			idx = append(idx, int32(r[k]-base))
		}
	}
	return idx
}

// headFilterIdx computes the row positions of b whose head value
// appears among r's head values. Heads that are sorted OID lists —
// every candidate list a select over a dense-headed column yields — are
// intersected by merge; a dense r is plain range arithmetic; only
// unsorted or non-OID heads build a typed hash set. pooled is idx's
// idxPool buffer, if it has one.
func headFilterIdx(b, r *BAT) (idx []int32, pooled *[]int32) {
	if r.h.dense {
		base, end := r.h.base, r.h.base+Oid(r.h.Len())
		return rangeMemberIdx(b.h.oidValues(), base, end), nil
	}
	if b.h.kind == KOid && b.h.Sorted() && r.h.Sorted() {
		if b.h.dense {
			return denseMemberIdx(b.h.base, b.h.n, r.h.oids), nil
		}
		return sortedMemberIdx(b.h.oidValues(), r.h.oids)
	}
	switch b.h.kind {
	case KOid:
		return memberIdx(b.h.oidValues(), makeSet(r.h.oidValues())), nil
	case KInt:
		return memberIdx(b.h.int64s(), makeSet(r.h.int64s())), nil
	case KFloat:
		return memberIdx(b.h.float64s(), makeSet(r.h.float64s())), nil
	case KStr:
		return memberIdx(b.h.strings(), makeSet(r.h.strings())), nil
	case KBool:
		return memberIdx(b.h.bools, makeSet(r.h.bools)), nil
	}
	return nil, nil
}

// takeRows gathers the given rows of both columns, propagating head and
// tail sortedness (row order is preserved by all int32 index kernels).
// A mirrored BAT — every candidate list — is gathered once and stays
// mirrored.
func (b *BAT) takeRows(idx []int32) *BAT {
	h := b.h.take32(idx)
	h.sorted = b.h.Sorted()
	if b.t == b.h {
		return &BAT{Name: b.Name, h: h, t: h}
	}
	t := b.t.take32(idx)
	t.sorted = b.t.Sorted()
	return &BAT{Name: b.Name, h: h, t: t}
}

// Semijoin returns the rows of b whose head value appears among r's head
// values (MAL's algebra.semijoin).
func (b *BAT) Semijoin(r *BAT) *BAT {
	if b.h.kind != r.h.kind {
		panic(fmt.Sprintf("bat: semijoin type mismatch %s != %s", b.h.kind, r.h.kind))
	}
	if r.h.dense && b.h.Sorted() {
		// Sorted ∩ dense range: the survivors are one contiguous run,
		// found by arithmetic (dense b) or binary search: an O(1) view.
		rbase, rend := r.h.base, r.h.base+Oid(r.h.Len())
		if !b.h.dense {
			from := gallopTo(b.h.oids, 0, rbase)
			return b.Slice(from, gallopTo(b.h.oids, from, rend))
		}
		lo, hi := b.h.base, b.h.base+Oid(b.h.n)
		if rbase > lo {
			lo = rbase
		}
		if rend < hi {
			hi = rend
		}
		if hi <= lo {
			return b.emptyLike()
		}
		i0 := int(lo - b.h.base)
		return b.Slice(i0, i0+int(hi-lo))
	}
	idx, pooled := headFilterIdx(b, r)
	nb := b.takeRows(idx)
	idxPool.put(pooled)
	return nb
}
