package bat

// Narrow integer tails. MonetDB stores a column in the tightest of
// bte/sht/int/lng its values fit; here a materialized int column may
// hold each value as its offset from the column's own minimum (ref) in
// the narrowest unsigned type that fits the column's range. The width
// is a property of the column, like sorted and dense, and the data
// decides it: Narrow makes one pass for min/max and picks it. Kind stays
// KInt, and every operator answers exactly what it answers over the
// wide column.
//
// The kernels that move the bulk of a served query's bytes — range and
// candidate selects, the positional fetch, sum/min/max and the concat
// that widens at a region's exit — run on the codes: the width is
// dispatched once per call (the codes interface), the literals are
// shifted by ref once per call, and a literal range that misses
// [ref, ref+maxcode] is answered without a pass. Every other
// reader widens through int64s into a fresh slice that is never cached
// on the column, so correctness never depends on where a narrow column
// travels.

import (
	"encoding/binary"
	"unsafe"
)

// code is the unsigned type a narrow int column stores its offsets in.
type code interface{ uint8 | uint16 | uint32 }

// codes is a narrow int column's payload, one instantiation per width:
// value i is ref + v[i].
type codes interface {
	width() int
	ref() int64
	len() int
	at(i int) int64
	raw() []byte
	view(from, to int) codes
	clone() codes
	take(idx []int32) codes
	appendWide(dst []int64) []int64
	appendWire(dst []byte) []byte
	sum() int64
	extreme(wantMax bool) int64
	selectRows(t *Column, r bounds[int64]) hits
	scanOids(base Oid, cand []Oid, restricted bool, r bounds[int64]) []Oid
}

// narrowInts is the codes of one width.
type narrowInts[U code] struct {
	v    []U
	base int64 // ref: the column's minimum when it was narrowed
}

func (c narrowInts[U]) width() int     { return int(unsafe.Sizeof(U(0))) }
func (c narrowInts[U]) ref() int64     { return c.base }
func (c narrowInts[U]) len() int       { return len(c.v) }
func (c narrowInts[U]) at(i int) int64 { return c.base + int64(c.v[i]) }

// raw is the payload's memory: what Span reports and the wire copies.
func (c narrowInts[U]) raw() []byte {
	if len(c.v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(c.v))), len(c.v)*c.width())
}

func (c narrowInts[U]) view(from, to int) codes {
	return narrowInts[U]{c.v[from:to:to], c.base}
}

func (c narrowInts[U]) clone() codes {
	return narrowInts[U]{append([]U(nil), c.v...), c.base}
}

func (c narrowInts[U]) take(idx []int32) codes {
	out := make([]U, len(idx))
	for k, i := range idx {
		out[k] = c.v[i]
	}
	return narrowInts[U]{out, c.base}
}

func (c narrowInts[U]) appendWide(dst []int64) []int64 {
	for _, x := range c.v {
		dst = append(dst, c.base+int64(x))
	}
	return dst
}

// appendWire appends the codes little-endian: one memmove on
// little-endian hosts.
func (c narrowInts[U]) appendWire(dst []byte) []byte {
	if hostLittle {
		return append(dst, c.raw()...)
	}
	var b8 [8]byte
	for _, x := range c.v {
		binary.LittleEndian.PutUint64(b8[:], uint64(x))
		dst = append(dst, b8[:c.width()]...)
	}
	return dst
}

// sum is n·ref + Σcode, identical to the wide sum modulo 2^64.
func (c narrowInts[U]) sum() int64 {
	var s uint64
	for _, x := range c.v {
		s += uint64(x)
	}
	return int64(uint64(len(c.v))*uint64(c.base) + s)
}

func (c narrowInts[U]) extreme(wantMax bool) int64 {
	return c.base + int64(extremeOf(c.v, wantMax))
}

// selectRows is selectTyped over the codes. A range that misses every
// code has no code range to express it and is answered without reading
// the codes, in the very form the wide kernel gives: the span its
// binary search would find, or the empty position list of its scan.
func (c narrowInts[U]) selectRows(t *Column, r bounds[int64]) hits {
	if r.empty() {
		return hits{}
	}
	cr, below, above := codeRange[U](r, c.base)
	switch {
	case (below || above) && t.Sorted():
		n := len(c.v) * b2i(above)
		return hits{from: n, to: n}
	case below || above:
		return hits{scanned: true, constant: r.lo == r.hi}
	}
	h := selectTyped(t, c.v, cr)
	h.constant = h.scanned && r.lo == r.hi // as the wide scan reports it
	return h
}

// scanOids is the package-level scanOids over the codes; a range that
// misses every code answers empty without a pass.
func (c narrowInts[U]) scanOids(base Oid, cand []Oid, restricted bool, r bounds[int64]) []Oid {
	if r.empty() {
		return nil
	}
	cr, below, above := codeRange[U](r, c.base)
	if below || above {
		return nil
	}
	return scanOids(c.v, base, cand, restricted, cr)
}

// codeRange maps the closed, non-empty int64 range r onto the codes of
// a column whose values are ref + code: below when every value lies
// above r, above when every value lies below it, cr otherwise.
func codeRange[U code](r bounds[int64], ref int64) (cr bounds[U], below, above bool) {
	maxCode := uint64(^U(0))
	if r.hi < ref {
		return cr, true, false
	}
	var lo uint64
	if r.lo > ref {
		lo = uint64(r.lo) - uint64(ref)
	}
	if lo > maxCode {
		return cr, false, true
	}
	hi := min(uint64(r.hi)-uint64(ref), maxCode)
	return closedBounds(U(lo), U(hi)), false, false
}

// encode writes vals - ref as codes of type U.
func encode[U code](vals []int64, ref int64) codes {
	v := make([]U, len(vals))
	for i, x := range vals {
		v[i] = U(uint64(x) - uint64(ref))
	}
	return narrowInts[U]{v, ref}
}

// Narrow returns b with its tail stored in the fewest bytes per value
// its own min/max allow. Only a materialized, wide, non-empty int tail
// narrows; b itself is returned when 8 bytes is already the best fit.
// The sorted property is kept; the head is untouched.
func Narrow(b *BAT) *BAT {
	t := b.t
	if t.kind != KInt || t.dense || t.narrow != nil || len(t.ints) == 0 {
		return b
	}
	lo, hi := t.ints[0], t.ints[len(t.ints)-1]
	if !t.sorted {
		for _, x := range t.ints {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	var nc codes
	switch span := uint64(hi) - uint64(lo); {
	case span <= 1<<8-1:
		nc = encode[uint8](t.ints, lo)
	case span <= 1<<16-1:
		nc = encode[uint16](t.ints, lo)
	case span <= 1<<32-1:
		nc = encode[uint32](t.ints, lo)
	default:
		return b
	}
	return &BAT{Name: b.Name, h: b.h, t: &Column{kind: KInt, narrow: nc, sorted: t.sorted}}
}

// Widen returns b with every narrow column decoded to int64 values, or
// b itself when it has none: what leaves the kernel for a reader that
// wants the wide form, such as an encoded result frame.
func Widen(b *BAT) *BAT {
	if b.h.narrow == nil && b.t.narrow == nil {
		return b
	}
	h, t := b.h.widened(), b.t.widened()
	if b.t == b.h {
		t = h
	}
	return &BAT{Name: b.Name, h: h, t: t}
}

// widened is c as a wide column: c itself, or a fresh one for a narrow c.
func (c *Column) widened() *Column {
	if c.narrow == nil {
		return c
	}
	return &Column{kind: KInt, ints: c.int64s(), sorted: c.sorted}
}

// int64s returns the values of an int column as int64s: the payload
// itself for a wide column, a fresh widened slice for a narrow one —
// never cached on the column, which is shared and immutable.
func (c *Column) int64s() []int64 {
	if c.narrow == nil {
		return c.ints
	}
	return c.narrow.appendWide(make([]int64, 0, c.narrow.len()))
}

// appendInts appends the values of an int column to dst.
func (c *Column) appendInts(dst []int64) []int64 {
	if c.narrow == nil {
		return append(dst, c.ints...)
	}
	return c.narrow.appendWide(dst)
}

// Width reports the bytes one value of c occupies: 1, 2, 4 or 8 for a
// materialized int column, 8 for oid and float columns, 1 for bool, and
// 0 where it is not fixed — strings, and dense columns, which store no
// values at all.
func (c *Column) Width() int {
	switch {
	case c.dense, c.kind == KStr:
		return 0
	case c.narrow != nil:
		return c.narrow.width()
	case c.kind == KBool:
		return 1
	}
	return 8
}
