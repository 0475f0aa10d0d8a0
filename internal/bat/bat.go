// Package bat implements the column-store kernel the Data Cyclotron is
// layered on: Binary Association Tables (BATs) in the style of MonetDB.
//
// A BAT is a two-column table mapping a head value to a tail value. Both
// columns are typed; the head is most often a (dense) OID column. The
// package provides the binary relational algebra the MAL plans in the
// paper use — select, join, reverse, mark, mirror, semijoin — plus the
// grouping/aggregation operators needed by the SQL front-end, and
// property metadata (sortedness, density) used to pick fast paths,
// mirroring §3.1.
package bat

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"
)

// Oid is an object identifier, the glue between decomposed columns.
type Oid uint64

// NilOid is the out-of-band OID value.
const NilOid Oid = ^Oid(0)

// Kind enumerates column types.
type Kind int

// Column kinds.
const (
	KOid Kind = iota
	KInt
	KFloat
	KStr
	KBool
)

func (k Kind) String() string {
	switch k {
	case KOid:
		return "oid"
	case KInt:
		return "int"
	case KFloat:
		return "float"
	case KStr:
		return "str"
	case KBool:
		return "bool"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Column is one typed column of a BAT. A column is either materialized
// (one of the slices is used, per kind; a narrow int or decimal float
// column uses narrow instead of ints or floats, and a dictionary string
// column narrow and dict instead of strs, see narrow.go) or dense
// (an arithmetic sequence of OIDs starting at Base — MonetDB's virtual
// OID column).
type Column struct {
	kind   Kind
	dense  bool
	base   Oid
	n      int // length when dense
	oids   []Oid
	ints   []int64
	narrow codes // a narrow column's codes; nil: ints or floats holds the values
	exp    uint8 // a narrow float column's exponent: value i is narrow.at(i) / 10^exp
	floats []float64
	strs   []string
	dict   []string // a dictionary string column's sorted, distinct values: value i is dict[narrow.at(i)]
	bools  []bool
	sorted bool // non-decreasing tail order (trivially true when dense)
}

// DenseColumn returns a dense OID column [base, base+n).
func DenseColumn(base Oid, n int) *Column {
	return &Column{kind: KOid, dense: true, base: base, n: n, sorted: true}
}

// OidColumn materializes an OID column.
func OidColumn(v []Oid) *Column { return &Column{kind: KOid, oids: v} }

// IntColumn materializes an int column.
func IntColumn(v []int64) *Column { return &Column{kind: KInt, ints: v} }

// FloatColumn materializes a float column.
func FloatColumn(v []float64) *Column { return &Column{kind: KFloat, floats: v} }

// StrColumn materializes a string column.
func StrColumn(v []string) *Column { return &Column{kind: KStr, strs: v} }

// BoolColumn materializes a bool column.
func BoolColumn(v []bool) *Column { return &Column{kind: KBool, bools: v} }

// Kind reports the column type.
func (c *Column) Kind() Kind { return c.kind }

// Dense reports whether the column is a virtual dense OID sequence.
func (c *Column) Dense() bool { return c.dense }

// Base reports the first OID of a dense column.
func (c *Column) Base() Oid { return c.base }

// Sorted reports whether the column is known to be non-decreasing.
func (c *Column) Sorted() bool { return c.sorted || c.dense }

// SetSorted records the sortedness property.
func (c *Column) SetSorted(v bool) { c.sorted = v }

// Len reports the number of values.
func (c *Column) Len() int {
	switch {
	case c.dense:
		return c.n
	case c.narrow != nil:
		return c.narrow.len()
	}
	switch c.kind {
	case KOid:
		return len(c.oids)
	case KInt:
		return len(c.ints)
	case KFloat:
		return len(c.floats)
	case KStr:
		return len(c.strs)
	case KBool:
		return len(c.bools)
	}
	return 0
}

// Value returns element i as an any. Slow path; operators use the typed
// accessors.
func (c *Column) Value(i int) any {
	if c.dense {
		return c.base + Oid(i)
	}
	switch c.kind {
	case KOid:
		return c.oids[i]
	case KInt:
		return c.Int(i)
	case KFloat:
		return c.Float(i)
	case KStr:
		return c.Str(i)
	case KBool:
		return c.bools[i]
	}
	panic("bat: bad kind")
}

// Oid returns element i of an OID column.
func (c *Column) Oid(i int) Oid {
	if c.dense {
		return c.base + Oid(i)
	}
	return c.oids[i]
}

// Int returns element i of an int column.
func (c *Column) Int(i int) int64 {
	if c.narrow != nil {
		return c.narrow.at(i)
	}
	return c.ints[i]
}

// Float returns element i of a float column.
func (c *Column) Float(i int) float64 {
	if c.narrow != nil {
		return decode(c.narrow.at(i), c.scale())
	}
	return c.floats[i]
}

// Str returns element i of a string column.
func (c *Column) Str(i int) string {
	if c.narrow != nil {
		return c.dict[c.narrow.at(i)]
	}
	return c.strs[i]
}

// Bool returns element i of a bool column.
func (c *Column) Bool(i int) bool { return c.bools[i] }

// take returns a new column with the rows at the given positions.
func (c *Column) take(idx []int) *Column { return takeIdx(c, idx, 0) }

// take32 is take over the compact int32 row indexes the typed kernels
// produce.
func (c *Column) take32(idx []int32) *Column { return takeIdx(c, idx, 0) }

// takeOids gathers the rows at positions o − base for each OID o of a
// list the caller has checked lies in [base, base+Len()): the positional
// fetch at a candidate list, without an index array.
func (c *Column) takeOids(oids []Oid, base Oid) *Column { return takeIdx(c, oids, base) }

// index is what a gather reads positions from: row ids, or OIDs over a
// dense head's base.
type index interface{ int | int32 | Oid }

// takeIdx gathers the rows at positions i − base for each i of idx into
// a fresh materialized column. It is generic over the index type so the
// typed kernels can carry int32 row ids (half the memory traffic of int
// on 64-bit) and a fetch can read its candidate OIDs, neither with a
// conversion pass.
func takeIdx[I index](c *Column, idx []I, base I) *Column {
	out := &Column{kind: c.kind}
	if c.narrow != nil {
		switch v := any(idx).(type) {
		case []Oid:
			out.narrow = c.narrow.takeOids(v, Oid(base))
		case []int32:
			out.narrow = c.narrow.take(v)
		case []int:
			out.narrow = c.narrow.take(int32s(v))
		}
		out.exp, out.dict = c.exp, c.dict
		return out
	}
	switch {
	case c.dense:
		out.oids = make([]Oid, len(idx))
		for k, i := range idx {
			out.oids[k] = c.base + Oid(i-base)
		}
	case c.kind == KOid:
		out.oids = gather(c.oids, idx, base)
	case c.kind == KInt:
		out.ints = gather(c.ints, idx, base)
	case c.kind == KFloat:
		out.floats = gather(c.floats, idx, base)
	case c.kind == KStr:
		out.strs = gather(c.strs, idx, base)
	case c.kind == KBool:
		out.bools = gather(c.bools, idx, base)
	}
	return out
}

// gather returns v[i − base] for each i of idx.
func gather[T any, I index](v []T, idx []I, base I) []T {
	out := make([]T, len(idx))
	for k, i := range idx {
		out[k] = v[i-base]
	}
	return out
}

// int32s returns row positions as int32s: idx itself, or a converted
// copy of an []int list.
func int32s[I int | int32](idx []I) []int32 {
	if v, ok := any(idx).([]int32); ok {
		return v
	}
	out := make([]int32, len(idx))
	for k, i := range idx {
		out[k] = int32(i)
	}
	return out
}

// view returns an O(1) zero-copy view of rows [from, to). Dense columns
// stay dense (the base shifts); materialized columns share the payload.
// The shared subslices are capped (three-index slicing), so an append
// to one reallocates instead of clobbering the parent.
func (c *Column) view(from, to int) *Column {
	if c.dense {
		return &Column{kind: c.kind, dense: true, base: c.base + Oid(from), n: to - from, sorted: true}
	}
	out := &Column{kind: c.kind, sorted: c.sorted}
	if c.narrow != nil {
		out.narrow, out.exp, out.dict = c.narrow.view(from, to), c.exp, c.dict
		return out
	}
	switch c.kind {
	case KOid:
		out.oids = c.oids[from:to:to]
	case KInt:
		out.ints = c.ints[from:to:to]
	case KFloat:
		out.floats = c.floats[from:to:to]
	case KStr:
		out.strs = c.strs[from:to:to]
	case KBool:
		out.bools = c.bools[from:to:to]
	}
	return out
}

// clone returns a materialized deep copy (dense columns stay dense —
// they are immutable descriptors anyway).
func (c *Column) clone() *Column {
	if c.dense {
		return &Column{kind: c.kind, dense: true, base: c.base, n: c.n, sorted: true}
	}
	out := &Column{kind: c.kind, sorted: c.sorted}
	if c.narrow != nil {
		out.narrow, out.exp, out.dict = c.narrow.clone(), c.exp, c.dict
		return out
	}
	switch c.kind {
	case KOid:
		out.oids = append([]Oid(nil), c.oids...)
	case KInt:
		out.ints = append([]int64(nil), c.ints...)
	case KFloat:
		out.floats = append([]float64(nil), c.floats...)
	case KStr:
		out.strs = append([]string(nil), c.strs...)
	case KBool:
		out.bools = append([]bool(nil), c.bools...)
	}
	return out
}

// oidValues returns the column's OIDs as a plain slice: O(1) for
// materialized columns, one allocation for dense ones. The typed
// kernels use it to run a single monomorphic loop regardless of
// density.
func (c *Column) oidValues() []Oid {
	if !c.dense {
		return c.oids
	}
	v := make([]Oid, c.n)
	for i := range v {
		v[i] = c.base + Oid(i)
	}
	return v
}

// Span reports the address range [lo, hi) of a materialized fixed-width
// column's values (oid, int or float — wide or narrow — or a dictionary
// string column's codes) and 0, 0 for any other column: how a caller
// that lends out memory tells whether a column is a view of it.
func (c *Column) Span() (lo, hi uintptr) {
	var p unsafe.Pointer
	var n int
	switch {
	case c.dense:
		return 0, 0
	case c.narrow != nil:
		raw := c.narrow.raw()
		p, n = unsafe.Pointer(unsafe.SliceData(raw)), len(raw)
	case c.kind == KOid:
		p, n = unsafe.Pointer(unsafe.SliceData(c.oids)), 8*len(c.oids)
	case c.kind == KInt:
		p, n = unsafe.Pointer(unsafe.SliceData(c.ints)), 8*len(c.ints)
	case c.kind == KFloat:
		p, n = unsafe.Pointer(unsafe.SliceData(c.floats)), 8*len(c.floats)
	}
	if n == 0 {
		return 0, 0
	}
	return uintptr(p), uintptr(p) + uintptr(n)
}

// Bytes reports the memory footprint of the column payload.
func (c *Column) Bytes() int {
	if c.dense {
		return 16 // base + count
	}
	if c.kind != KStr {
		return c.Len() * c.Width()
	}
	total, heap := c.Len()*c.Width(), c.strs
	if c.narrow != nil {
		heap = c.dict
	}
	for _, s := range heap {
		total += len(s) + 8 // payload + offset
	}
	return total
}

// equalAt reports whether c[i] == d[j]; kinds must match.
func (c *Column) equalAt(i int, d *Column, j int) bool {
	switch c.kind {
	case KOid:
		return c.Oid(i) == d.Oid(j)
	case KInt:
		return c.Int(i) == d.Int(j)
	case KFloat:
		return c.Float(i) == d.Float(j)
	case KStr:
		return c.Str(i) == d.Str(j)
	case KBool:
		return c.bools[i] == d.bools[j]
	}
	return false
}

// BAT is a binary association table: a head and a tail column of equal
// length. The zero value is not useful; use New or the Make helpers.
type BAT struct {
	Name string
	h, t *Column
}

// New creates a BAT from a head and tail column. The columns must have
// equal lengths.
func New(name string, h, t *Column) *BAT {
	if h.Len() != t.Len() {
		panic(fmt.Sprintf("bat: head/tail length mismatch %d != %d", h.Len(), t.Len()))
	}
	return &BAT{Name: name, h: h, t: t}
}

// MakeInts builds a [dense OID | int] BAT, the workhorse layout.
func MakeInts(name string, vals []int64) *BAT {
	return New(name, DenseColumn(0, len(vals)), IntColumn(vals))
}

// MakeFloats builds a [dense OID | float] BAT.
func MakeFloats(name string, vals []float64) *BAT {
	return New(name, DenseColumn(0, len(vals)), FloatColumn(vals))
}

// MakeStrs builds a [dense OID | str] BAT.
func MakeStrs(name string, vals []string) *BAT {
	return New(name, DenseColumn(0, len(vals)), StrColumn(vals))
}

// MakeOids builds a [dense OID | oid] BAT (e.g. a join index).
func MakeOids(name string, vals []Oid) *BAT {
	return New(name, DenseColumn(0, len(vals)), OidColumn(vals))
}

// Scalar lifts v — an int64, float64, string or Oid — into a one-row
// [dense OID | kind] BAT, and nil into an empty int BAT: the BAT
// MakeInts, MakeFloats, MakeStrs or MakeOids builds from it, with the
// BAT, its two columns and its value in one allocation. ok is false for
// any other type.
func Scalar(name string, v any) (b *BAT, ok bool) {
	switch v := v.(type) {
	case int64:
		s := &scalar[int64]{v: [1]int64{v}}
		s.t.ints = s.v[:]
		return s.init(name, KInt, 1), true
	case float64:
		s := &scalar[float64]{v: [1]float64{v}}
		s.t.floats = s.v[:]
		return s.init(name, KFloat, 1), true
	case string:
		s := &scalar[string]{v: [1]string{v}}
		s.t.strs = s.v[:]
		return s.init(name, KStr, 1), true
	case Oid:
		s := &scalar[Oid]{v: [1]Oid{v}}
		s.t.oids = s.v[:]
		return s.init(name, KOid, 1), true
	case nil:
		return new(scalar[int64]).init(name, KInt, 0), true
	}
	return nil, false
}

// scalar is Scalar's BAT with the memory it points into.
type scalar[T any] struct {
	b    BAT
	h, t Column
	v    [1]T
}

// init heads the rows of s's tail, which holds kind's values, dense
// from 0 and names the BAT.
func (s *scalar[T]) init(name string, kind Kind, rows int) *BAT {
	s.h = Column{kind: KOid, dense: true, n: rows, sorted: true}
	s.t.kind = kind
	s.b = BAT{Name: name, h: &s.h, t: &s.t}
	return &s.b
}

// Head returns the head column.
func (b *BAT) Head() *Column { return b.h }

// Tail returns the tail column.
func (b *BAT) Tail() *Column { return b.t }

// Len reports the number of BUNs (rows).
func (b *BAT) Len() int { return b.h.Len() }

// Bytes reports the payload size, used as the wire size when the BAT
// travels the storage ring.
func (b *BAT) Bytes() int { return b.h.Bytes() + b.t.Bytes() }

// Reverse returns the BAT with head and tail swapped. Like MonetDB this
// is a view: O(1), sharing the columns.
func (b *BAT) Reverse() *BAT { return &BAT{Name: b.Name, h: b.t, t: b.h} }

// Mirror returns [head | head]: both columns are the head column.
func (b *BAT) Mirror() *BAT { return &BAT{Name: b.Name, h: b.h, t: b.h} }

// MarkT returns [head | dense OIDs from base], per MAL's markT.
func (b *BAT) MarkT(base Oid) *BAT {
	return &BAT{Name: b.Name, h: b.h, t: DenseColumn(base, b.Len())}
}

// MarkH returns [dense OIDs from base | tail].
func (b *BAT) MarkH(base Oid) *BAT {
	return &BAT{Name: b.Name, h: DenseColumn(base, b.Len()), t: b.t}
}

// Slice returns rows [from, to) as an O(1) zero-copy view: no payload
// is moved, dense columns stay dense, and sortedness is preserved.
func (b *BAT) Slice(from, to int) *BAT {
	if from < 0 || to > b.Len() || from > to {
		panic(fmt.Sprintf("bat: slice [%d,%d) out of range 0..%d", from, to, b.Len()))
	}
	return &BAT{Name: b.Name, h: b.h.view(from, to), t: b.t.view(from, to)}
}

// Copy returns a deep materialized copy of b (one payload copy per
// column, no index indirection).
func (b *BAT) Copy() *BAT {
	return &BAT{Name: b.Name, h: b.h.clone(), t: b.t.clone()}
}

// String renders a compact description, not the payload.
func (b *BAT) String() string {
	return fmt.Sprintf("BAT(%s)[%s|%s]#%d", b.Name, b.h.kind, b.t.kind, b.Len())
}

// Dump renders up to max rows for debugging and examples.
func (b *BAT) Dump(max int) string {
	n := b.Len()
	if max > 0 && n > max {
		n = max
	}
	s := b.String() + " {"
	for i := 0; i < n; i++ {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%v->%v", b.h.Value(i), b.t.Value(i))
	}
	if n < b.Len() {
		s += ", ..."
	}
	return s + "}"
}

// sortIdxByTail returns row positions ordered by tail value, stably.
// The kind switch runs once per call; each kind gets its own
// monomorphic comparison, no reflection. Values neither less than the
// other, NaNs included, keep their row order.
func (b *BAT) sortIdxByTail(desc bool) []int {
	idx := make([]int, b.Len())
	for i := range idx {
		idx[i] = i
	}
	t := b.t
	switch {
	case t.dense:
		if desc {
			slices.Reverse(idx)
		}
	case t.kind == KOid:
		sortIdx(idx, t.oids, desc)
	case t.kind == KInt:
		sortIdx(idx, t.int64s(), desc)
	case t.kind == KFloat:
		sortIdx(idx, t.float64s(), desc)
	case t.kind == KStr && t.narrow != nil:
		sortIdx(idx, t.narrow.appendWide(make([]int64, 0, t.Len())), desc) // code order is string order
	case t.kind == KStr:
		sortIdx(idx, t.strs, desc)
	case t.kind == KBool:
		v := make([]uint8, len(t.bools)) // false < true
		for i, x := range t.bools {
			v[i] = uint8(b2i(x))
		}
		sortIdx(idx, v, desc)
	}
	return idx
}

// sortIdx orders the positions idx by v's values, stably.
func sortIdx[T cmp.Ordered](idx []int, v []T, desc bool) {
	slices.SortStableFunc(idx, func(i, j int) int {
		a, b := v[i], v[j]
		if desc {
			a, b = b, a
		}
		switch {
		case a < b:
			return -1
		case b < a:
			return 1
		}
		return 0
	})
}

// SortT returns b ordered by tail value (stable). Already-sorted tails
// (including dense ones) return an O(1) view.
func (b *BAT) SortT(desc bool) *BAT {
	if !desc && b.t.Sorted() {
		return b.Slice(0, b.Len())
	}
	idx := b.sortIdxByTail(desc)
	nb := &BAT{Name: b.Name, h: b.h.take(idx), t: b.t.take(idx)}
	if !desc {
		nb.t.sorted = true
	}
	return nb
}
