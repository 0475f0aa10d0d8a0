package bat

// Narrow tails. MonetDB stores a column in the tightest of
// bte/sht/int/lng its values fit; here a materialized int column may
// hold each value as its offset from the column's own minimum (ref) in
// the narrowest unsigned type that fits the column's range. A float
// column whose values are all exact decimals — TPC-H's DECIMAL(15,2)
// prices and discounts — holds them the same way, as scaled integers:
// value i is (ref + code i) / 10^exp, MonetDB's decimal. The width and
// the exponent are properties of the column, like sorted and dense, and
// the data decides them: Narrow makes one pass for min/max (for floats,
// one per exponent it tries) and picks them. Kind stays KInt or KFloat,
// and every operator answers exactly — to the bit, for floats — what it
// answers over the wide column.
//
// The kernels that move the bulk of a served query's bytes — range and
// candidate selects, the positional fetch, sum/min/max and the concat
// at a region's exit, which keeps the parts' codes — and the outer
// plan's joins, grouping and grouped sums run on the codes:
// the width is dispatched once per call (the codes interface), the
// literals are mapped to the codes once per call (shifted by ref; a
// float range first becomes the range of scaled integers it holds), and
// a literal range that misses [ref, ref+maxcode] is answered without a
// pass. Every other
// reader widens through int64s or float64s into a fresh slice that is
// never cached on the column, so correctness never depends on where a
// narrow column travels.

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// code is the unsigned type a narrow column stores its offsets in.
type code interface{ uint8 | uint16 | uint32 }

// codes is a narrow column's payload, one instantiation per width: the
// integer i is ref + v[i] — an int column's value, or a decimal float
// column's value scaled by 10^exp — and no code exceeds top.
type codes interface {
	width() int
	ref() int64
	len() int
	at(i int) int64
	raw() []byte
	view(from, to int) codes
	clone() codes
	take(idx []int32) codes
	takeOids(oids []Oid, base Oid) codes
	appendWide(dst []int64) []int64
	appendDecimal(dst []float64, scale float64) []float64
	appendWire(dst []byte) []byte
	sum() int64
	sumDecimal(scale float64) float64
	group(sorted bool) (ids []Oid, repIdx []int32)
	groupedSum(gids []Oid, sums []int64)
	groupedSumDecimal(gids []Oid, sums []float64, scale float64)
	extreme(wantMax bool) int64
	top() uint32
	selectRows(t *Column, r bounds[int64]) hits
	scanOids(base Oid, cand []Oid, restricted bool, r bounds[int64]) []Oid
}

// narrowInts is the codes of one width.
type narrowInts[U code] struct {
	v    []U
	base int64 // ref: the column's minimum when it was narrowed
	// hi bounds the codes: the greatest one when the column was narrowed
	// or merged. A view or a gather of the codes keeps it, so it may lie
	// above what a subset holds; it never lies below a code.
	hi U
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
	return narrowInts[U]{c.v[from:to:to], c.base, c.hi}
}

func (c narrowInts[U]) clone() codes {
	return narrowInts[U]{append([]U(nil), c.v...), c.base, c.hi}
}

func (c narrowInts[U]) take(idx []int32) codes {
	return narrowInts[U]{gather(c.v, idx, 0), c.base, c.hi}
}

func (c narrowInts[U]) takeOids(oids []Oid, base Oid) codes {
	return narrowInts[U]{gather(c.v, oids, base), c.base, c.hi}
}

func (c narrowInts[U]) appendWide(dst []int64) []int64 {
	for _, x := range c.v {
		dst = append(dst, c.base+int64(x))
	}
	return dst
}

// appendDecimal appends the values of a decimal column of the given
// scale.
func (c narrowInts[U]) appendDecimal(dst []float64, scale float64) []float64 {
	for _, x := range c.v {
		dst = append(dst, decode(c.base+int64(x), scale))
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

// sumDecimal decodes each value of a decimal column and adds them in row
// order: bit for bit the wide column's sum. Summing the integers and
// dividing once would round differently.
func (c narrowInts[U]) sumDecimal(scale float64) float64 {
	var s float64
	for _, x := range c.v {
		s += decode(c.base+int64(x), scale)
	}
	return s
}

// group is groupTail over the codes: equal codes are equal values, for a
// decimal column too, which holds neither -0.0 nor NaN.
func (c narrowInts[U]) group(sorted bool) (ids []Oid, repIdx []int32) {
	if sorted {
		return groupSortedKeys(c.v)
	}
	return groupKeys(c.v)
}

// groupedSum adds each value into its group's sum: per group Σcode +
// cnt·ref, which is the wide sum modulo 2^64.
func (c narrowInts[U]) groupedSum(gids []Oid, sums []int64) {
	for i, x := range c.v {
		sums[gids[i]] += c.base + int64(x)
	}
}

// groupedSumDecimal decodes each value and adds it into its group's sum
// in row order: bit for bit the wide loop's sums, like sumDecimal.
func (c narrowInts[U]) groupedSumDecimal(gids []Oid, sums []float64, scale float64) {
	for i, x := range c.v {
		sums[gids[i]] += decode(c.base+int64(x), scale)
	}
}

func (c narrowInts[U]) extreme(wantMax bool) int64 {
	return c.base + int64(extremeOf(c.v, wantMax))
}

// top is the bound on the codes, which is how a concat sizes its merged
// codes without a pass over them.
func (c narrowInts[U]) top() uint32 { return uint32(c.hi) }

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

// pow10 are the scales a decimal column can have: the powers of ten a
// float64 holds exactly. A column's exp indexes it.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// maxK bounds a decimal column's scaled integers, |k| < 2^53: float64's
// mantissa, so every k converts exactly.
const maxK = 1 << 53

// decode is the value a decimal column of the given scale stores as k.
func decode(k int64, scale float64) float64 { return float64(k) / scale }

// scale is a decimal column's divisor, 10^exp.
func (c *Column) scale() float64 { return pow10[c.exp] }

// decimalExp finds the smallest exponent at which every value v of vals
// is, bit for bit, decode(k) of k = RoundToEven(v·10^exp) with
// |k| < 2^53, and reports the least and greatest k. A trial stops at its
// first failing value. The search stops with no fit once some |v|·10^exp
// reaches 2^53, where no larger exponent fits either, or when the k span
// passes what a uint32 code holds. -0.0, NaN and ±Inf never fit.
func decimalExp(vals []float64) (exp int, lo, hi int64, ok bool) {
next:
	for e, scale := range pow10 {
		lo, hi = maxK, -maxK
		for _, v := range vals {
			x := v * scale
			if !(math.Abs(x) < maxK) {
				return 0, 0, 0, false
			}
			k := int64(math.RoundToEven(x))
			if math.Float64bits(decode(k, scale)) != math.Float64bits(v) {
				continue next
			}
			lo, hi = min(lo, k), max(hi, k)
		}
		return e, lo, hi, hi-lo <= math.MaxUint32
	}
	return 0, 0, 0, false
}

// encode writes column t's values as codes of type U, each k − ref: k is
// an int's own value, a decimal float's scaled integer at scale. top is
// the greatest code, hi − ref.
func encode[U code](t *Column, ref int64, top uint64, scale float64) codes {
	var v []U
	if t.kind == KInt {
		v = make([]U, len(t.ints))
		for i, x := range t.ints {
			v[i] = U(uint64(x) - uint64(ref))
		}
	} else {
		v = make([]U, len(t.floats))
		for i, x := range t.floats {
			v[i] = U(uint64(int64(math.RoundToEven(x*scale))) - uint64(ref))
		}
	}
	return narrowInts[U]{v, ref, U(top)}
}

// Narrow returns b with its tail stored in the fewest bytes per value
// its own min/max allow. A materialized, wide, non-empty int tail
// narrows, and so does a float tail of exact decimals (decimalExp); b
// itself is returned when 8 bytes is already the best fit. The sorted
// property is kept; the head is untouched.
func Narrow(b *BAT) *BAT {
	t := b.t
	if t.dense || t.narrow != nil || t.Len() == 0 {
		return b
	}
	var lo, hi int64
	exp := 0
	switch t.kind {
	case KInt:
		lo, hi = t.ints[0], t.ints[len(t.ints)-1]
		if !t.sorted {
			for _, x := range t.ints {
				lo, hi = min(lo, x), max(hi, x)
			}
		}
	case KFloat:
		var ok bool
		if exp, lo, hi, ok = decimalExp(t.floats); !ok {
			return b
		}
	default:
		return b
	}
	var nc codes
	switch span := uint64(hi) - uint64(lo); {
	case span <= 1<<8-1:
		nc = encode[uint8](t, lo, span, pow10[exp])
	case span <= 1<<16-1:
		nc = encode[uint16](t, lo, span, pow10[exp])
	case span <= 1<<32-1:
		nc = encode[uint32](t, lo, span, pow10[exp])
	default:
		return b
	}
	return &BAT{Name: b.Name, h: b.h, t: &Column{kind: t.kind, narrow: nc, exp: uint8(exp), sorted: t.sorted}}
}

// codeBounds maps the closed float range r onto a decimal column's
// scaled integers: [kLo, kHi] holds exactly the k whose value lies in r.
// decode is monotone in k — a correctly rounded division by a positive
// constant is — so kLo is the least k decoding to at least r.lo and kHi
// the greatest decoding to at most r.hi; decode is odd in k, so kHi is
// kLo's mirror image, −ceilK(−r.hi). An infinite limit lands past every
// code.
func (c *Column) codeBounds(r bounds[float64]) bounds[int64] {
	scale := c.scale()
	return closedBounds(ceilK(r.lo, scale), -ceilK(-r.hi, scale))
}

// ceilK is the least k in [-2^53, 2^53] with decode(k) ≥ x, or 2^53 when
// none is: ceil(x·scale), which the rounding of the product and of
// decode can leave one off, moved until decode confirms it.
func ceilK(x, scale float64) int64 {
	k := int64(math.Max(-maxK, math.Min(math.Ceil(x*scale), maxK)))
	for k < maxK && decode(k, scale) < x {
		k++
	}
	for k > -maxK && decode(k-1, scale) >= x {
		k--
	}
	return k
}

// selectDecimal is selectTyped for a decimal column: the float range
// maps once to scaled integers, and the int kernels run on the codes.
// The answer takes the form the wide kernel gives, including for a range
// that holds floats but no value of the column's scale: the empty span
// its binary search finds, or its scan's empty list.
func (c *Column) selectDecimal(r bounds[float64]) hits {
	if r.empty() {
		return hits{}
	}
	kr := c.codeBounds(r)
	switch {
	case kr.empty() && c.Sorted():
		h := c.narrow.selectRows(c, closedBounds(kr.lo, math.MaxInt64))
		return hits{from: h.from, to: h.from}
	case kr.empty():
		return hits{scanned: true, constant: r.lo == r.hi}
	}
	h := c.narrow.selectRows(c, kr)
	h.constant = h.scanned && r.lo == r.hi // as the wide scan reports it
	return h
}

// Widen returns b with every narrow column decoded to int64 or float64
// values, or b itself when it has none: what leaves the kernel for a
// reader that wants the wide form, such as an encoded result frame.
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
	switch {
	case c.narrow == nil:
		return c
	case c.kind == KFloat:
		return &Column{kind: KFloat, floats: c.float64s(), sorted: c.sorted}
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

// float64s returns the values of a float column as float64s: the
// payload itself for a wide column, a fresh decoded slice for a decimal
// one — never cached on the column, like int64s.
func (c *Column) float64s() []float64 {
	if c.narrow == nil {
		return c.floats
	}
	return c.narrow.appendDecimal(make([]float64, 0, c.narrow.len()), c.scale())
}

// appendFloat64s appends the values of a float column to dst.
func (c *Column) appendFloat64s(dst []float64) []float64 {
	if c.narrow == nil {
		return append(dst, c.floats...)
	}
	return c.narrow.appendDecimal(dst, c.scale())
}

// Width reports the bytes one value of c occupies: 1, 2, 4 or 8 for a
// materialized int or float column (a narrow one's code width), 8 for
// oid columns, 1 for bool, and 0 where it is not fixed — strings, and
// dense columns, which store no values at all.
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
