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
// A string column may hold codes too, MonetDB's offsets into a heap of
// distinct strings: code i indexes the column's dictionary, its distinct
// values in ascending order, so code order is string order and a sorted
// column stays sorted. Narrow keeps them when n·w + 16·d < 16·n — n
// rows, d distinct values, w the code width that holds d, 16 a string
// header — and abandons its distinct pass as soon as that cannot hold.
// Kind stays KStr, and the codes are the codes interface with ref 0 and
// top d − 1.
//
// The kernels that move the bulk of a served query's bytes — range and
// candidate selects, the positional fetch, sum/min/max and the concat
// at a region's exit, which keeps the parts' codes — and the outer
// plan's joins, grouping and grouped sums run on the codes:
// the width is dispatched once per call (the codes interface), the
// literals are mapped to the codes once per call (shifted by ref; a
// float range first becomes the range of scaled integers it holds), and
// a literal range that misses [ref, ref+maxcode] is answered without a
// pass. Over a dictionary column, grouping and the fetches read the
// codes, a range or equality literal becomes a code range by binary
// search on the dictionary, and the concat at an exit keeps codes. Every
// other reader widens through int64s, float64s or strings into a fresh
// slice that is never cached on the column, so correctness never depends
// on where a narrow column travels.

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"sort"
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
	appendDict(dst, dict []string) []string
	appendWire(dst []byte) []byte
	sum() int64
	sumDecimal(scale float64) float64
	group(sorted bool) (ids []Oid, repIdx []int32)
	groupedSum(gids []Oid, sums []int64)
	groupedSumDecimal(gids []Oid, sums []float64, scale float64)
	slotsOf(slots []uint32, stride uint32, first bool) bool
	sumInto(slots []uint32, sums []int64)
	sumDecimalInto(slots []uint32, sums []float64, scale float64)
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

// appendDict appends the values of a dictionary column.
func (c narrowInts[U]) appendDict(dst, dict []string) []string {
	for _, x := range c.v {
		dst = append(dst, dict[x])
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
// decimal column too, which holds neither -0.0 nor NaN. Unsorted codes
// whose bound allows it are numbered through an array (groupCodes).
func (c narrowInts[U]) group(sorted bool) (ids []Oid, repIdx []int32) {
	if sorted {
		return groupSortedKeys(c.v)
	}
	if uint64(c.hi) < denseFill*uint64(len(c.v)) {
		if ids, repIdx, ok := groupCodes(c.v, c.hi); ok {
			return ids, repIdx
		}
	}
	return groupKeys(c.v)
}

// groupCodes is groupKeys over codes bounded by top: a slot array of
// top+1 entries stands in for the map, and ids and representatives come
// out in the same first-appearance order. ok is false at a code past top,
// which a damaged int message can carry.
func groupCodes[U code](v []U, top U) (ids []Oid, repIdx []int32, ok bool) {
	slot := make([]int32, int(top)+1) // 1 + the group id; 0: not seen yet
	ids = make([]Oid, len(v))
	for i, x := range v {
		if x > top {
			return nil, nil, false
		}
		if slot[x] == 0 {
			repIdx = append(repIdx, int32(i))
			slot[x] = int32(len(repIdx))
		}
		ids[i] = Oid(slot[x] - 1)
	}
	return ids, repIdx, true
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

// slotsOf is GroupBy's key pass over every row: the code of row i,
// times stride, goes into (first) or is added onto slots[i]. It is
// false at a code past the bound, which a damaged int message can carry.
func (c narrowInts[U]) slotsOf(slots []uint32, stride uint32, first bool) bool {
	var hi U
	slots = slots[:len(c.v)]
	if first {
		for i, x := range c.v {
			hi = max(hi, x)
			slots[i] = uint32(x)
		}
	} else {
		for i, x := range c.v {
			hi = max(hi, x)
			slots[i] += uint32(x) * stride
		}
	}
	return hi <= c.hi
}

// sumInto adds each row's value into its slot's sum, like groupedSum.
func (c narrowInts[U]) sumInto(slots []uint32, sums []int64) {
	slots = slots[:len(c.v)]
	for i, x := range c.v {
		sums[slots[i]] += c.base + int64(x)
	}
}

// sumDecimalInto decodes each row's value and adds it into its slot's
// sum in row order, like groupedSumDecimal.
func (c narrowInts[U]) sumDecimalInto(slots []uint32, sums []float64, scale float64) {
	slots = slots[:len(c.v)]
	for i, x := range c.v {
		sums[slots[i]] += decode(c.base+int64(x), scale)
	}
}

func (c narrowInts[U]) extreme(wantMax bool) int64 {
	return c.base + int64(extremeOf(c.v, wantMax))
}

// top is the bound on the codes, which is how a concat sizes its merged
// codes without a pass over them.
func (c narrowInts[U]) top() uint32 { return uint32(c.hi) }

// selectRows is selectTyped over the codes for the range r of the
// integers they stand for (selectCoded): a sorted column's span, found
// by binary search on ref + code; over unsorted codes, the range mapped
// onto them once (codeRange) and the rows the rejection bitmap keeps of
// 1- or 2-byte codes (keptRows) or rangeIdx's positions over 4-byte
// ones. A range that holds no code's value is answered without reading
// the codes, in the very form the wide kernel gives: the empty span its
// binary search finds, or the empty position list of its scan.
func (c narrowInts[U]) selectRows(t *Column, r bounds[int64]) hits {
	if t.Sorted() {
		from := sort.Search(len(c.v), func(i int) bool { return c.at(i) >= r.lo })
		to := sort.Search(len(c.v), func(i int) bool { return c.at(i) > r.hi })
		return hits{from: from, to: max(from, to)}
	}
	cr, ok := codeRange[U](r, c.base)
	switch {
	case !ok:
		return hits{scanned: true}
	case c.width() <= 2:
		return keptRows(t, r)
	}
	p := rangeIdx(c.v, cr)
	return hits{idx: *p, pooled: p, scanned: true}
}

// scanOids is the package-level scanOids over the codes. A range that
// holds no code's value answers empty without a pass.
func (c narrowInts[U]) scanOids(base Oid, cand []Oid, restricted bool, r bounds[int64]) []Oid {
	cr, _ := codeRange[U](r, c.base)
	return scanOids(c.v, base, cand, restricted, cr)
}

// codeRange maps the closed int64 range r onto the codes of a column
// whose values are ref + code; ok is false, and cr empty, when r holds
// no code's value.
func codeRange[U code](r bounds[int64], ref int64) (cr bounds[U], ok bool) {
	maxCode := uint64(^U(0))
	none := closedBounds[U](1, 0)
	if r.empty() || r.hi < ref {
		return none, false
	}
	var lo uint64
	if r.lo > ref {
		lo = uint64(r.lo) - uint64(ref)
	}
	if lo > maxCode {
		return none, false
	}
	hi := min(uint64(r.hi)-uint64(ref), maxCode)
	return closedBounds(U(lo), U(hi)), true
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
// itself is returned when 8 bytes is already the best fit. A string tail
// becomes dictionary codes when they take fewer bytes than the strings'
// headers (narrowStrs). The sorted property is kept; the head is
// untouched.
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
	case KStr:
		return narrowStrs(b)
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

// strHeader is the bytes a string takes in a plain column: its header.
const strHeader = int(unsafe.Sizeof(""))

// dictWidth is the code width, in bytes, that holds d distinct values.
func dictWidth(d int) int {
	switch {
	case d <= 1<<8:
		return 1
	case d <= 1<<16:
		return 2
	}
	return 4
}

// strIndex numbers distinct strings by first appearance. A string is
// found through a table keyed by its first byte, which holds the first
// string seen with that byte; only the strings that collide there go to
// a map. A low-cardinality column rarely has two values that share a
// first byte, so a row costs one table read and one string compare.
type strIndex struct {
	first [257]struct { // by first byte (256: "")
		s  string // the first string seen with it
		id int32  // 1 + its id; 0: none
	}
	more map[string]int32
	vals []string // by id
}

// slot is s's entry in the first-byte table.
func slot(s string) int {
	if s == "" {
		return 256
	}
	return int(s[0])
}

// id returns s's id, giving s the next one if it has none yet.
func (x *strIndex) id(s string) (id int32, added bool) {
	f := slot(s)
	if e := &x.first[f]; e.id > 0 && sameString(e.s, s) {
		return e.id - 1, false
	}
	return x.miss(s, f)
}

// miss is id for a string the table does not hold at its slot f: it is
// in the map, or new.
func (x *strIndex) miss(s string, f int) (id int32, added bool) {
	if e := &x.first[f]; e.id == 0 {
		e.s, e.id = s, int32(len(x.vals))+1
	} else if id, ok := x.more[s]; ok {
		return id, false
	} else {
		if x.more == nil {
			x.more = make(map[string]int32)
		}
		x.more[s] = int32(len(x.vals))
	}
	x.vals = append(x.vals, s)
	return int32(len(x.vals)) - 1, true
}

// sameString is a == b, decided without a call when the two share their
// bytes, as the copies of one value in a generated column do.
func sameString(a, b string) bool {
	return len(a) == len(b) && (unsafe.StringData(a) == unsafe.StringData(b) || a == b)
}

// narrowStrs is Narrow for a string tail. One pass numbers the distinct
// values, stopping as soon as n·w + 16·d reaches 16·n, since d only
// grows, and writes each row's id while ids fit a byte; the values are
// sorted into the dictionary, and the ids become codes: in place when
// the codes are a byte wide, by a second lookup pass at their width
// otherwise.
func narrowStrs(b *BAT) *BAT {
	vals := b.t.strs
	n := len(vals)
	var x strIndex
	ids := make([]uint8, n)
	for i, s := range vals {
		// id's table hit, written out: the call was a fifth of the
		// pass.
		if e := &x.first[slot(s)]; e.id > 0 && sameString(e.s, s) {
			ids[i] = uint8(e.id - 1)
			continue
		}
		id, added := x.miss(s, slot(s))
		if d := len(x.vals); added && n*dictWidth(d)+strHeader*d >= strHeader*n {
			return b
		}
		ids[i] = uint8(id)
	}
	order := make([]int32, len(x.vals)) // ids in value order
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int { return cmp.Compare(x.vals[i], x.vals[j]) })
	dict := make([]string, len(order))
	code := make([]uint32, len(order)) // by id
	for c, id := range order {
		dict[c], code[id] = x.vals[id], uint32(c)
	}
	var nc codes
	switch dictWidth(len(dict)) {
	case 1:
		var m [256]uint8
		for id, c := range code {
			m[id] = uint8(c)
		}
		for i, id := range ids {
			ids[i] = m[id]
		}
		nc = narrowInts[uint8]{ids, 0, uint8(len(dict) - 1)}
	case 2:
		nc = dictCodes[uint16](vals, &x, code)
	default:
		nc = dictCodes[uint32](vals, &x, code)
	}
	return &BAT{Name: b.Name, h: b.h, t: &Column{kind: KStr, narrow: nc, dict: dict, sorted: b.t.sorted}}
}

// dictCodes writes each value's code, code[id], as a U.
func dictCodes[U code](vals []string, x *strIndex, code []uint32) codes {
	v := make([]U, len(vals))
	for i, s := range vals {
		id, _ := x.id(s)
		v[i] = U(code[id])
	}
	return narrowInts[U]{v, 0, U(len(code) - 1)}
}

// dictBounds maps the string range r onto a dictionary column's codes:
// the codes whose value lies in r, an empty range when none does. The
// dictionary is sorted, so they are one run of it.
func (c *Column) dictBounds(r bounds[string]) bounds[int64] {
	from, to := rangeSpan(c.dict, r)
	return closedBounds(int64(from), int64(to)-1)
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

// selectCoded is selectTyped for a narrow column, once the literal
// range has been mapped to kr, the range of the integers the codes
// stand for (narrowBounds). The answer takes the form the wide kernel
// gives, which it reads off the literal range: none for an empty one,
// and constant when it is a single value.
func (c *Column) selectCoded(kr bounds[int64], empty, constant bool) hits {
	if empty {
		return hits{}
	}
	h := c.narrow.selectRows(c, kr)
	h.constant = h.scanned && constant
	return h
}

// Widen returns b with every narrow column decoded to int64, float64 or
// string values, or b itself when it has none: what leaves the kernel for a
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
	case c.kind == KStr:
		return &Column{kind: KStr, strs: c.strings(), sorted: c.sorted}
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

// strings returns the values of a string column: the payload itself for
// a plain column, a fresh decoded slice for a dictionary one — never
// cached on the column, like int64s.
func (c *Column) strings() []string {
	if c.narrow == nil {
		return c.strs
	}
	return c.narrow.appendDict(make([]string, 0, c.narrow.len()), c.dict)
}

// appendStrings appends the values of a string column to dst.
func (c *Column) appendStrings(dst []string) []string {
	if c.narrow == nil {
		return append(dst, c.strs...)
	}
	return c.narrow.appendDict(dst, c.dict)
}

// Width reports the bytes one value of c occupies: 1, 2, 4 or 8 for a
// materialized int or float column (a narrow one's code width) and for
// a dictionary string column's codes, 8 for oid columns, 1 for bool, and
// 0 where it is not fixed — plain strings, and dense columns, which
// store no values at all.
func (c *Column) Width() int {
	switch {
	case c.dense:
		return 0
	case c.narrow != nil:
		return c.narrow.width()
	case c.kind == KStr:
		return 0
	case c.kind == KBool:
		return 1
	}
	return 8
}
