package bat

import (
	"encoding/binary"
	"math"
	"math/bits"
	"unsafe"
)

// Term is one range predicate of a conjunction: the rows of B whose tail
// lies within the bounds, with Select's conventions (nil: open side).
type Term struct {
	B      *BAT
	Lo, Hi *Bound
}

// SelectAll is MAL's algebra.uselectall: the candidate list of the rows
// that satisfy every term. It is defined as the chain it replaces,
//
//	c := terms[0].B.USelect(terms[0].Lo, terms[0].Hi)
//	c = terms[i].B.USelectCand(c, terms[i].Lo, terms[i].Hi) // i = 1, 2, …
//
// and answers that chain's OIDs. When every term is a dense-headed
// column over the same rows with an unsorted tail of 1- or 2-byte codes
// — a served table's fragments, narrowed at install — the terms are
// tested into one bitmap of the rows (keptList); otherwise the chain
// runs.
func SelectAll(terms []Term) *BAT {
	if len(terms) == 0 {
		panic("bat: SelectAll of no terms")
	}
	if l, ok := keptList(terms); ok {
		return l
	}
	c := terms[0].B.USelect(terms[0].Lo, terms[0].Hi)
	for _, t := range terms[1:] {
		c = t.B.USelectCand(c, t.Lo, t.Hi)
	}
	return c
}

// keptList is SelectAll's bitmap path; ok is false when the bitmap does
// not take terms (codeTerms). The rejected rows go into one bitmap
// (rejectCodes) and the kept rows are its clear bits, which rejectCodes
// counts, so the OID list is allocated at its size. The bitmap is
// bitPool scratch, dead once the list is written.
func keptList(terms []Term) (l *BAT, ok bool) {
	var buf [maxWordTerms]codeTerm
	cts, ok := codeTerms(buf[:0], terms)
	if !ok {
		return nil, false
	}
	h := terms[0].B.h
	p := bitPool.get((h.n + 63) / 64)
	defer bitPool.put(p)
	var oids []Oid
	if kept, _ := rejectCodes(cts, *p); kept > 0 {
		oids = keptOids(*p, h.base, kept)
	}
	return candList(terms[len(terms)-1].B.Name, oids), true
}

// codeTerm is a range over a column as the rejection bitmap takes it:
// an unsorted tail of 1- or 2-byte codes, and the integers r, ref +
// code, its range keeps (narrowBounds).
type codeTerm struct {
	col *Column
	r   bounds[int64]
}

// codeTerms appends terms to dst as the rejection bitmap takes them; ok
// is false unless there are terms, and every one has a dense head with
// the first one's base and length, an unsorted tail of 1- or 2-byte
// codes and literals its kind normalizes.
func codeTerms(dst []codeTerm, terms []Term) (cts []codeTerm, ok bool) {
	for _, t := range terms {
		h, th, col := terms[0].B.h, t.B.h, t.B.t
		if !th.dense || th.base != h.base || th.n != h.n || col.narrow == nil || col.narrow.width() > 2 || col.Sorted() {
			return nil, false
		}
		r, ok := col.narrowBounds(t.Lo, t.Hi)
		if !ok {
			return nil, false
		}
		dst = append(dst, codeTerm{col, r})
	}
	return dst, len(terms) > 0
}

// rejectCodes writes rej: the bit of every row some term rejects, and
// the bits past the last row; it returns how many rows are kept. The
// terms' columns are of one length. miss: a range missed every code, so
// no row is kept and rej is partly written. Up to maxWordTerms terms on
// a CPU with VBMI2 run the term-table kernel's bitmap exit, which writes
// each word once and counts it as it goes (wordTerms.reject); otherwise
// each term ORs its rejections in (rejectRange) and the clear bits are
// counted after.
func rejectCodes(terms []codeTerm, rej []uint64) (kept int, miss bool) {
	n := terms[0].col.Len()
	if haveVBMI2 && len(terms) <= maxWordTerms {
		var tab wordTerms
		if !tab.fill(terms) {
			return 0, true
		}
		return tab.reject(rej, n), false
	}
	clear(rej)
	if part := n % 64; part != 0 {
		rej[len(rej)-1] = ^uint64(0) << part // past the last row
	}
	for _, t := range terms {
		switch c := t.col.narrow.(type) {
		case narrowInts[uint8]:
			miss = rejectRange(rej, c, t.r)
		case narrowInts[uint16]:
			miss = rejectRange(rej, c, t.r)
		}
		if miss {
			return 0, true
		}
	}
	for _, w := range rej {
		kept += bits.OnesCount64(^w)
	}
	return kept, false
}

// keptRows is selectRows' scan over an unsorted tail t of 1- or 2-byte
// codes, for a range r that holds some code: the rows the rejection
// bitmap keeps (rejectCodes), bitPool scratch, as positions (putKept)
// in idxPool scratch.
func keptRows(t *Column, r bounds[int64]) hits {
	h := hits{scanned: true}
	p := bitPool.get((t.Len() + 63) / 64)
	defer bitPool.put(p)
	if kept, _ := rejectCodes([]codeTerm{{t, r}}, *p); kept > 0 {
		h.pooled = idxPool.get(kept + 2) // putKept's spare slots
		h.idx = (*h.pooled)[:putKept(*h.pooled, *p, 0)]
	}
	return h
}

// maxWordTerms is how many terms the term-table kernel's table holds;
// a longer conjunction runs rejectRange term by term.
const maxWordTerms = 4

// blockRows is the rows of the term-table kernel's block, four 64-row
// words: each term's loop runs once a block.
const blockRows = 256

// wordTerm is one entry of the term-table kernel's table (selectWords),
// laid out as the kernel reads it: a term's codes and the code range it
// keeps, x − lo ≤ span wrapping at the codes' width, with −lo and span
// repeated in every lane of a uint32 so the kernel broadcasts them from
// memory.
type wordTerm struct {
	v         unsafe.Pointer // the codes of the term's rows, row 0 first
	neg, span uint32
}

// wordTerms is a conjunction's table: n entries, the first wide of
// them over 2-byte codes and the rest over 1-byte codes.
type wordTerms struct {
	t       [maxWordTerms]wordTerm
	wide, n int
}

// fill makes tab the table of terms and reports false — a miss — when
// a term's range holds no code, so no row is kept.
func (tab *wordTerms) fill(terms []codeTerm) bool {
	*tab = wordTerms{}
	for _, width := range []int{2, 1} { // the 2-byte terms first
		for _, t := range terms {
			if t.col.narrow.width() != width {
				continue
			}
			ok := false
			switch c := t.col.narrow.(type) {
			case narrowInts[uint8]:
				tab.t[tab.n], ok = wordTermOf(c, t.r)
			case narrowInts[uint16]:
				tab.t[tab.n], ok = wordTermOf(c, t.r)
			}
			if !ok {
				return false
			}
			tab.n++
		}
		if width == 2 {
			tab.wide = tab.n
		}
	}
	return true
}

// wordTermOf is the table entry of c's rows within r; ok is false when
// no code lies inside r.
func wordTermOf[U uint8 | uint16](c narrowInts[U], r bounds[int64]) (e wordTerm, ok bool) {
	cr, ok := codeRange[U](r, c.base)
	if !ok {
		return e, false
	}
	lanes := math.MaxUint32 / uint32(^U(0)) // 1 in every lane
	return wordTerm{
		v:    unsafe.Pointer(unsafe.SliceData(c.v)),
		neg:  uint32(-cr.lo) * lanes,
		span: uint32(cr.hi-cr.lo) * lanes,
	}, true
}

// reject is the bitmap exit: it writes the rejection words of the n
// rows the table's terms cover to rej, the bits past the last row set,
// and returns how many rows are kept. Whole blocks run the kernel, the
// rest wordRej.
func (tab *wordTerms) reject(rej []uint64, n int) (kept int) {
	blocks := n / blockRows
	if blocks > 0 {
		kept = selectWords(unsafe.Pointer(&rej[0]), nil, &tab.t[0], tab.wide, tab.n-tab.wide, blocks, 0)
	}
	for from := blocks * blockRows; from < n; from += 64 {
		rej[from/64] = tab.wordRej(from, min(from+64, n))
		kept += bits.OnesCount64(^rej[from/64])
	}
	return kept
}

// keepCodes is the compress exit: it writes the codes of src, a column
// over the rows the table's terms cover, at the rows they keep to the
// front of dst, which holds a code per row, and returns how many. Whole
// blocks run the kernel, the rest wordRej.
func keepCodes[U code](tab *wordTerms, dst, src []U) int {
	blocks, k := len(src)/blockRows, 0
	if blocks > 0 {
		k = selectWords(unsafe.Pointer(&dst[0]), unsafe.Pointer(&src[0]), &tab.t[0], tab.wide, tab.n-tab.wide, blocks, int(unsafe.Sizeof(src[0])))
	}
	for from := blocks * blockRows; from < len(src); from += 64 {
		for kept := ^tab.wordRej(from, min(from+64, len(src))); kept != 0; kept &= kept - 1 {
			dst[k] = src[from+bits.TrailingZeros64(kept)]
			k++
		}
	}
	return k
}

// wordRej is the rejection word of rows [from, to), at most 64, as the
// kernel writes a whole word's: bit i for row from+i, and the bits past
// to set.
func (tab *wordTerms) wordRej(from, to int) uint64 {
	rej := ^uint64(0) << (to - from) // 0 for a whole word: Go shifts by ≥ 64 to 0
	for j, e := range tab.t[:tab.n] {
		for i := from; i < to; i++ {
			var out bool
			if j < tab.wide {
				out = *(*uint16)(unsafe.Add(e.v, 2*i))+uint16(e.neg) > uint16(e.span)
			} else {
				out = *(*uint8)(unsafe.Add(e.v, i))+uint8(e.neg) > uint8(e.span)
			}
			rej |= uint64(b2i(out)) << (i - from)
		}
	}
	return rej
}

// Mask is a candidate list kept as a bitmap, algebra.uselectmask's
// value: the rows of [base, base+n) no term rejected are the clear bits
// of rej. A select the bitmap kernel does not take keeps its list (rej
// nil). A region's fetches deferred to its merge (FetchAll), its sums
// at the candidates (SumKept) and its counts (Count) read it.
type Mask struct {
	name string
	base Oid
	n    int
	rej  []uint64
	kept int
	list *BAT // the candidates as a list: the select's own, or List's
}

// SelectMask is SelectAll answering a Mask. Over the shapes the bitmap
// takes (codeTerms) it fills the mask's bitmap, drawn from the query's
// arena a (nil: made), and counts the kept rows (rejectCodes);
// otherwise it holds SelectAll's list.
func SelectMask(terms []Term, a *Arena) *Mask {
	var buf [maxWordTerms]codeTerm
	cts, ok := codeTerms(buf[:0], terms)
	if !ok {
		l := SelectAll(terms)
		return &Mask{name: l.Name, list: l}
	}
	h := terms[0].B.h
	rej := draw[uint64](a, (h.n+63)/64)
	if rej == nil {
		rej = []uint64{} // no rows: a bitmap still, not a list
	}
	m := &Mask{name: terms[len(terms)-1].B.Name, base: h.base, n: h.n, rej: rej}
	m.kept, _ = rejectCodes(cts, m.rej) // a miss keeps none
	return m
}

// List is the mask as a candidate list, what the select's SelectAll
// form returns; a bitmap's is made once.
func (m *Mask) List() *BAT {
	if m.list == nil {
		m.list = m.asList()
	}
	return m.list
}

// asList is List without keeping what it made, for a reader that may
// run beside another one (SumKept).
func (m *Mask) asList() *BAT {
	if m.list != nil {
		return m.list
	}
	var oids []Oid
	if m.kept > 0 {
		oids = keptOids(m.rej, m.base, m.kept)
	}
	return candList(m.name, oids)
}

// Count is the number of rows the mask keeps: aggr.count of its list.
func (m *Mask) Count() int64 {
	if m.rej == nil {
		return m.list.Count()
	}
	return int64(m.kept)
}

// SumKept is aggr.sum(col, m): the sum of col's tail at the mask's
// rows, defined as m.List().Join(col).Sum(). When m is a bitmap over
// col's rows and col's tail is int or decimal codes, the kept codes are
// gathered into pooled scratch (gatherKept) and added in row order by
// the codes' own sum, bit for bit the definition's; no list is written.
// Every other shape runs the definition.
func SumKept(col *BAT, m *Mask) any {
	h, t := col.h, col.t
	if m.rej == nil || !h.dense || h.base != m.base || h.n != m.n || t.narrow == nil || (t.kind != KInt && t.kind != KFloat) {
		return m.asList().Join(col).Sum()
	}
	if m.kept == 0 { // a missed range leaves rej partly written
		return zeroSum(t)
	}
	switch c := t.narrow.(type) {
	case narrowInts[uint8]:
		return sumKept(c, &u8Pool, m, t)
	case narrowInts[uint16]:
		return sumKept(c, &u16Pool, m, t)
	case narrowInts[uint32]:
		return sumKept(c, &u32Pool, m, t)
	}
	return m.asList().Join(col).Sum()
}

// sumKept gathers the codes c keeps under m into scratch from pool,
// sums them as t's kind sums its codes, and hands the scratch back.
func sumKept[U code](c narrowInts[U], pool *slicePool[U], m *Mask, t *Column) any {
	p := pool.get(m.kept)
	defer pool.put(p)
	return sumCodes(narrowInts[U]{(*p)[:gatherKept(*p, c.v, m.rej, m.kept, 0)], c.base, c.hi}, t)
}

// zeroSum is the sum of no row of t's tail, of int or decimal codes.
func zeroSum(t *Column) any {
	if t.kind == KInt {
		return int64(0)
	}
	return float64(0)
}

// sumCodes is the sum of the kept codes of t's tail, in row order, as
// t's kind sums its codes: bit for bit the sum of the rows they are.
func sumCodes[U code](kept narrowInts[U], t *Column) any {
	if t.kind == KInt {
		return kept.sum()
	}
	return kept.sumDecimal(t.scale())
}

// SelectSum is aggr.selectsum(col, terms…): the sum of col's tail at
// the rows every term keeps, and how many those are. It is defined as
//
//	m := SelectMask(terms, a)
//	return SumKept(col, m), m.Count()
//
// and answers that bit for bit. On a CPU with VBMI2, when the bitmap
// kernel takes the terms (at most maxWordTerms of them) and SumKept
// would gather col's codes, the term-table kernel's compress exit
// writes the kept codes of each whole 64-row word straight into pooled
// scratch as it tests the word, with no bitmap and no count first: the
// scratch holds every row. The last part-word is gathered here
// (tailRej), and the codes' own sum adds them in row order. Every other
// shape runs the definition.
func SelectSum(col *BAT, terms []Term, a *Arena) (sum any, count int64) {
	if sum, count, ok := selectSumWords(col, terms); ok {
		return sum, count
	}
	m := SelectMask(terms, a)
	return SumKept(col, m), m.Count()
}

// selectSumWords is SelectSum's term-table path; ok is false when it
// does not take the shape.
func selectSumWords(col *BAT, terms []Term) (sum any, count int64, ok bool) {
	var buf [maxWordTerms]codeTerm
	cts, ok := codeTerms(buf[:0], terms)
	if !haveVBMI2 || !ok || len(terms) > maxWordTerms {
		return nil, 0, false
	}
	h, t, th := col.h, col.t, terms[0].B.h
	if !h.dense || h.base != th.base || h.n != th.n || t.narrow == nil || (t.kind != KInt && t.kind != KFloat) {
		return nil, 0, false
	}
	var tab wordTerms
	if !tab.fill(cts) {
		return zeroSum(t), 0, true
	}
	switch c := t.narrow.(type) {
	case narrowInts[uint8]:
		sum, count = selectSumCodes(c, &u8Pool, &tab, t)
	case narrowInts[uint16]:
		sum, count = selectSumCodes(c, &u16Pool, &tab, t)
	case narrowInts[uint32]:
		sum, count = selectSumCodes(c, &u32Pool, &tab, t)
	}
	return sum, count, true
}

// selectSumCodes writes the codes of c that tab keeps into scratch from
// pool, sums them (sumCodes) and hands the scratch back.
func selectSumCodes[U code](c narrowInts[U], pool *slicePool[U], tab *wordTerms, t *Column) (any, int64) {
	p := pool.get(len(c.v))
	defer pool.put(p)
	k := keepCodes(tab, *p, c.v)
	return sumCodes(narrowInts[U]{(*p)[:k], c.base, c.hi}, t), int64(k)
}

// rejectRange ORs into rej the rows of c whose value lies outside r, or
// reports miss — nothing written — when no code lies inside it. A row is
// kept when its code x has x − lo ≤ hi − lo, wrapping at the code width.
// On a CPU with AVX2 whole 32-row blocks run the AVX2 block kernel, which
// writes each block's bits as a 32-bit half of a word (rows 0–31 are the
// low half on a little-endian host); otherwise, on a little-endian host,
// whole 64-row words run rejectWords. The rest run here, a compare a row.
func rejectRange[U uint8 | uint16](rej []uint64, c narrowInts[U], r bounds[int64]) (miss bool) {
	cr, ok := codeRange[U](r, c.base)
	if !ok {
		return true
	}
	lo, span := cr.lo, cr.hi-cr.lo
	done := 0
	switch blocks := len(c.v) / 32; {
	case haveAVX2 && blocks > 0:
		v := unsafe.Pointer(unsafe.SliceData(c.v))
		r32 := (*uint32)(unsafe.Pointer(&rej[0]))
		if unsafe.Sizeof(lo) == 1 {
			rejectBlocks8(r32, (*uint8)(v), blocks, uint8(lo), uint8(span))
		} else {
			rejectBlocks16(r32, (*uint16)(v), blocks, uint16(lo), uint16(span))
		}
		done = blocks * 32
	case !haveAVX2 && hostLittle:
		done = rejectWords(rej, c.v, lo, span)
	}
	for i := done; i < len(c.v); i++ {
		rej[i/64] |= uint64(b2i(c.v[i]-lo > span)) << (i % 64)
	}
	return false
}

// rejectWords is rejectRange's loop without AVX2 on a little-endian
// host: it ORs into rej the rejections of every whole 64-row word of v
// and returns the first row it left. One 8-byte load x holds 8 or 4
// codes, one per w-bit lane; a lane is in the range when d = code − lo,
// taken in its lane, is at most the span s. With H the lanes' top bits,
// L lo and A = 2^(w−1) − 1 − s in every lane, r = (x | H) − (L &^ H) is
// d below the top bits and borrows across no lane, r ^ x ^ L holds d's
// top bits inverted, and for s < 2^(w−1) a lane is in the range exactly
// where (r ^ x ^ L) &^ ((r &^ H) + A) has its top bit set: that sum
// stays inside its lane. A multiply gathers the lanes' top bits into
// adjacent bits of the word. A span of 2^(w−1) or more is tested as its
// complement, the codes from hi + 1 on, which it rejects.
func rejectWords[U uint8 | uint16](rej []uint64, v []U, lo, span U) int {
	if span == ^U(0) {
		return len(v) // every code is kept
	}
	w := int(unsafe.Sizeof(lo))
	lanes, bits := 8/w, uint(8*w)
	flip := ^uint64(0) // the test finds the kept rows
	if uint64(span) >= 1<<(bits-1) {
		lo, span, flip = lo+span+1, ^span-1, 0 // the rejected rows
	}
	ones := ^uint64(0) / uint64(^U(0)) // 1 in every lane
	high := ones << (bits - 1)
	l := ones * uint64(lo)
	lLow := l &^ high
	a := ones * (1<<(bits-1) - 1 - uint64(span))
	var gather uint64 // moves lane j's top bit, j·w + w − 1, to 64 − lanes + j
	for j := 0; j < lanes; j++ {
		gather |= 1 << (64 - uint(lanes) + uint(j) - uint(j)*bits - (bits - 1))
	}
	src := unsafe.Pointer(unsafe.SliceData(v))
	i := 0
	for ; i+64 <= len(v); i += 64 {
		var in uint64
		for j := 0; j < 64; j += lanes {
			x := binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(src, (i+j)*w))[:])
			r := (x | high) - lLow
			m := (r ^ x ^ l) &^ ((r &^ high) + a) & high
			in |= m * gather >> (64 - uint(lanes)) << j
		}
		rej[i/64] |= in ^ flip
	}
	return i
}

// keptOids lists, ascending, base + i for every clear bit i of rej, of
// which there are n > 0.
func keptOids(rej []uint64, base Oid, n int) []Oid {
	out := make([]Oid, n+2)
	putKept(out, rej, base)
	return out[:n:n]
}

// putKept writes first + i for every clear bit i of rej, ascending, to
// the front of out and returns how many: keptOids' list, or a select's
// positions. A word's first two kept rows are stored whether it has them
// or not — out needs two spare slots past the list — and the cursor
// advances by how many it has; only a word that keeps more runs the
// loop. At Q6's ~2 % of rows kept most words keep 0–2, so the branch
// that a loop over every word's bits would mispredict about once a word
// is rarely taken.
func putKept[O int32 | Oid](out []O, rej []uint64, first O) int {
	k := 0
	for i, w := range rej {
		kept := ^w
		o := first + O(i)*64
		c := bits.OnesCount64(kept)
		out[k] = o + O(bits.TrailingZeros64(kept))
		kept &= kept - 1
		out[k+1] = o + O(bits.TrailingZeros64(kept))
		kept &= kept - 1
		k += min(c, 2)
		for ; kept != 0; kept &= kept - 1 {
			out[k] = o + O(bits.TrailingZeros64(kept))
			k++
		}
	}
	return k
}
