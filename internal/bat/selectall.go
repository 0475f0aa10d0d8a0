package bat

import (
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
// — a served table's fragments, narrowed at install — and the CPU runs
// AVX2, the terms are tested in one pass each into one bitmap of the
// rows (selectCodes); otherwise the chain runs.
func SelectAll(terms []Term) *BAT {
	if len(terms) == 0 {
		panic("bat: SelectAll of no terms")
	}
	if oids, ok := selectCodes(terms); ok {
		return candList(terms[len(terms)-1].B.Name, oids)
	}
	c := terms[0].B.USelect(terms[0].Lo, terms[0].Hi)
	for _, t := range terms[1:] {
		c = t.B.USelectCand(c, t.Lo, t.Hi)
	}
	return c
}

// selectCodes is SelectAll's bitmap kernel. It takes terms when every
// one has a dense head with the first term's base and length, an
// unsorted tail of 1- or 2-byte codes and literals its kind normalizes
// (takesCodes), on amd64 with AVX2; ok is false otherwise. The rejected
// rows are ORed into one bitmap (rejectCodes) and the kept rows are its
// clear bits, counted first so the OID list is allocated at its size.
// The bitmap is bitPool scratch, dead once the list is written.
func selectCodes(terms []Term) (oids []Oid, ok bool) {
	if !haveAVX2 || !takesAllCodes(terms) {
		return nil, false
	}
	h := terms[0].B.h
	p := bitPool.get((h.n + 63) / 64)
	defer bitPool.put(p)
	if rejectCodes(terms, *p) {
		return nil, true
	}
	return keptOids(*p, h.base), true
}

// takesAllCodes reports whether every term takes the bitmap kernel over
// the first term's rows.
func takesAllCodes(terms []Term) bool {
	h := terms[0].B.h
	for _, t := range terms {
		if !takesCodes(t, h) {
			return false
		}
	}
	return true
}

// rejectCodes sets the bit of every row some term rejects, and the
// bits past the last row; each term ORs its rejections in
// (rejectRange). miss: a range missed every code, so no row is kept and
// rej is partly written.
func rejectCodes(terms []Term, rej []uint64) (miss bool) {
	clear(rej)
	if part := terms[0].B.h.n % 64; part != 0 {
		rej[len(rej)-1] = ^uint64(0) << part // past the last row
	}
	for _, t := range terms {
		r, _ := t.B.t.narrowBounds(t.Lo, t.Hi)
		switch c := t.B.t.narrow.(type) {
		case narrowInts[uint8]:
			miss = rejectRange(rej, c, r)
		case narrowInts[uint16]:
			miss = rejectRange(rej, c, r)
		}
		if miss {
			return true
		}
	}
	return false
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
// kernel takes (selectCodes) it fills the mask's bitmap, drawn from the
// query's arena a (nil: made), with rejectRange's kernels, and counts
// the kept rows; otherwise it holds SelectAll's list.
func SelectMask(terms []Term, a *Arena) *Mask {
	if len(terms) == 0 || !takesAllCodes(terms) {
		l := SelectAll(terms)
		return &Mask{name: l.Name, list: l}
	}
	h := terms[0].B.h
	rej := draw[uint64](a, (h.n+63)/64)
	if rej == nil {
		rej = []uint64{} // no rows: a bitmap still, not a list
	}
	m := &Mask{name: terms[len(terms)-1].B.Name, base: h.base, n: h.n, rej: rej}
	if !rejectCodes(terms, m.rej) {
		for _, w := range m.rej {
			m.kept += bits.OnesCount64(^w)
		}
	}
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
		oids = keptOids(m.rej, m.base)
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
		if t.kind == KInt {
			return int64(0)
		}
		return float64(0)
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
	kept := narrowInts[U]{(*p)[:gatherKept(*p, c.v, m.rej, 0)], c.base, c.hi}
	if t.kind == KInt {
		return kept.sum()
	}
	return kept.sumDecimal(t.scale())
}

// takesCodes reports whether the bitmap kernel takes t over the rows of
// the dense head h.
func takesCodes(t Term, h *Column) bool {
	th, col := t.B.h, t.B.t
	if !th.dense || th.base != h.base || th.n != h.n || col.narrow == nil || col.narrow.width() > 2 || col.Sorted() {
		return false
	}
	_, ok := col.narrowBounds(t.Lo, t.Hi)
	return ok
}

// rejectRange ORs into rej the rows of c whose value lies outside r, or
// reports miss — nothing written — when no code lies inside it. A row is
// kept when its code x has x − lo ≤ hi − lo, wrapping at the code width,
// scanCodes' one compare. Whole 64-row words run the AVX-512 word kernel
// on a CPU with VBMI2 (haveVBMI2 checks AVX512F and AVX512BW with it),
// whole 32-row blocks the AVX2 block kernel, which writes each block's
// bits as a 32-bit half of a word (rows 0–31 are the low half on a
// little-endian host), and the rest run here — every row on a CPU
// without AVX2.
func rejectRange[U uint8 | uint16](rej []uint64, c narrowInts[U], r bounds[int64]) (miss bool) {
	if r.empty() {
		return true
	}
	cr, below, above := codeRange[U](r, c.base)
	if below || above {
		return true
	}
	lo, span := cr.lo, cr.hi-cr.lo
	done := 0
	v := unsafe.Pointer(unsafe.SliceData(c.v))
	if words := len(c.v) / 64; haveVBMI2 && words > 0 {
		if unsafe.Sizeof(lo) == 1 {
			rejectWords8(&rej[0], (*uint8)(v), words, uint8(lo), uint8(span))
		} else {
			rejectWords16(&rej[0], (*uint16)(v), words, uint16(lo), uint16(span))
		}
		done = words * 64
	} else if blocks := len(c.v) / 32; haveAVX2 && blocks > 0 {
		r32 := (*uint32)(unsafe.Pointer(&rej[0]))
		if unsafe.Sizeof(lo) == 1 {
			rejectBlocks8(r32, (*uint8)(v), blocks, uint8(lo), uint8(span))
		} else {
			rejectBlocks16(r32, (*uint16)(v), blocks, uint16(lo), uint16(span))
		}
		done = blocks * 32
	}
	for i := done; i < len(c.v); i++ {
		rej[i/64] |= uint64(b2i(c.v[i]-lo > span)) << (i % 64)
	}
	return false
}

// keptOids lists, ascending, base + i for every clear bit i of rej.
func keptOids(rej []uint64, base Oid) []Oid {
	n := 0
	for _, w := range rej {
		n += bits.OnesCount64(^w)
	}
	if n == 0 {
		return nil
	}
	out := make([]Oid, n+2)
	putKept(out, rej, base)
	return out[:n:n]
}

// putKept writes keptOids' list to the front of out and returns its
// length. A word's first two kept rows are stored whether it has them
// or not — out needs two spare slots past the list — and the cursor
// advances by how many it has; only a word that keeps more runs the
// loop. At Q6's ~2 % of rows kept most words keep 0–2, so the branch
// that a loop over every word's bits would mispredict about once a word
// is rarely taken.
func putKept(out []Oid, rej []uint64, base Oid) int {
	k := 0
	for i, w := range rej {
		kept := ^w
		o := base + Oid(i)*64
		c := bits.OnesCount64(kept)
		out[k] = o + Oid(bits.TrailingZeros64(kept))
		kept &= kept - 1
		out[k+1] = o + Oid(bits.TrailingZeros64(kept))
		kept &= kept - 1
		k += min(c, 2)
		for ; kept != 0; kept &= kept - 1 {
			out[k] = o + Oid(bits.TrailingZeros64(kept))
			k++
		}
	}
	return k
}
