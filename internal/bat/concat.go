package bat

// Concat reassembles a logical column from an ordered list of
// fragments — the merge step of the live ring's horizontal
// fragmentation, where a column circulates as bounded-size pieces that
// arrive (and are processed) in any order and are stitched back
// together in fragment order.
//
// Properties are propagated, not recomputed:
//
//   - adjacent dense fragments fuse back into a single dense column
//     (a dense column fragmented with Slice and concatenated again is
//     bit-identical to the original, including its wire encoding);
//   - sortedness survives exactly when every fragment is sorted and
//     each fragment boundary is ordered (last of i <= first of i+1),
//     so a sorted column round-trips with its flag intact while an
//     unsorted one never gains a flag it did not have.
//
// A single fragment returns a full-length zero-copy view; multiple
// materialized fragments are gathered with one exact-size allocation
// per distinct column — a column that several sides share in every
// fragment (head and tail of the candidate lists USelect returns; the
// candidate head a positional fetch passes through to each of its
// outputs) is gathered once and stays shared. Empty fragments are legal
// anywhere in the list.

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"unsafe"
)

// Concat concatenates fragments in order into one BAT. All fragments
// must share head and tail kinds. It panics on an empty fragment list
// (there is no column to describe) and on kind mismatches, like the
// other kernel operators do on shape errors.
func Concat(frags []*BAT) *BAT {
	if len(frags) == 1 {
		return frags[0].viewAll() // the one view struct, nothing else
	}
	return ConcatAll([][]*BAT{frags}, nil)[0]
}

// ConcatAll is Concat over several fragment lists cut at the same
// boundaries — the outputs of one per-fragment pipeline. Lists whose
// fragments hold the same column, pointer for pointer, share its
// concatenation. Merged codes are drawn from a (nil: made).
func ConcatAll(lists [][]*BAT, a *Arena) []*BAT {
	type gathered struct {
		from []*Column
		out  *Column
	}
	var memo []gathered // a handful of columns: searched linearly
	concat := func(cols []*Column) *Column {
		for _, g := range memo {
			if slices.Equal(g.from, cols) {
				return g.out
			}
		}
		out := concatCols(cols, a)
		memo = append(memo, gathered{cols, out})
		return out
	}
	out := make([]*BAT, len(lists))
	for l, frags := range lists {
		if len(frags) == 0 {
			panic("bat: Concat of zero fragments")
		}
		if len(frags) == 1 {
			out[l] = frags[0].viewAll()
			continue
		}
		first := frags[0]
		heads := make([]*Column, len(frags))
		tails := make([]*Column, len(frags))
		for i, f := range frags {
			if f.h.kind != first.h.kind || f.t.kind != first.t.kind {
				panic(fmt.Sprintf("bat: Concat kind mismatch [%s|%s] vs [%s|%s]",
					first.h.kind, first.t.kind, f.h.kind, f.t.kind))
			}
			heads[i], tails[i] = f.h, f.t
		}
		out[l] = &BAT{Name: first.Name, h: concat(heads), t: concat(tails)}
	}
	return out
}

// Fetch is one part of a positional fetch a region defers to its
// merge: the rows of Col, one fragment of a column, at Cand.
type Fetch struct {
	Cand *Mask
	Col  *BAT
}

// FetchAll merges lists of deferred fetches, parts in fragment order:
// list l is defined as the concatenation of Cand.List().Join(Col) over
// its parts — with tails[l], of their tails only, under one dense head
// [0, n). When every part's candidates are a bitmap over its column's
// rows and the columns' codes merge (concatCodes), the result is sized
// once, drawn from the query's arena a (nil: made), and each part's
// kept codes are gathered straight into it; a concat list's head is the
// kept OIDs, written once for all the lists over the same masks. Any
// other list runs the definition. A part's column is read after its
// part unpinned it: on the live ring a fragment stays readable until
// the query returns.
func FetchAll(lists [][]Fetch, tails []bool, a *Arena) []*BAT {
	type head struct {
		masks []*Mask
		col   *Column
	}
	var heads []head
	var slow [][]*BAT // the lists the definition runs
	var at []int
	out := make([]*BAT, len(lists))
	for l, parts := range lists {
		masks := make([]*Mask, len(parts))
		for i, f := range parts {
			masks[i] = f.Cand
		}
		if t := fetchCodes(parts, masks, a); t != nil {
			h := DenseColumn(0, t.Len())
			if !tails[l] {
				h = nil
				for _, g := range heads {
					if slices.Equal(g.masks, masks) {
						h = g.col
					}
				}
				if h == nil {
					h = keptHead(masks, t.Len(), a)
					heads = append(heads, head{masks, h})
				}
			}
			out[l] = &BAT{Name: masks[0].name, h: h, t: t}
			continue
		}
		frags := make([]*BAT, len(parts))
		var off Oid
		for i, f := range parts {
			b := f.Cand.List().Join(f.Col)
			if tails[l] {
				b, off = b.MarkH(off), off+Oid(b.Len())
			}
			frags[i] = b
		}
		slow, at = append(slow, frags), append(at, l)
	}
	for i, b := range ConcatAll(slow, a) {
		out[at[i]] = b
	}
	return out
}

// fetchCodes is FetchAll's one pass: the kept rows of every part's
// codes in one column, or nil when a mask is a list or covers other
// rows than its column's, or the codes do not merge.
func fetchCodes(parts []Fetch, masks []*Mask, a *Arena) *Column {
	cols := make([]*Column, len(parts))
	total := 0
	for i, f := range parts {
		m, h := masks[i], f.Col.h
		if m.rej == nil || !h.dense || h.base != m.base || h.n != m.n {
			return nil
		}
		cols[i], total = f.Col.t, total+m.kept
	}
	return concatCodes(cols, masks, total, a)
}

// keptHead is the masks' kept OIDs in one column of total rows, sorted
// when each part's first OID is at least the previous part's last.
func keptHead(masks []*Mask, total int, a *Arena) *Column {
	oids := draw[Oid](a, total+2) // putKept's spare slots
	at, sorted := 0, true
	for _, m := range masks {
		if m.kept > 0 {
			n := putKept(oids[at:], m.rej, m.base)
			sorted = sorted && (at == 0 || oids[at-1] <= oids[at])
			at += n
		}
	}
	return &Column{kind: KOid, oids: oids[:total:total], sorted: sorted}
}

// concatCols concatenates columns of one kind: one exact-size
// allocation, dense fusion, and boundary-checked sortedness. Narrow
// fragments, each with its own reference and width, keep their codes
// when they share an exponent or a dictionary (concatCodes); any other
// mix decodes into the wide output.
func concatCols(cols []*Column, a *Arena) *Column {
	if fused, ok := fuseDense(cols); ok {
		return fused
	}
	total := 0
	allSorted := true
	for _, c := range cols {
		total += c.Len()
		if !c.Sorted() {
			allSorted = false
		}
	}
	if out := concatCodes(cols, nil, total, a); out != nil {
		out.sorted = allSorted && boundariesOrdered(cols)
		return out
	}
	out := &Column{kind: cols[0].kind}
	switch out.kind {
	case KOid:
		v := make([]Oid, 0, total)
		for _, c := range cols {
			v = append(v, c.oidValues()...)
		}
		out.oids = v
	case KInt:
		v := make([]int64, 0, total)
		for _, c := range cols {
			v = c.appendInts(v)
		}
		out.ints = v
	case KFloat:
		v := make([]float64, 0, total)
		for _, c := range cols {
			v = c.appendFloat64s(v)
		}
		out.floats = v
	case KStr:
		v := make([]string, 0, total)
		for _, c := range cols {
			v = c.appendStrings(v)
		}
		out.strs = v
	case KBool:
		v := make([]bool, 0, total)
		for _, c := range cols {
			v = append(v, c.bools...)
		}
		out.bools = v
	}
	out.sorted = allSorted && boundariesOrdered(cols)
	return out
}

// concatCodes merges the codes of narrow columns into one narrow
// column: the least reference becomes the merged one, the width is the
// narrowest that holds every part's bound rebased onto it (the bound
// each column carries, so no pass reads the codes to size them), and
// each part's codes are written once, shifted by the difference of the
// references. Dictionary parts keep their codes when they share one
// dictionary (their references are all 0); the parts of a region exit
// are takes and views of fragment columns, so they share their
// fragment's. With keep, a column contributes only the rows its mask
// keeps (FetchAll). The merged codes are drawn from a. It gives nil —
// the caller decodes — when a non-empty part is wide or plain, the
// exponents or dictionaries differ, every part is empty, or the rebased
// codes span past what a uint32 holds.
func concatCodes(cols []*Column, keep []*Mask, total int, a *Arena) *Column {
	out := &Column{kind: cols[0].kind}
	parts := make([]codes, 0, len(cols))
	var masks []*Mask
	for i, c := range cols {
		switch {
		case keep == nil && c.Len() == 0, keep != nil && keep[i].kept == 0:
			continue
		case c.narrow == nil, len(parts) > 0 && (c.exp != out.exp || !slices.Equal(c.dict, out.dict)):
			return nil
		}
		out.exp, out.dict = c.exp, c.dict
		parts = append(parts, c.narrow)
		if keep != nil {
			masks = append(masks, keep[i])
		}
	}
	if len(parts) == 0 {
		return nil
	}
	ref := parts[0].ref()
	for _, p := range parts[1:] {
		ref = min(ref, p.ref())
	}
	var span uint64
	for _, p := range parts {
		d := uint64(p.ref()) - uint64(ref)
		if d > math.MaxUint32 {
			return nil
		}
		span = max(span, d+uint64(p.top()))
	}
	switch {
	case span <= math.MaxUint8:
		out.narrow = mergeCodes(draw[uint8](a, total), parts, masks, ref, span)
	case span <= math.MaxUint16:
		out.narrow = mergeCodes(draw[uint16](a, total), parts, masks, ref, span)
	case span <= math.MaxUint32:
		out.narrow = mergeCodes(draw[uint32](a, total), parts, masks, ref, span)
	default:
		return nil
	}
	return out
}

// mergeCodes writes the parts' codes, rebased onto ref, into v, which
// is exactly their number: every code, or with masks the ones each
// part's mask keeps. The caller has checked that every rebased code
// fits: none exceeds top.
func mergeCodes[V code](v []V, parts []codes, masks []*Mask, ref int64, top uint64) codes {
	at := 0
	for i, p := range parts {
		var m *Mask
		if masks != nil {
			m = masks[i]
		}
		d := V(uint64(p.ref()) - uint64(ref))
		switch p := p.(type) {
		case narrowInts[uint8]:
			at += place(v[at:], p.v, d, m)
		case narrowInts[uint16]:
			at += place(v[at:], p.v, d, m)
		case narrowInts[uint32]:
			at += place(v[at:], p.v, d, m)
		}
	}
	return narrowInts[V]{v, ref, V(top)}
}

// place writes src's codes plus d to the front of dst — all of them, or
// the rows m keeps — and returns how many it wrote.
func place[V, U code](dst []V, src []U, d V, m *Mask) int {
	if m == nil {
		rebase(dst, src, d)
		return len(src)
	}
	return gatherKept(dst, src, m.rej, m.kept, d)
}

// gatherKept writes src's codes at the clear bits of rej, of which
// there are kept, each plus d, to the front of dst and returns how
// many. On a CPU with AVX-512 VBMI2 the whole 64-row words go through a
// compress kernel (compressKept); the rest, and every word elsewhere,
// run a loop over each word's set bits, which measured faster than a
// byte-table or a branch-free variant.
func gatherKept[V, U code](dst []V, src []U, rej []uint64, kept int, d V) int {
	k := 0
	if haveVBMI2 {
		var words int
		k, words = compressKept(dst, src, rej, kept, d)
		src, rej = src[words*64:], rej[words:]
	}
	for i, w := range rej {
		row := src[i*64:]
		for kept := ^w; kept != 0; kept &= kept - 1 {
			dst[k] = V(row[bits.TrailingZeros64(kept)]) + d
			k++
		}
	}
	return k
}

// compressKept is gatherKept over src's whole 64-row words on the
// compress kernel for V and U's widths: it returns the codes written
// and the words read, none when no kernel takes the widths (codes
// narrowed into a smaller width). kept, the bitmap's count (the
// mask's), bounds what the words keep, so a dst shorter than it panics
// here rather than being written past.
func compressKept[V, U code](dst []V, src []U, rej []uint64, kept int, d V) (k, words int) {
	words = min(len(src)/64, len(rej))
	if words == 0 {
		return 0, 0
	}
	if kept > len(dst) {
		panic(fmt.Sprintf("bat: %d kept codes gathered into %d", kept, len(dst)))
	}
	t, s, r := unsafe.Pointer(unsafe.SliceData(dst)), unsafe.Pointer(unsafe.SliceData(src)), &rej[0]
	switch unsafe.Sizeof(src[0])<<4 | unsafe.Sizeof(d) {
	case 1<<4 | 1:
		k = compress8to8((*uint8)(t), (*uint8)(s), r, words, uint8(d))
	case 1<<4 | 2:
		k = compress8to16((*uint16)(t), (*uint8)(s), r, words, uint16(d))
	case 1<<4 | 4:
		k = compress8to32((*uint32)(t), (*uint8)(s), r, words, uint32(d))
	case 2<<4 | 2:
		k = compress16to16((*uint16)(t), (*uint16)(s), r, words, uint16(d))
	case 2<<4 | 4:
		k = compress16to32((*uint32)(t), (*uint16)(s), r, words, uint32(d))
	case 4<<4 | 4:
		k = compress32to32((*uint32)(t), (*uint32)(s), r, words, uint32(d))
	default:
		return 0, 0
	}
	return k, words
}

// rebase writes src's codes, each plus d, to the front of dst. Codes of
// dst's own width are copied when d is 0, and otherwise added to eight
// bytes at a time where the machine reads words at any address, d in
// every lane: no lane carries into the next, because every code plus d
// fits.
func rebase[V, U code](dst []V, src []U, d V) {
	dst = dst[:len(src)]
	if same, ok := any(src).([]V); ok {
		if d == 0 {
			copy(dst, same)
			return
		}
		if wordsAnyAlign {
			n := len(same) &^ (8/int(unsafe.Sizeof(d)) - 1) // whole words
			if words := n * int(unsafe.Sizeof(d)) / 8; words > 0 {
				lanes := uint64(d) * (math.MaxUint64 / uint64(^V(0)))
				s := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(same))), words)
				t := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(dst))), words)
				for i, x := range s {
					t[i] = x + lanes
				}
			}
			src, dst = src[n:], dst[n:]
		}
	}
	for i, x := range src {
		dst[i] = V(x) + d
	}
}

// wordsAnyAlign reports whether this machine loads and stores a uint64
// at any address, as rebase's word loop needs: the codes it reads and
// writes start wherever a part's rows do.
var wordsAnyAlign = slices.Contains([]string{"386", "amd64", "arm64", "ppc64le", "s390x"}, runtime.GOARCH)

// fuseDense reports the single dense column equivalent to the
// concatenation, when every fragment is dense and consecutive
// fragments are base-adjacent. Empty fragments are skipped: they
// contribute no rows, so their base is irrelevant.
func fuseDense(cols []*Column) (*Column, bool) {
	base := cols[0].base // all-empty concat keeps the first base
	n := 0
	for _, c := range cols {
		if !c.dense {
			return nil, false
		}
		if c.n == 0 {
			continue
		}
		if n == 0 {
			base = c.base
		} else if c.base != base+Oid(n) {
			return nil, false
		}
		n += c.n
	}
	return &Column{kind: KOid, dense: true, base: base, n: n, sorted: true}, true
}

// boundariesOrdered reports whether every fragment boundary is ordered:
// last value of each non-empty fragment <= first value of the next
// non-empty one. Callers have already checked per-fragment sortedness.
func boundariesOrdered(cols []*Column) bool {
	var prev *Column
	for _, c := range cols {
		if c.Len() == 0 {
			continue
		}
		if prev != nil && !boundaryOrdered(prev, c) {
			return false
		}
		prev = c
	}
	return true
}

// boundaryOrdered reports last(a) <= first(c); kinds match.
func boundaryOrdered(a, c *Column) bool {
	i, j := a.Len()-1, 0
	switch a.kind {
	case KOid:
		return a.Oid(i) <= c.Oid(j)
	case KInt:
		return a.Int(i) <= c.Int(j)
	case KFloat:
		return a.Float(i) <= c.Float(j)
	case KStr:
		return a.Str(i) <= c.Str(j)
	case KBool:
		return !a.bools[i] || c.bools[j]
	}
	return false
}
