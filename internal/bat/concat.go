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
	return ConcatAll([][]*BAT{frags})[0]
}

// ConcatAll is Concat over several fragment lists cut at the same
// boundaries — the outputs of one per-fragment pipeline. Lists whose
// fragments hold the same column, pointer for pointer, share its
// concatenation.
func ConcatAll(lists [][]*BAT) []*BAT {
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
		out := concatCols(cols)
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

// concatCols is the n-ary generalization of concatCol: one exact-size
// allocation, dense fusion, and boundary-checked sortedness. Narrow
// fragments, each with its own reference and width, keep their codes
// when they share an exponent (mergeCodes), and dictionary fragments
// keep theirs when they share a dictionary (concatDicts); any other mix
// decodes into the wide output.
func concatCols(cols []*Column) *Column {
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
	out := &Column{kind: cols[0].kind}
	if out.kind == KStr {
		out.narrow, out.dict = concatDicts(cols, total)
	} else {
		out.narrow, out.exp, _ = concatCodes(cols, total)
	}
	if out.narrow != nil {
		out.sorted = allSorted && boundariesOrdered(cols)
		return out
	}
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

// concatCodes merges the codes of narrow columns into the codes of one:
// the least reference becomes the merged one, the width is the
// narrowest that holds every part's bound rebased onto it (the bound
// each column carries, so no pass reads the codes to size them), and
// each part's codes are written once, shifted by the difference of the
// references. It reports false — the caller decodes to wide — when a
// non-empty column is wide, the exponents differ, every column is empty,
// or the rebased codes span past what a uint32 holds.
func concatCodes(cols []*Column, total int) (nc codes, exp uint8, ok bool) {
	parts := make([]codes, 0, len(cols))
	for _, c := range cols {
		switch {
		case c.Len() == 0:
			continue
		case c.narrow == nil, len(parts) > 0 && c.exp != exp:
			return nil, 0, false
		}
		exp = c.exp
		parts = append(parts, c.narrow)
	}
	if len(parts) == 0 {
		return nil, 0, false
	}
	ref := parts[0].ref()
	for _, p := range parts[1:] {
		ref = min(ref, p.ref())
	}
	var span uint64
	for _, p := range parts {
		d := uint64(p.ref()) - uint64(ref)
		if d > math.MaxUint32 {
			return nil, 0, false
		}
		span = max(span, d+uint64(p.top()))
	}
	switch {
	case span <= math.MaxUint8:
		return mergeCodes[uint8](parts, total, ref, span), exp, true
	case span <= math.MaxUint16:
		return mergeCodes[uint16](parts, total, ref, span), exp, true
	case span <= math.MaxUint32:
		return mergeCodes[uint32](parts, total, ref, span), exp, true
	}
	return nil, 0, false
}

// mergeCodes writes the parts' codes, rebased onto ref, into one
// exact-size vector of width V. The caller has checked that every
// rebased code fits: none exceeds top.
func mergeCodes[V code](parts []codes, total int, ref int64, top uint64) codes {
	v := make([]V, total)
	at := 0
	for _, p := range parts {
		d := V(uint64(p.ref()) - uint64(ref))
		switch p := p.(type) {
		case narrowInts[uint8]:
			rebase(v[at:], p.v, d)
		case narrowInts[uint16]:
			rebase(v[at:], p.v, d)
		case narrowInts[uint32]:
			rebase(v[at:], p.v, d)
		}
		at += p.len()
	}
	return narrowInts[V]{v, ref, V(top)}
}

// concatDicts merges dictionary columns that share one dictionary into
// its codes, copied as they are (concatCodes: the references are all
// 0). It gives nil when a non-empty column is plain, when two
// dictionaries differ, or when every column is empty; those merges
// decode (appendStrings). The parts of a region exit are takes and
// views of fragment columns, so they share their fragment's dictionary.
func concatDicts(cols []*Column, total int) (codes, []string) {
	var dict []string
	seen := false
	for _, c := range cols {
		switch {
		case c.Len() == 0:
			continue
		case c.narrow == nil, seen && !slices.Equal(c.dict, dict):
			return nil, nil
		}
		dict, seen = c.dict, true
	}
	if !seen {
		return nil, nil
	}
	nc, _, _ := concatCodes(cols, total)
	return nc, dict
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
