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
	"slices"
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
// fragments, each with its own reference, width and exponent, decode
// into the wide output.
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
			v = append(v, c.strs...)
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
