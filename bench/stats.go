package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median sorts a copy of v and returns its 50th percentile.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentile is the percentile rule: the highest of 90, 99 and 99.9
// that still has at least ten of the n samples beyond it. With fewer
// than 100 samples no tail is supported and it returns 50, so the tail
// a caller reports degrades to the median instead of to an anecdote.
func tailPercentile(n int) float64 {
	switch {
	case n >= 10000:
		return 99.9
	case n >= 1000:
		return 99
	case n >= 100:
		return 90
	}
	return 50
}

// perQuery divides a counter delta over a window by the queries the
// window completed; 0 when it completed none.
func perQuery(delta int64, queries int) float64 {
	return ratio(float64(delta), float64(queries))
}

// ratio is a/b, and 0 when b is 0: a layer that did nothing in the
// window reports 0, not NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
