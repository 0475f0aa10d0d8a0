package bat

import (
	"fmt"
	"math"
)

// This file is the boxed, reflection-ish fallback path of the kernel.
// The typed kernels in ops.go and aggr.go handle every same-kind and
// int-column/float-literal combination; what remains here is only
// reached for predicates whose literal cannot be normalized to the
// column's kind (e.g. exotic Bound value types fed through the MAL
// shell). It is also kept as the reference implementation the
// equivalence tests and the BenchmarkBAT* baseline sub-benchmarks run
// against.

func cmpValues(kind Kind, a, b any) int {
	switch kind {
	case KOid:
		x, y := a.(Oid), b.(Oid)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case KInt:
		// Mixed int/float comparisons (e.g. an int column against a
		// float literal) are compared as floats.
		if isFloat(a) || isFloat(b) {
			x, y := toFloat64(a), toFloat64(b)
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
		x, y := toInt64(a), toInt64(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case KFloat:
		x, y := toFloat64(a), toFloat64(b)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case KStr:
		x, y := a.(string), b.(string)
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case KBool:
		x, y := a.(bool), b.(bool)
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
	}
	return 0
}

func isFloat(v any) bool {
	_, ok := v.(float64)
	return ok
}

func toInt64(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case Oid:
		return int64(x)
	}
	panic(fmt.Sprintf("bat: cannot convert %T to int64", v))
}

func toFloat64(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int64:
		return float64(x)
	case int:
		return float64(x)
	}
	panic(fmt.Sprintf("bat: cannot convert %T to float64", v))
}

// selectGeneric is the boxed row-at-a-time Select: one Value() call and
// up to two cmpValues dispatches per row. A NaN lies in no bounded
// range, as in the typed kernels' compares.
func (b *BAT) selectGeneric(lo, hi *Bound) *BAT {
	var idx []int
	n := b.Len()
	for i := 0; i < n; i++ {
		v := b.t.Value(i)
		if f, ok := v.(float64); ok && math.IsNaN(f) && (lo != nil || hi != nil) {
			continue
		}
		if lo != nil {
			c := cmpValues(b.t.kind, v, lo.Value)
			if c < 0 || (c == 0 && !lo.Inclusive) {
				continue
			}
		}
		if hi != nil {
			c := cmpValues(b.t.kind, v, hi.Value)
			if c > 0 || (c == 0 && !hi.Inclusive) {
				continue
			}
		}
		idx = append(idx, i)
	}
	nb := &BAT{Name: b.Name, h: b.h.take(idx), t: b.t.take(idx)}
	nb.h.sorted = b.h.Sorted()
	nb.t.sorted = b.t.Sorted()
	return nb
}

// selectNeGeneric is the boxed inequality filter.
func (b *BAT) selectNeGeneric(v any) *BAT {
	var idx []int
	for i := 0; i < b.Len(); i++ {
		if cmpValues(b.t.kind, b.t.Value(i), v) != 0 {
			idx = append(idx, i)
		}
	}
	nb := &BAT{Name: b.Name, h: b.h.take(idx), t: b.t.take(idx)}
	nb.h.sorted = b.h.Sorted()
	return nb
}

// buildHash indexes column c the boxed way: value -> row positions.
func buildHash(c *Column) map[any][]int {
	m := make(map[any][]int, c.Len())
	for i := 0; i < c.Len(); i++ {
		k := c.Value(i)
		m[k] = append(m[k], i)
	}
	return m
}

// joinGeneric is the boxed hash join over map[any][]int.
func (b *BAT) joinGeneric(r *BAT) *BAT {
	hash := buildHash(r.h)
	var li, ri []int
	for i := 0; i < b.Len(); i++ {
		for _, j := range hash[b.t.Value(i)] {
			li = append(li, i)
			ri = append(ri, j)
		}
	}
	return &BAT{Name: b.Name, h: b.h.take(li), t: r.t.take(ri)}
}

// eqRowsGeneric compares two aligned tails with boxed dispatch; reached
// only when the tails have different kinds (e.g. int vs float).
func (b *BAT) eqRowsGeneric(r *BAT) *BAT {
	var idx []int
	for i := 0; i < b.Len(); i++ {
		if cmpValues(b.t.kind, b.t.Value(i), r.t.Value(i)) == 0 {
			idx = append(idx, i)
		}
	}
	nb := &BAT{Name: b.Name, h: b.h.take(idx), t: b.t.take(idx)}
	nb.h.sorted = b.h.Sorted()
	return nb
}
