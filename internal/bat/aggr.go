package bat

import (
	"cmp"
	"fmt"
)

// Aggregation and grouping kernels. Like ops.go, every operator here
// dispatches on the column kind once per call and then runs a
// monomorphic loop; sorted tails group/dedup by adjacent comparison
// with no hash table at all.

// Sum reduces the tail column to a scalar sum. Int columns sum to int64,
// float columns to float64, added in row order.
func (b *BAT) Sum() any {
	switch b.t.kind {
	case KInt:
		if b.t.narrow != nil {
			return b.t.narrow.sum()
		}
		var s int64
		for _, v := range b.t.ints {
			s += v
		}
		return s
	case KFloat:
		if b.t.narrow != nil {
			return b.t.narrow.sumDecimal(b.t.scale())
		}
		var s float64
		for _, v := range b.t.floats {
			s += v
		}
		return s
	case KOid:
		if b.t.dense {
			// Arithmetic series: n*base + 0+1+...+(n-1).
			n := int64(b.t.n)
			return n*int64(b.t.base) + n*(n-1)/2
		}
		var s int64
		for _, o := range b.t.oids {
			s += int64(o)
		}
		return s
	}
	panic(fmt.Sprintf("bat: Sum over %s tail", b.t.kind))
}

// Count reports the number of rows (aggr.count).
func (b *BAT) Count() int64 { return int64(b.Len()) }

// Min returns the minimum tail value, or nil when empty.
func (b *BAT) Min() any { return b.extreme(-1) }

// Max returns the maximum tail value, or nil when empty.
func (b *BAT) Max() any { return b.extreme(1) }

// extremeOf scans a typed payload for its minimum or maximum.
func extremeOf[T cmp.Ordered](vals []T, wantMax bool) T {
	best := vals[0]
	if wantMax {
		for _, v := range vals[1:] {
			if v > best {
				best = v
			}
		}
	} else {
		for _, v := range vals[1:] {
			if v < best {
				best = v
			}
		}
	}
	return best
}

func (b *BAT) extreme(sign int) any {
	n := b.Len()
	if n == 0 {
		return nil
	}
	t := b.t
	wantMax := sign > 0
	if t.Sorted() && t.kind != KBool {
		// Sorted tails answer extremes in O(1).
		if wantMax {
			return t.Value(n - 1)
		}
		return t.Value(0)
	}
	switch t.kind {
	case KOid:
		return extremeOf(t.oids, wantMax)
	case KInt:
		if t.narrow != nil {
			return t.narrow.extreme(wantMax)
		}
		return extremeOf(t.ints, wantMax)
	case KFloat:
		if t.narrow != nil {
			return decode(t.narrow.extreme(wantMax), t.scale())
		}
		return extremeOf(t.floats, wantMax)
	case KStr:
		if t.narrow != nil {
			return t.dict[t.narrow.extreme(wantMax)] // code order is string order
		}
		return extremeOf(t.strs, wantMax)
	case KBool:
		for _, v := range t.bools {
			if v == wantMax {
				return wantMax
			}
		}
		return !wantMax
	}
	panic("bat: bad kind")
}

// Avg returns the arithmetic mean of a numeric tail as float64.
func (b *BAT) Avg() float64 {
	if b.Len() == 0 {
		return 0
	}
	switch v := b.Sum().(type) {
	case int64:
		return float64(v) / float64(b.Len())
	case float64:
		return v / float64(b.Len())
	}
	panic("bat: Avg over non-numeric tail")
}

// groupKeys assigns dense group ids by first appearance using a typed
// hash table: one map instantiation per kind. The table grows with the
// groups; a grouping key usually has far fewer than it has rows.
func groupKeys[T comparable](vals []T) (ids []Oid, repIdx []int32) {
	ids = make([]Oid, len(vals))
	idOf := make(map[T]Oid)
	for i, v := range vals {
		id, seen := idOf[v]
		if !seen {
			id = Oid(len(repIdx))
			idOf[v] = id
			repIdx = append(repIdx, int32(i))
		}
		ids[i] = id
	}
	return ids, repIdx
}

// groupSortedKeys is groupKeys over a sorted payload: group boundaries
// are adjacent-value changes, no hash table needed.
func groupSortedKeys[T comparable](vals []T) (ids []Oid, repIdx []int32) {
	ids = make([]Oid, len(vals))
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			repIdx = append(repIdx, int32(i))
		}
		ids[i] = Oid(len(repIdx) - 1)
	}
	return ids, repIdx
}

// groupTail computes group ids and representative row positions for b's
// tail, picking the sorted or hashed kernel per kind.
func (b *BAT) groupTail() (ids []Oid, repIdx []int32) {
	t := b.t
	if t.dense {
		// Every value is distinct: each row is its own group.
		ids = make([]Oid, t.n)
		repIdx = make([]int32, t.n)
		for i := range ids {
			ids[i] = Oid(i)
			repIdx[i] = int32(i)
		}
		return ids, repIdx
	}
	sorted := t.Sorted()
	if t.narrow != nil {
		return t.narrow.group(sorted)
	}
	switch t.kind {
	case KOid:
		if sorted {
			return groupSortedKeys(t.oids)
		}
		return groupKeys(t.oids)
	case KInt:
		if sorted {
			return groupSortedKeys(t.ints)
		}
		return groupKeys(t.ints)
	case KFloat:
		if sorted {
			return groupSortedKeys(t.floats)
		}
		return groupKeys(t.floats)
	case KStr:
		if sorted {
			return groupSortedKeys(t.strs)
		}
		return groupKeys(t.strs)
	case KBool:
		return groupKeys(t.bools)
	}
	panic("bat: bad kind")
}

// GroupIDs assigns a dense group id to each row based on its tail value:
// the result is [head | group oid], plus a representative BAT
// [group oid | tail value] in first-appearance order. The result shares
// b's head zero-copy.
func (b *BAT) GroupIDs() (groups, reps *BAT) {
	ids, repIdx := b.groupTail()
	gt := OidColumn(ids)
	gt.sorted = b.t.Sorted() // sorted keys yield non-decreasing ids
	groups = &BAT{Name: b.Name, h: b.h, t: gt}
	reps = &BAT{Name: b.Name, h: DenseColumn(0, len(repIdx)), t: b.t.take32(repIdx)}
	reps.t.sorted = b.t.Sorted()
	return groups, reps
}

// GroupIDsPos is GroupIDs but returns representatives as row positions:
// reps is [group oid | head oid of first row in group], so representative
// key values can be fetched by joining reps against any aligned column.
func (b *BAT) GroupIDsPos() (groups, reps *BAT) {
	ids, repIdx := b.groupTail()
	gt := OidColumn(ids)
	gt.sorted = b.t.Sorted()
	groups = &BAT{Name: b.Name, h: b.h, t: gt}
	reps = New(b.Name, DenseColumn(0, len(repIdx)), b.h.take32(repIdx))
	return groups, reps
}

// deriveIDs refines the group ids gids by the key ids kids (nk distinct):
// a row's refined group is its pair (g, k), numbered by first appearance
// like groupKeys numbers values. The pair g·nk + k indexes a dense array
// while the ng·nk combinations fit in denseFill slots a row, a map
// beyond.
func deriveIDs(gids, kids []Oid, ng, nk int) (ids []Oid, repIdx []int32) {
	ids = make([]Oid, len(gids))
	if uint64(ng)*uint64(nk) <= denseFill*uint64(len(gids)) {
		slot := make([]int32, ng*nk) // 1 + the refined id; 0: not seen yet
		for i, g := range gids {
			c := int(g)*nk + int(kids[i])
			if slot[c] == 0 {
				repIdx = append(repIdx, int32(i))
				slot[c] = int32(len(repIdx))
			}
			ids[i] = Oid(slot[c] - 1)
		}
		return ids, repIdx
	}
	idOf := make(map[uint64]Oid)
	for i, g := range gids {
		c := uint64(g)*uint64(nk) + uint64(kids[i])
		id, seen := idOf[c]
		if !seen {
			id = Oid(len(repIdx))
			idOf[c] = id
			repIdx = append(repIdx, int32(i))
		}
		ids[i] = id
	}
	return ids, repIdx
}

// GroupDerive refines an existing grouping by an additional key column
// (MAL's group.derive): rows belong to the same refined group iff they
// share both the old group id and the key value. Returns the refined
// [head | group oid] plus a representative row BAT [group oid | row pos]
// usable to fetch representative key values. The key column is grouped
// alone, by the kernel its properties pick, and the two ids combine
// through deriveIDs.
func GroupDerive(groups, keys *BAT) (refined, reps *BAT) {
	if groups.Len() != keys.Len() {
		panic("bat: GroupDerive length mismatch")
	}
	kids, krep := keys.groupTail()
	ids, repIdx := deriveIDs(groups.t.oidValues(), kids, maxGroup(groups)+1, len(krep))
	refined = &BAT{Name: groups.Name, h: groups.h, t: OidColumn(ids)}
	reps = New(groups.Name, DenseColumn(0, len(repIdx)), groups.h.take32(repIdx))
	return refined, reps
}

// GroupedSum computes per-group sums: groups maps row position to group
// id (tail), vals holds the values (tail, aligned by row position).
// The result is [group oid | sum]. A narrow column is read in its codes.
func GroupedSum(groups, vals *BAT) *BAT {
	if groups.Len() != vals.Len() {
		panic("bat: GroupedSum length mismatch")
	}
	ngroups := maxGroup(groups) + 1
	gids := groups.t.oidValues()
	switch vals.t.kind {
	case KInt:
		sums := make([]int64, ngroups)
		if vals.t.narrow != nil {
			vals.t.narrow.groupedSum(gids, sums)
		} else {
			for i, g := range gids {
				sums[g] += vals.t.ints[i]
			}
		}
		return New(vals.Name, DenseColumn(0, ngroups), IntColumn(sums))
	case KFloat:
		sums := make([]float64, ngroups)
		if vals.t.narrow != nil {
			vals.t.narrow.groupedSumDecimal(gids, sums, vals.t.scale())
		} else {
			for i, g := range gids {
				sums[g] += vals.t.floats[i]
			}
		}
		return New(vals.Name, DenseColumn(0, ngroups), FloatColumn(sums))
	}
	panic(fmt.Sprintf("bat: GroupedSum over %s", vals.t.kind))
}

// GroupedCount counts rows per group: [group oid | count].
func GroupedCount(groups *BAT) *BAT {
	ngroups := maxGroup(groups) + 1
	counts := make([]int64, ngroups)
	for _, g := range groups.t.oidValues() {
		counts[g]++
	}
	return New(groups.Name, DenseColumn(0, ngroups), IntColumn(counts))
}

// GroupedAvg computes per-group means: [group oid | avg].
func GroupedAvg(groups, vals *BAT) *BAT {
	sums := GroupedSum(groups, vals)
	counts := GroupedCount(groups)
	n := sums.Len()
	avgs := make([]float64, n)
	for i := 0; i < n; i++ {
		c := float64(counts.t.ints[i])
		if c == 0 {
			continue
		}
		switch sums.t.kind {
		case KInt:
			avgs[i] = float64(sums.t.ints[i]) / c
		case KFloat:
			avgs[i] = sums.t.floats[i] / c
		}
	}
	return New(vals.Name, DenseColumn(0, n), FloatColumn(avgs))
}

// GroupedMin computes per-group minima: [group oid | min].
func GroupedMin(groups, vals *BAT) *BAT { return groupedExtreme(groups, vals, -1) }

// GroupedMax computes per-group maxima: [group oid | max].
func GroupedMax(groups, vals *BAT) *BAT { return groupedExtreme(groups, vals, 1) }

// extremeByGroup folds a typed payload to per-group minima or maxima.
func extremeByGroup[T cmp.Ordered](gids []Oid, vals []T, ngroups int, wantMax bool) []T {
	out := make([]T, ngroups)
	set := make([]bool, ngroups)
	for i, g := range gids {
		v := vals[i]
		switch {
		case !set[g]:
			set[g] = true
			out[g] = v
		case wantMax && v > out[g]:
			out[g] = v
		case !wantMax && v < out[g]:
			out[g] = v
		}
	}
	for g := range set {
		if !set[g] {
			panic("bat: empty group in grouped extreme")
		}
	}
	return out
}

func groupedExtreme(groups, vals *BAT, sign int) *BAT {
	if groups.Len() != vals.Len() {
		panic("bat: grouped extreme length mismatch")
	}
	ngroups := maxGroup(groups) + 1
	gids := groups.t.oidValues()
	wantMax := sign > 0
	var out *Column
	switch vals.t.kind {
	case KOid:
		out = OidColumn(extremeByGroup(gids, vals.t.oidValues(), ngroups, wantMax))
	case KInt:
		out = IntColumn(extremeByGroup(gids, vals.t.int64s(), ngroups, wantMax))
	case KFloat:
		out = FloatColumn(extremeByGroup(gids, vals.t.float64s(), ngroups, wantMax))
	case KStr:
		out = StrColumn(extremeByGroup(gids, vals.t.strings(), ngroups, wantMax))
	case KBool:
		// bool is not cmp.Ordered; widen to bytes (false < true).
		bytes := make([]uint8, len(vals.t.bools))
		for i, v := range vals.t.bools {
			if v {
				bytes[i] = 1
			}
		}
		folded := extremeByGroup(gids, bytes, ngroups, wantMax)
		bools := make([]bool, ngroups)
		for i, v := range folded {
			bools[i] = v == 1
		}
		out = BoolColumn(bools)
	default:
		panic("bat: bad kind")
	}
	return New(vals.Name, DenseColumn(0, ngroups), out)
}

func maxGroup(groups *BAT) int {
	if groups.t.kind != KOid {
		panic("bat: group column must be oid")
	}
	if groups.t.dense {
		return groups.t.n - 1
	}
	max := -1
	for _, g := range groups.t.oids {
		if int(g) > max {
			max = int(g)
		}
	}
	return max
}
