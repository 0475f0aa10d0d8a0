package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Grouped aggregation within a region part: the half of a GROUP BY the
// DcOptimizer moves to where the rows are. GroupBy reads a part's
// candidates and each key and aggregated column once and accumulates
// every group's row count, sums, minima and maxima; MergeGroups merges
// the parts' groups by key value in fragment order; Columns reads the
// outcome out as the columns the whole-column plan computes with
// group.newpos, group.derive, the representative-key joins and
// aggr.grouped*.

// GroupOp is an aggregate a grouping computes per group.
type GroupOp uint8

const (
	GroupCount GroupOp = iota // rows per group, int64: GroupedCount
	GroupSum                  // GroupedSum: int64 over ints, float64 over floats, added in row order
	GroupAvg                  // GroupedAvg: the sum ÷ the count, float64
	GroupMin                  // GroupedMin
	GroupMax                  // GroupedMax
)

// GroupOut is one aggregate column of a grouping: Op over Col's tail
// (nil for GroupCount).
type GroupOut struct {
	Op  GroupOp
	Col *BAT
}

// Groups is a grouping's state over the rows of one part, or of several
// parts merged: its groups in first-appearance order, each one's key
// values, row count and accumulators. Keys and accumulators are wide
// columns with one value per group, so parts whose fragments hold
// different dictionaries, references or exponents merge by value.
type Groups struct {
	keys  []*Column
	count []int64
	accs  []*Column // per group a sum (int64 or float64), a minimum or a maximum
	ops   []GroupOp // what each of accs holds: GroupSum, GroupMin or GroupMax
	outs  []outRef  // per aggregate column, its op and the accumulator it reads
	// ix, when set, makes this a probed part's (KeyIndex.Probe): no keys,
	// and per slot of ix a count and accumulators, matched or not.
	ix *KeyIndex
}

type outRef struct {
	op  GroupOp
	acc int // -1 for a count
}

// ListMask is the candidate list cand as a Mask: what GroupBy takes
// from a select that answered a list.
func ListMask(cand *BAT) *Mask { return &Mask{name: cand.Name, list: cand} }

// GroupBy groups the rows cand keeps — one fragment's candidates, a
// bitmap or a list — by the tails of keys and computes outs per group.
// It is defined as the whole-column plan over cand's list: group.newpos
// on the first key fetched at it, group.derive by each further one, the
// representative rows' keys, and the grouped aggregates of the fetched
// columns; it answers that bit for bit, groups numbered by first
// appearance and sums added in row order. When cand is a bitmap, every
// key is narrow codes whose spans multiply to a small table and every
// aggregate is a count, a sum or an average (direct), the sums are
// indexed by the code tuple and each column is read once at the kept
// rows; any other shape runs the definition. An aggregate over the same
// column twice (sum and avg) shares one accumulator.
func GroupBy(cand *Mask, keys []*BAT, outs []GroupOut) *Groups {
	if len(keys) == 0 {
		panic("bat: GroupBy without a key")
	}
	g, cols := newGroups(len(keys), outs)
	if !g.direct(cand, keys, cols) {
		g.definition(cand.asList(), keys, cols)
	}
	return g
}

// newGroups is an empty grouping by nkeys keys computing outs, and each
// of its accumulators' column.
func newGroups(nkeys int, outs []GroupOut) (g *Groups, cols []*BAT) {
	g = &Groups{keys: make([]*Column, nkeys), outs: make([]outRef, len(outs))}
	for i, o := range outs {
		ref := outRef{op: o.Op, acc: -1}
		if o.Op != GroupCount {
			op := o.Op
			if op == GroupAvg {
				op = GroupSum
			}
			for a := range g.ops {
				if g.ops[a] == op && cols[a] == o.Col {
					ref.acc = a
				}
			}
			if ref.acc < 0 {
				ref.acc = len(g.ops)
				g.ops, cols = append(g.ops, op), append(cols, o.Col)
			}
		}
		g.outs[i] = ref
	}
	g.accs = make([]*Column, len(g.ops))
	return g, cols
}

// definition is GroupBy by its definition, over the candidate list.
func (g *Groups) definition(list *BAT, keys, cols []*BAT) {
	fetched := make([]*BAT, len(keys))
	var groups, reps *BAT
	for k, key := range keys {
		fetched[k] = list.Join(key)
		if k == 0 {
			groups, reps = fetched[k].GroupIDsPos()
		} else {
			groups, reps = GroupDerive(groups, fetched[k])
		}
	}
	for k, f := range fetched {
		g.keys[k] = reps.Join(f).t.widened()
	}
	g.count = GroupedCount(groups).t.ints
	for a, col := range cols {
		f := list.Join(col)
		switch g.ops[a] {
		case GroupSum:
			g.accs[a] = GroupedSum(groups, f).t
		case GroupMin:
			g.accs[a] = groupedExtreme(groups, f, -1).t
		case GroupMax:
			g.accs[a] = groupedExtreme(groups, f, 1).t
		}
	}
}

// directSlots bounds the code-tuple table of GroupBy's direct path; it
// is also held to denseFill slots a kept row, so a small part zeroes a
// small table.
const directSlots = 1 << 12

// direct is GroupBy's one pass a column, false when the shape is not
// its own: cand a bitmap, every key narrow codes over the bitmap's
// rows, and every accumulator a sum over an int or float tail over
// them.
func (g *Groups) direct(cand *Mask, keys, cols []*BAT) bool {
	if cand.rej == nil {
		return false
	}
	sameRows := func(b *BAT) bool { return b.h.dense && b.h.base == cand.base && b.h.n == cand.n }
	table, spans := 1, make([]uint32, len(keys))
	for k, b := range keys {
		if !sameRows(b) || b.t.narrow == nil || b.t.narrow.top() >= directSlots {
			return false
		}
		spans[k] = b.t.narrow.top() + 1
		if table *= int(spans[k]); table > directSlots {
			return false
		}
	}
	for a, b := range cols {
		if !sameRows(b) || g.ops[a] != GroupSum || b.t.kind != KInt && b.t.kind != KFloat {
			return false
		}
	}
	if table > max(64, denseFill*cand.kept) {
		return false
	}
	// Every row gets its slot, and a rejected row the slot past the
	// table, whose count starts at one so that it never becomes a
	// group: each pass reads a column in row order, with no row list.
	sp := u32Pool.get(cand.n)
	defer u32Pool.put(sp)
	slots := *sp
	stride := uint32(1)
	for k, b := range keys {
		if !b.t.narrow.slotsOf(slots, stride, k == 0) {
			return false
		}
		stride *= spans[k]
	}
	dump := uint32(table)
	if cand.kept == 0 { // a missed range leaves rej partly written
		for i := range slots {
			slots[i] = dump
		}
	}
	for w, rej := range cand.rej {
		for ; rej != 0 && cand.kept > 0; rej &= rej - 1 {
			if i := w*64 + bits.TrailingZeros64(rej); i < cand.n {
				slots[i] = dump
			}
		}
	}

	counts := make([]int64, table+1)
	counts[dump] = 1
	var order []uint32 // the slots by first appearance: the groups
	for _, s := range slots {
		if counts[s] == 0 {
			order = append(order, s)
		}
		counts[s]++
	}
	g.count = gatherSlots(counts, order)
	stride = 1
	for k, b := range keys {
		g.keys[k] = keyValues(b.t, order, stride, spans[k])
		stride *= spans[k]
	}
	for a, b := range cols {
		g.accs[a] = sumSlots(b.t, slots, order, table+1)
	}
	return true
}

// gatherSlots is the value of each of order's slots, in order.
func gatherSlots[T any](v []T, order []uint32) []T {
	out := make([]T, len(order))
	for i, s := range order {
		out[i] = v[s]
	}
	return out
}

// keyValues is the key value of each group: the code a slot holds at
// stride, decoded as t's kind decodes its codes.
func keyValues(t *Column, order []uint32, stride, span uint32) *Column {
	ref := t.narrow.ref()
	code := func(s uint32) int64 { return int64(s / stride % span) }
	switch t.kind {
	case KFloat:
		v := make([]float64, len(order))
		for i, s := range order {
			v[i] = decode(ref+code(s), t.scale())
		}
		return FloatColumn(v)
	case KStr:
		v := make([]string, len(order))
		for i, s := range order {
			v[i] = t.dict[code(s)]
		}
		return StrColumn(v)
	}
	v := make([]int64, len(order))
	for i, s := range order {
		v[i] = ref + code(s)
	}
	return IntColumn(v)
}

// sumSlots is slotSums gathered at order's slots: the groups' sums.
func sumSlots(t *Column, slots, order []uint32, table int) *Column {
	ints, floats := slotSums(t, slots, table)
	if floats != nil {
		return FloatColumn(gatherSlots(floats, order))
	}
	return IntColumn(gatherSlots(ints, order))
}

// MergeGroups merges the parts' groupings, parts in fragment order, so
// the outcome does not depend on the order they ran in. Groups are
// matched by key value: each fragment was narrowed on its own, so the
// same key may be a different code in every part. A key first seen in
// a later part is numbered after every group of the earlier ones —
// first appearance over the whole column — and its accumulators start
// as that part's; the parts' sums add in fragment order, as a region's
// scalar sums do (MergeAdd), and an extreme is replaced only by a
// value strictly beyond it. One part is its own merge.
func MergeGroups(parts []*Groups) *Groups {
	if parts[0].ix != nil {
		return mergeSlots(parts)
	}
	if len(parts) == 1 {
		return parts[0]
	}
	first := parts[0]
	out := &Groups{ops: first.ops, outs: first.outs,
		keys: make([]*Column, len(first.keys)), accs: make([]*Column, len(first.accs))}
	for k, c := range first.keys {
		out.keys[k] = &Column{kind: c.kind}
	}
	for a, c := range first.accs {
		out.accs[a] = &Column{kind: c.kind}
	}
	idOf := map[string]int{}
	var key []byte
	for _, p := range parts {
		for i := range p.count {
			key = key[:0]
			for _, c := range p.keys {
				key = appendKey(key, c, i)
			}
			id, seen := idOf[string(key)]
			if !seen {
				idOf[string(key)] = len(out.count)
				out.count = append(out.count, p.count[i])
				for k, c := range p.keys {
					out.keys[k].appendAt(c, i)
				}
				for a, c := range p.accs {
					out.accs[a].appendAt(c, i)
				}
				continue
			}
			out.count[id] += p.count[i]
			for a, c := range p.accs {
				out.accs[a].fold(out.ops[a], id, c, i)
			}
		}
	}
	return out
}

// appendKey appends value i of the wide column c to key, so that equal
// values, and only they, append equal bytes: a float's zero is +0, as
// the hashed grouping's map compares it, and a string is prefixed by
// its length.
func appendKey(key []byte, c *Column, i int) []byte {
	switch c.kind {
	case KInt:
		return binary.LittleEndian.AppendUint64(key, uint64(c.ints[i]))
	case KFloat:
		f := c.floats[i]
		if f == 0 {
			f = 0
		}
		return binary.LittleEndian.AppendUint64(key, math.Float64bits(f))
	case KStr:
		key = binary.AppendUvarint(key, uint64(len(c.strs[i])))
		return append(key, c.strs[i]...)
	}
	panic(fmt.Sprintf("bat: group key of kind %s", c.kind)) // a table holds ints, floats and strings
}

// appendAt appends value i of the wide column src, of c's kind.
func (c *Column) appendAt(src *Column, i int) {
	switch c.kind {
	case KInt:
		c.ints = append(c.ints, src.ints[i])
	case KFloat:
		c.floats = append(c.floats, src.floats[i])
	case KStr:
		c.strs = append(c.strs, src.strs[i])
	default:
		panic(fmt.Sprintf("bat: group value of kind %s", c.kind))
	}
}

// fold combines value i of src into value g of c: a sum adds, an
// extreme is replaced by a value strictly beyond it.
func (c *Column) fold(op GroupOp, g int, src *Column, i int) {
	switch c.kind {
	case KInt:
		c.ints[g] = foldValue(op, c.ints[g], src.ints[i])
	case KFloat:
		c.floats[g] = foldValue(op, c.floats[g], src.floats[i])
	case KStr:
		c.strs[g] = foldValue(op, c.strs[g], src.strs[i])
	}
}

func foldValue[T int64 | float64 | string](op GroupOp, a, b T) T {
	switch {
	case op == GroupSum: // only int64 and float64 sums are made
		return a + b
	case op == GroupMin && b < a, op == GroupMax && b > a:
		return b
	}
	return a
}

// Columns reads the grouping out as the whole-column plan's values: a
// [group | key] column per key, in key order, then a [group | value]
// column per aggregate, in the order GroupBy was given them. Every head
// is dense from 0, the groups in first-appearance order.
func (g *Groups) Columns() []*BAT {
	n := len(g.count)
	out := make([]*BAT, 0, len(g.keys)+len(g.outs))
	head := DenseColumn(0, n)
	for _, k := range g.keys {
		out = append(out, New("", head, k))
	}
	for _, o := range g.outs {
		var t *Column
		switch o.op {
		case GroupCount:
			t = IntColumn(g.count)
		case GroupAvg:
			sums := g.accs[o.acc]
			avgs := make([]float64, n)
			for i, c := range g.count {
				if sums.kind == KInt {
					avgs[i] = float64(sums.ints[i]) / float64(c)
				} else {
					avgs[i] = sums.floats[i] / float64(c)
				}
			}
			t = FloatColumn(avgs)
		default:
			t = g.accs[o.acc]
		}
		out = append(out, New("", head, t))
	}
	return out
}
