package bat

import (
	"fmt"
	"slices"
	"sync"
)

// Grouped aggregation below a key join, where the probe rows are: the
// eager aggregation of Yan & Larson (VLDB 1995). A join whose result is
// grouped by the join key and aggregated over the probe side alone
// needs no join result: its build side becomes a KeyIndex, indexed
// once; each part of the probe table looks its keys up and aggregates
// each row into the slot of the build key it matches (KeyIndex.Probe);
// the parts add up slot by slot in fragment order (MergeGroups), and
// the matched slots come out as the whole-column plan numbers its
// groups.

// KeyIndex maps each distinct key of a join's build side to a slot,
// slots numbered by the key's first build row, and counts the build
// rows holding it. The first probe indexes the build side, and every
// later one waits for it and reads the same lookup.
type KeyIndex struct {
	build *Column // the build side's keys, by build row
	once  sync.Once
	keys  *Column // per slot, its key: a wide column of the build's kind
	mult  []int64 // per slot, its build rows
	// The lookup. Int keys through a slot array: 1 + the slot of key k
	// is dense[k − lo], 0 for none, and past the keys' span dense holds
	// one more 0; any other keys, and int keys spread too far for the
	// array, through a map by value.
	lo     int64
	dense  []uint32
	ints   map[int64]uint32
	floats map[float64]uint32
	strs   map[string]uint32
	unique bool // every slot one build row
}

// NewKeyIndex takes the tail of build, the join's build side, for the
// index: its rows' order is the order the whole-column join meets them
// in.
func NewKeyIndex(build *BAT) *KeyIndex {
	if k := build.t.kind; k != KInt && k != KFloat && k != KStr {
		panic(fmt.Sprintf("bat: key index over %s keys", k))
	}
	return &KeyIndex{build: build.t}
}

// index builds the lookup for a first probe of rows rows. Int keys take
// the slot array while it has at most denseFill slots a row the join
// reads, the build's rows and the probe's, as the join kernels' tables
// do (newHeads): a region's parts are fragments of one length but the
// last, so the first part's rows stand for each part's.
func (ix *KeyIndex) index(rows int) {
	t := ix.build
	switch t.kind {
	case KInt:
		vals := t.int64s()
		var first []int32 // each slot's first build row
		if len(vals) == 0 {
			ix.dense = []uint32{0}
		} else if lo, hi := slices.Min(vals), slices.Max(vals); uint64(hi-lo) < denseFill*uint64(len(vals)+rows) {
			ix.lo, ix.dense = lo, make([]uint32, uint64(hi-lo)+2)
			first, ix.mult = make([]int32, 0, len(vals)), make([]int64, 0, len(vals))
			for i, v := range vals {
				s := &ix.dense[v-lo]
				if *s == 0 {
					first, ix.mult = append(first, int32(i)), append(ix.mult, 0)
					*s = uint32(len(first))
				}
				ix.mult[*s-1]++
			}
		} else {
			ix.ints, first, ix.mult = slotMap(vals)
		}
		ix.keys = IntColumn(gather(vals, first, 0))
	case KFloat:
		vals := t.float64s()
		var first []int32
		ix.floats, first, ix.mult = slotMap(vals)
		ix.keys = FloatColumn(gather(vals, first, 0))
	case KStr:
		vals := t.strings()
		var first []int32
		ix.strs, first, ix.mult = slotMap(vals)
		ix.keys = StrColumn(gather(vals, first, 0))
	}
	ix.unique = ix.Slots() == t.Len()
}

// slotMap numbers the distinct values of vals by first appearance: the
// map from value to slot, each slot's first row and its rows.
func slotMap[K comparable](vals []K) (m map[K]uint32, first []int32, mult []int64) {
	m = make(map[K]uint32, len(vals))
	for i, v := range vals {
		s, ok := m[v]
		if !ok {
			s = uint32(len(first))
			m[v] = s
			first, mult = append(first, int32(i)), append(mult, 0)
		}
		mult[s]++
	}
	return m, first, mult
}

// Slots is the number of distinct build keys.
func (ix *KeyIndex) Slots() int { return len(ix.mult) }

// Probe aggregates one part of the probe table: the rows cand keeps —
// a bitmap or a list over key's rows — joined on key's tail with the
// build rows, per build key their pairs' count and each of outs — a
// count, a sum or an average — over the part's columns. A row is
// counted and added once per build row it matches, as the join's pairs
// would be. The outcome is partial, a slot per build key whether
// matched or not; MergeGroups makes it the groups. The keys must be of
// the build's kind, as algebra.join's. Only the matched rows' values
// are read.
func (ix *KeyIndex) Probe(cand *Mask, key *BAT, outs []GroupOut) *Groups {
	if key.t.kind != ix.build.kind {
		panic(fmt.Sprintf("bat: join type mismatch %s != %s", key.t.kind, ix.build.kind))
	}
	g, cols := newGroups(1, outs)
	g.ix = ix
	if !cand.keepsAll(key) {
		list := cand.asList()
		key = list.Join(key)
		for a, c := range cols {
			cols[a] = list.Join(c)
		}
	}
	n := key.Len()
	ix.once.Do(func() { ix.index(n) })
	rp, sp := idxPool.get(n), u32Pool.get(n)
	defer idxPool.put(rp)
	defer u32Pool.put(sp)
	m := ix.match(key.t, *rp, *sp)
	rows, slots := (*rp)[:m], (*sp)[:m]

	g.count = make([]int64, ix.Slots())
	for _, s := range slots {
		g.count[s] += ix.mult[s]
	}
	for a, c := range cols {
		if g.ops[a] != GroupSum {
			panic("bat: probe of a grouped extreme")
		}
		t := c.t
		if m < n {
			t = t.take32(rows) // the matched rows' values, in row order
		}
		if !ix.unique {
			g.accs[a] = ix.repeatedSums(t, slots)
		} else if ints, floats := slotSums(t, slots, ix.Slots()); floats != nil {
			g.accs[a] = FloatColumn(floats)
		} else {
			g.accs[a] = IntColumn(ints)
		}
	}
	return g
}

// keepsAll reports whether the mask keeps every row of b, whose head it
// must then be: a list that is b's dense head itself, as bat.mirror of
// a fragment's column makes it.
func (m *Mask) keepsAll(b *BAT) bool {
	if m.rej != nil || !b.h.dense {
		return false
	}
	t := m.list.t
	return t.dense && t.base == b.h.base && t.n == b.h.n
}

// match writes the rows of the probe column t whose key some build row
// holds, ascending, to rows and their slots to slots, and returns how
// many. Both hold t.Len() entries.
func (ix *KeyIndex) match(t *Column, rows []int32, slots []uint32) int {
	if ix.dense != nil {
		switch v := t.narrow.(type) {
		case nil:
			return denseMatch(t.ints, -ix.lo, ix.dense, rows, slots)
		case narrowInts[uint8]:
			return denseMatch(v.v, v.base-ix.lo, ix.dense, rows, slots)
		case narrowInts[uint16]:
			return denseMatch(v.v, v.base-ix.lo, ix.dense, rows, slots)
		case narrowInts[uint32]:
			return denseMatch(v.v, v.base-ix.lo, ix.dense, rows, slots)
		}
	}
	switch {
	case ix.ints != nil:
		return mapMatch(t.int64s(), ix.ints, rows, slots)
	case ix.floats != nil:
		return mapMatch(t.float64s(), ix.floats, rows, slots)
	}
	return mapMatch(t.strings(), ix.strs, rows, slots)
}

// denseMatch is match through the slot array dense, each value v + off
// looked up, a value past the keys' span at dense's last entry, 0: v
// is a code, off its reference less the index's least key. Only a
// match is stored: most probe rows of a selective build miss, and the
// branch predicts them (~30 % faster than storing every row at 9 %
// matched).
func denseMatch[V code | int64](vals []V, off int64, dense []uint32, rows []int32, slots []uint32) int {
	last := uint64(len(dense) - 1)
	n := 0
	for i, v := range vals {
		if s := dense[min(uint64(int64(v)+off), last)]; s != 0 {
			rows[n], slots[n] = int32(i), s-1
			n++
		}
	}
	return n
}

func mapMatch[K comparable](vals []K, m map[K]uint32, rows []int32, slots []uint32) int {
	n := 0
	for i, v := range vals {
		if s, ok := m[v]; ok {
			rows[n], slots[n] = int32(i), s
			n++
		}
	}
	return n
}

// slotSums adds t's value at each row into its slot's sum, in row
// order, as GroupedSum adds them: an int64 or a float64 sum, whichever
// t's kind makes (the other is nil), per slot of table.
func slotSums(t *Column, slots []uint32, table int) (ints []int64, floats []float64) {
	switch t.kind {
	case KInt:
		ints = make([]int64, table)
		if t.narrow != nil {
			t.narrow.sumInto(slots, ints)
		} else {
			for i, v := range t.ints {
				ints[slots[i]] += v
			}
		}
		return ints, nil
	case KFloat:
		floats = make([]float64, table)
		if t.narrow != nil {
			t.narrow.sumDecimalInto(slots, floats, t.scale())
		} else {
			for i, v := range t.floats {
				floats[slots[i]] += v
			}
		}
		return nil, floats
	}
	panic(fmt.Sprintf("bat: GroupedSum over %s", t.kind))
}

// repeatedSums is slotSums over an index with repeated keys: each value
// of t, whose rows matched slots, added once per build row holding its
// key.
func (ix *KeyIndex) repeatedSums(t *Column, slots []uint32) *Column {
	switch t.kind {
	case KInt:
		sums := make([]int64, ix.Slots())
		for i, s := range slots {
			sums[s] += t.Int(i) * ix.mult[s] // modulo 2^64, as adding it mult times
		}
		return IntColumn(sums)
	case KFloat:
		sums := make([]float64, ix.Slots())
		for i, s := range slots {
			v := t.Float(i)
			for k := ix.mult[s]; k > 0; k-- {
				sums[s] += v
			}
		}
		return FloatColumn(sums)
	}
	panic(fmt.Sprintf("bat: GroupedSum over %s", t.kind))
}

// mergeSlots is MergeGroups over probed parts, parts in fragment order:
// per slot the counts and sums add up. The slots some row matched are
// the groups, in slot order: the order of their keys' first build
// rows, which is the order the whole-column join's pairs first meet
// them in.
func mergeSlots(parts []*Groups) *Groups {
	first := parts[0]
	ix := first.ix
	count := addParts(parts, func(p *Groups) []int64 { return p.count })
	order := make([]int32, 0, len(count)) // the matched slots
	for s, c := range count {
		if c > 0 {
			order = append(order, int32(s))
		}
	}
	out := &Groups{ops: first.ops, outs: first.outs, keys: []*Column{ix.keys.take32(order)},
		count: gather(count, order, 0), accs: make([]*Column, len(first.accs))}
	for a, acc := range first.accs {
		if acc.kind == KInt {
			out.accs[a] = IntColumn(gather(addParts(parts, func(p *Groups) []int64 { return p.accs[a].ints }), order, 0))
		} else {
			out.accs[a] = FloatColumn(gather(addParts(parts, func(p *Groups) []float64 { return p.accs[a].floats }), order, 0))
		}
	}
	return out
}

// addParts adds the parts' per-slot values, slot by slot, in fragment
// order: one part's are its own.
func addParts[T int64 | float64](parts []*Groups, vals func(*Groups) []T) []T {
	sums := vals(parts[0])
	if len(parts) > 1 {
		sums = slices.Clone(sums)
		for _, p := range parts[1:] {
			for s, v := range vals(p) {
				sums[s] += v
			}
		}
	}
	return sums
}
