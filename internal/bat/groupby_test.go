package bat

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// groupByDefinition is GroupBy's definition over cand's list: the
// whole-column plan's group.newpos, group.derive, representative-key
// joins and grouped aggregates, read out as Columns reads its groups.
func groupByDefinition(cand *Mask, keys []*BAT, outs []GroupOut) []*BAT {
	list := cand.asList()
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
	var out []*BAT
	for _, f := range fetched {
		out = append(out, reps.Join(f))
	}
	for _, o := range outs {
		switch o.Op {
		case GroupCount:
			out = append(out, GroupedCount(groups))
		case GroupSum:
			out = append(out, GroupedSum(groups, list.Join(o.Col)))
		case GroupAvg:
			out = append(out, GroupedAvg(groups, list.Join(o.Col)))
		case GroupMin:
			out = append(out, GroupedMin(groups, list.Join(o.Col)))
		case GroupMax:
			out = append(out, GroupedMax(groups, list.Join(o.Col)))
		}
	}
	return out
}

// cells is every value of cols, column by column, decoded.
func cells(cols []*BAT) [][]any {
	out := make([][]any, len(cols))
	for c, b := range cols {
		for i := 0; i < b.Len(); i++ {
			out[c] = append(out[c], b.t.Value(i))
		}
	}
	return out
}

// groupTable is a random table of n rows: keys of a few values (ints,
// decimals, strings, wide floats) and values of every kind GroupBy
// aggregates, narrowed when narrow is set, with head base.
func groupTable(rng *rand.Rand, n int, base Oid, narrow bool) (keys, vals []*BAT) {
	ki, kf, ks, kw := make([]int64, n), make([]float64, n), make([]string, n), make([]float64, n)
	ka := make([]int64, n)
	vi, vd, vw, vs := make([]int64, n), make([]float64, n), make([]float64, n), make([]string, n)
	words := []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}
	spread := 1 + rng.Intn(200)
	for i := 0; i < n; i++ {
		ki[i] = int64(rng.Intn(4)) + 7
		kf[i] = float64(rng.Intn(3)) / 4
		ks[i] = words[rng.Intn(len(words))]
		kw[i] = float64(rng.Intn(3)) / 3
		ka[i] = int64(rng.Intn(spread))
		vi[i] = int64(rng.Intn(1000)) - 300
		vd[i] = float64(rng.Intn(100000)) / 100
		vw[i] = float64(rng.Intn(1000)) / 7
		vs[i] = words[rng.Intn(len(words))]
	}
	mk := func(b *BAT) *BAT {
		b = New(b.Name, DenseColumn(base, n), b.t)
		if narrow {
			b = Narrow(b)
		}
		return b
	}
	keys = []*BAT{mk(MakeInts("ki", ki)), mk(MakeFloats("kf", kf)), mk(MakeStrs("ks", ks)), mk(MakeFloats("kw", kw)), mk(MakeInts("ka", ka))}
	vals = []*BAT{mk(MakeInts("vi", vi)), mk(MakeFloats("vd", vd)), mk(MakeFloats("vw", vw)), mk(MakeStrs("vs", vs))}
	return keys, vals
}

// drawGroupBy draws keys, aggregates and candidates over a group table.
// A direct draw keeps to the shapes GroupBy's direct path takes: keys
// that narrow, counts, sums and averages of numbers, and a bitmap.
func drawGroupBy(rng *rand.Rand, keys, vals []*BAT, direct bool) (cand *Mask, k []*BAT, outs []GroupOut) {
	perm := rng.Perm(len(keys))
	for _, i := range perm[:1+rng.Intn(3)] {
		if !direct || keys[i].Name != "kw" {
			k = append(k, keys[i])
		}
	}
	if len(k) == 0 {
		k = keys[:1]
	}
	ops := []GroupOp{GroupCount, GroupSum, GroupAvg, GroupMin, GroupMax}
	if direct {
		ops = ops[:3]
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		o := GroupOut{Op: ops[rng.Intn(len(ops))]}
		switch o.Op {
		case GroupCount:
		case GroupSum, GroupAvg:
			o.Col = vals[rng.Intn(3)] // the numbers
		default:
			o.Col = vals[rng.Intn(len(vals))]
		}
		outs = append(outs, o)
	}
	h := keys[0].h
	lo := int64(rng.Intn(400)) - 300
	terms := []Term{{B: vals[0], Lo: &Bound{Value: lo, Inclusive: true}, Hi: &Bound{Value: lo + int64(rng.Intn(1200)), Inclusive: false}}}
	switch c := rng.Intn(3); {
	case direct || c == 0:
		cand = SelectMask(terms, nil)
	case c == 1:
		cand = ListMask(SelectAll(terms))
	default:
		cand = ListMask(New("all", h, h)) // no WHERE: the column's own head
	}
	return cand, k, outs
}

// takesDirect reports whether GroupBy groups cand by keys on its
// direct path.
func takesDirect(cand *Mask, keys []*BAT, outs []GroupOut) bool {
	g, cols := newGroups(len(keys), outs)
	return g.direct(cand, keys, cols)
}

// TestGroupByMatchesDefinition holds GroupBy, direct path and
// definition alike, to the whole-column plan over the same rows, every
// float to the bit, on narrow and wide columns, bitmaps and lists.
func TestGroupByMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	direct := 0
	for c := 0; c < 400; c++ {
		n := rng.Intn(300)
		if c%20 == 0 {
			n = 0
		}
		keys, vals := groupTable(rng, n, Oid(rng.Intn(1000)), c%4 != 3)
		cand, k, outs := drawGroupBy(rng, keys, vals, c%4 < 2)
		g := GroupBy(cand, k, outs)
		if takesDirect(cand, k, outs) {
			direct++
		}
		got, want := cells(g.Columns()), cells(groupByDefinition(cand, k, outs))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: %d rows, keys %d, outs %+v:\n got %v\nwant %v", c, n, len(k), outs, got, want)
		}
	}
	t.Logf("%d of 400 cases took the direct path", direct)
	if direct < 90 {
		t.Fatalf("%d of 400 cases took the direct path, want ≥ 90", direct)
	}
}

// TestMergeGroupsMatchesWhole cuts a table into fragments at random
// rows, narrows each on its own — its own dictionaries and references —
// groups every part and merges them in fragment order: the outcome is
// the whole table's grouping, groups in first-appearance order, sums to
// 1e-9 relative (they add per part), everything else exactly.
func TestMergeGroupsMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for c := 0; c < 200; c++ {
		n := rng.Intn(400)
		keys, vals := groupTable(rng, n, 0, false)
		cand, k, outs := drawGroupBy(rng, keys, vals, c%2 == 0)
		want := cells(groupByDefinition(cand, k, outs))

		cuts := []int{0}
		for at := 0; at < n; {
			at = min(n, at+rng.Intn(n/3+2))
			cuts = append(cuts, at)
		}
		list := cand.asList()
		var parts []*Groups
		for f := 0; f+1 < len(cuts); f++ {
			from, to := cuts[f], cuts[f+1]
			part := func(b *BAT) *BAT { return Narrow(b.Slice(from, to)) }
			var pk []*BAT
			for _, b := range k {
				pk = append(pk, part(b))
			}
			po := make([]GroupOut, len(outs))
			for i, o := range outs {
				po[i] = o
				if o.Col != nil {
					po[i].Col = part(o.Col)
				}
			}
			// The part's candidates: the list's OIDs in [from, to).
			var oids []Oid
			for i := 0; i < list.Len(); i++ {
				if o := list.t.Oid(i); o >= Oid(from) && o < Oid(to) {
					oids = append(oids, o)
				}
			}
			parts = append(parts, GroupBy(ListMask(candList("c", oids)), pk, po))
		}
		if len(parts) == 0 {
			continue
		}
		got := cells(MergeGroups(parts).Columns())
		if !sameCells(got, want) {
			t.Fatalf("case %d cut at %v, outs %+v:\n got %v\nwant %v", c, cuts, outs, got, want)
		}
	}
}

// sameCells is reflect.DeepEqual but for floats, equal to 1e-9 relative.
func sameCells(got, want [][]any) bool {
	if len(got) != len(want) {
		return false
	}
	for c := range want {
		if len(got[c]) != len(want[c]) {
			return false
		}
		for i, w := range want[c] {
			wf, isFloat := w.(float64)
			gf, _ := got[c][i].(float64)
			if isFloat && math.Abs(wf-gf) <= 1e-9*math.Max(math.Abs(wf), math.Abs(gf)) {
				continue
			}
			if w != got[c][i] {
				return false
			}
		}
	}
	return true
}

// BenchmarkBATGroupByQ1 is the served Q1's part over a 3,000-row
// fragment as the ring stores it: two flag keys and three value columns
// in codes, the ship-date select as a bitmap, GroupBy's direct path.
func BenchmarkBATGroupByQ1(b *testing.B) {
	const n = 3000
	rng := rand.New(rand.NewSource(64))
	rf, ls := make([]string, n), make([]string, n)
	qty, price, disc, ship := make([]int64, n), make([]float64, n), make([]float64, n), make([]int64, n)
	for i := 0; i < n; i++ {
		rf[i], ls[i] = []string{"A", "N", "R"}[rng.Intn(3)], []string{"F", "O"}[rng.Intn(2)]
		qty[i] = int64(1 + rng.Intn(50))
		price[i] = float64(qty[i]*int64(90000+rng.Intn(10000))) / 100
		disc[i] = float64(rng.Intn(11)) / 100
		ship[i] = int64(19920102 + rng.Intn(61000)) // 2-byte codes, as TPC-H dates narrow
	}
	cols := []*BAT{MakeStrs("rf", rf), MakeStrs("ls", ls), MakeInts("qty", qty), MakeFloats("price", price), MakeFloats("disc", disc), MakeInts("ship", ship)}
	for i, c := range cols {
		cols[i] = Narrow(c)
	}
	terms := []Term{{B: cols[5], Hi: &Bound{Value: int64(19980902), Inclusive: true}}}
	outs := []GroupOut{{GroupSum, cols[2]}, {GroupSum, cols[3]}, {GroupAvg, cols[2]}, {GroupAvg, cols[4]}, {GroupCount, nil}}
	m := SelectMask(terms, nil)
	if g := GroupBy(m, cols[:2], outs); len(g.count) != 6 || !takesDirect(m, cols[:2], outs) {
		b.Fatalf("%d groups, want 6, on the direct path", len(g.count))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = GroupBy(m, cols[:2], outs)
	}
	b.SetBytes(int64(n * (1 + 1 + cols[2].Tail().Width() + cols[3].Tail().Width() + cols[4].Tail().Width())))
}
