package bat

import (
	"fmt"
	"math/rand"
	"testing"
)

// probeDefinition is the whole-column plan a probe replaces, over the
// build tail and the probe rows cand keeps: the pairs J :=
// build.Join(reverse(fetched keys)), grouped by the key at each pair
// (group.newpos), the representatives' keys, and per aggregate its
// grouped op over the probe column fetched at the pairs.
func probeDefinition(build *BAT, cand *BAT, key *BAT, outs []GroupOut) [][]any {
	pairs := build.Join(cand.Join(key).Reverse()).MarkH(0) // [pair | probe OID]
	k := pairs.Join(key)                                   // [pair | key]
	groups, reps := k.GroupIDsPos()
	cols := []*BAT{reps.Join(k)}
	for _, o := range outs {
		switch o.Op {
		case GroupCount:
			cols = append(cols, GroupedCount(groups))
		case GroupSum:
			cols = append(cols, GroupedSum(groups, pairs.Join(o.Col)))
		case GroupAvg:
			cols = append(cols, GroupedAvg(groups, pairs.Join(o.Col)))
		}
	}
	return cells(cols)
}

// TestKeyIndexProbeMatchesJoin holds KeyIndex.Probe, its parts merged
// by MergeGroups, to probeDefinition: int keys, negative ones too,
// through the slot array, spread past it through the map, and spread
// so that the first part's rows decide which; float and string keys,
// repeated build keys, no build row at all, candidates that keep every
// row, a list and a bitmap, and the probe table cut into parts each
// narrowed on its own. Values are quarters, so every sum is exact in
// any order and the cells must be equal.
func TestKeyIndexProbeMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	for c := 0; c < 300; c++ {
		n, nb := rng.Intn(500), rng.Intn(40)
		spread := int64(1)
		switch c % 5 {
		case 0:
			spread = 1 << 40 // past the slot array's span
		case 1:
			spread = 8 // an array after a long first part, the map after a short one
		}
		keyOf := func(i int64) any { return (i - 20) * spread }
		kind := c % 7
		switch kind {
		case 1:
			keyOf = func(i int64) any { return float64(i) / 4 }
		case 2:
			keyOf = func(i int64) any { return fmt.Sprintf("k%03d", i) }
		}
		domain := int64(1 + rng.Intn(60))
		column := func(name string, vals []any) *BAT {
			switch kind {
			case 1:
				f := make([]float64, len(vals))
				for i, v := range vals {
					f[i] = v.(float64)
				}
				return MakeFloats(name, f)
			case 2:
				s := make([]string, len(vals))
				for i, v := range vals {
					s[i] = v.(string)
				}
				return MakeStrs(name, s)
			}
			x := make([]int64, len(vals))
			for i, v := range vals {
				x[i] = v.(int64)
			}
			return MakeInts(name, x)
		}
		bk, pk := make([]any, nb), make([]any, n)
		for i := range bk {
			bk[i] = keyOf(rng.Int63n(domain))
		}
		for i := range pk {
			pk[i] = keyOf(rng.Int63n(domain + 5))
		}
		price, qty := make([]float64, n), make([]int64, n)
		for i := range price {
			price[i], qty[i] = float64(rng.Intn(4000))/4, int64(rng.Intn(50))-10
		}
		build := column("b", bk).MarkH(0)
		key, p, q := column("k", pk), MakeFloats("p", price), MakeInts("q", qty)
		outs := []GroupOut{{Op: GroupSum, Col: p}, {Op: GroupCount}, {Op: GroupAvg, Col: q}, {Op: GroupSum, Col: q}}

		// A third of the cases keep every row, a third a list, a third
		// a range on q as a bitmap.
		var cand *BAT
		lo, hi := &Bound{Value: int64(rng.Intn(20) - 10), Inclusive: true}, &Bound{Value: int64(rng.Intn(40)), Inclusive: true}
		switch c % 3 {
		case 0:
			cand = key.Mirror()
		default:
			cand = q.USelect(lo, hi)
		}
		want := probeDefinition(build, cand, key, outs)

		ix := NewKeyIndex(build)
		cuts := []int{0}
		for at := 0; at < n; {
			at = min(n, at+1+rng.Intn(n/3+2))
			cuts = append(cuts, at)
		}
		if n == 0 {
			cuts = append(cuts, 0)
		}
		var parts []*Groups
		for f := 0; f+1 < len(cuts); f++ {
			from, to := cuts[f], cuts[f+1]
			part := func(b *BAT) *BAT { return Narrow(b.Slice(from, to)) }
			pq := part(q)
			po := []GroupOut{{Op: GroupSum, Col: part(p)}, {Op: GroupCount}, {Op: GroupAvg, Col: pq}, {Op: GroupSum, Col: pq}}
			var m *Mask
			switch c % 3 {
			case 0:
				m = ListMask(pq.Mirror())
			case 1:
				m = ListMask(pq.USelect(lo, hi))
			default:
				m = SelectMask([]Term{{B: pq, Lo: lo, Hi: hi}}, nil)
			}
			parts = append(parts, ix.Probe(m, part(key), po))
		}
		got := cells(MergeGroups(parts).Columns())
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("case %d (%d build rows, %d probe rows, cut at %v):\n got %v\nwant %v", c, nb, n, cuts, got, want)
		}
	}
}
