package bat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// --- Join: every algorithm answers joinGeneric's pairs in its order ------

// joinCase is the key values of a join's probe and build sides, OIDs
// or ints, and whether each side is sorted.
type joinCase struct {
	oids                     bool
	probe, build             []int64
	probeSorted, buildSorted bool
}

// genJoinCase derives one case from a seed. The shape bits pick the key
// kind, sorted or unsorted sides, duplicate-heavy or sparse domains, a
// build span shifted past the probe's, an empty side, and which side is
// longer; ratio is the length ratio of the longer side to the shorter.
// Int values are drawn around a signed base and may carry one far
// outlier, so Narrow gives the two sides different references and
// widths, and the build codes' span is sometimes small enough for a
// dense chain array and sometimes not.
func genJoinCase(seed int64, shape uint8, ratio uint16) joinCase {
	rng := rand.New(rand.NewSource(seed))
	small := rng.Intn(40)
	large := min(small*(1+int(ratio)%200), 4000)
	np, nb := small, large
	if shape&16 != 0 {
		np, nb = large, small
	}
	if shape&32 != 0 && shape&64 != 0 {
		if shape&128 != 0 {
			np = 0
		} else {
			nb = 0
		}
	}
	domain := int64(1 + np + nb) // sparse: mostly unique, partial overlap
	if shape&8 != 0 {
		domain = 1 + int64(np+nb)/8 // dense in duplicates
	}
	c := joinCase{oids: shape&1 != 0, probeSorted: shape&4 != 0, buildSorted: shape&2 != 0}
	var base, shift int64
	if !c.oids {
		base = int64(rng.Intn(2001) - 1000)
	}
	if shape&32 != 0 && shape&64 == 0 {
		shift = domain/2 + int64(rng.Intn(3)) // partly or wholly past the probe's span
	}
	side := func(n int, from int64, sorted bool) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = from + rng.Int63n(domain)
		}
		if sorted {
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		}
		if n > 0 && !c.oids && rng.Intn(3) == 0 {
			// A far last value widens the side's codes and keeps it sorted.
			far := []int64{300, 70000, 1 << 40}[rng.Intn(3)]
			v[n-1] = max(v[n-1], from+domain+far)
		}
		return v
	}
	c.probe = side(np, base, c.probeSorted)
	c.build = side(nb, base+shift, c.buildSorted)
	return c
}

// bats returns the probe [dense | key] and the build [key | dense]: the
// join's pairs read as [probe row | build row].
func (c joinCase) bats(probeNarrow, buildNarrow, flagged bool) (p, r *BAT) {
	mk := func(v []int64, sorted, narrow bool) *BAT {
		var b *BAT
		if c.oids {
			o := make([]Oid, len(v))
			for i, x := range v {
				o[i] = Oid(x)
			}
			b = MakeOids("k", o)
		} else {
			b = MakeInts("k", append([]int64(nil), v...))
		}
		b.Tail().SetSorted(flagged && sorted)
		if narrow {
			b = Narrow(b)
		}
		return b
	}
	return mk(c.probe, c.probeSorted, probeNarrow), mk(c.build, c.buildSorted, buildNarrow).Reverse()
}

// checkJoinPaths holds Join to joinGeneric, pair for pair, on every path
// the case reaches: the chain table on the smaller side (sortedness not
// flagged), the sorted search and the gallop (flagged), each over wide
// and 1-, 2- or 4-byte narrow sides; and, for OID keys, the positional
// fetch into a dense build head over the build values' span.
func checkJoinPaths(t *testing.T, c joinCase) {
	t.Helper()
	widths := []bool{false}
	if !c.oids {
		widths = []bool{false, true}
	}
	for _, flagged := range []bool{false, true} {
		for _, pn := range widths {
			for _, bn := range widths {
				p, r := c.bats(pn, bn, flagged)
				got := p.Join(r)
				sameBAT(t, joinPath(p, r), got, p.joinGeneric(r))
				if got.Head().Sorted() != p.Head().Sorted() {
					t.Fatalf("%s: head sorted %v, probe head %v", joinPath(p, r), got.Head().Sorted(), p.Head().Sorted())
				}
			}
		}
	}
	if c.oids && len(c.build) > 0 {
		p, _ := c.bats(false, false, true)
		lo := Oid(c.build[0])
		for _, v := range c.build {
			lo = min(lo, Oid(v))
		}
		r := New("r", DenseColumn(lo, len(c.build)), IntColumn(make([]int64, len(c.build))))
		sameBAT(t, "dense fetch", p.Join(r), p.joinGeneric(r))
	}
}

// joinPath describes a join's operands, for messages.
func joinPath(p, r *BAT) string {
	return fmt.Sprintf("%s %dx%d bytes, |p|=%d |r|=%d, sorted %v/%v", p.Tail().Kind(),
		p.Tail().Width(), r.Head().Width(), p.Len(), r.Len(), p.Tail().Sorted(), r.Head().Sorted())
}

// TestJoinPathsAgree is the seeded grid: every shape bit pattern, at ratios
// from 1:1 past the sorted/hash length rule to 1:200.
func TestJoinPathsAgree(t *testing.T) {
	ratios := []uint16{0, 1, 7, 8, 63, 199}
	for seed := int64(0); seed < 6; seed++ {
		for shape := 0; shape < 256; shape++ {
			checkJoinPaths(t, genJoinCase(seed, uint8(shape), ratios[(int(seed)+shape)%len(ratios)]))
		}
	}
}

func FuzzJoinPaths(f *testing.F) {
	for _, s := range []struct {
		seed  int64
		shape uint8
		ratio uint16
	}{{1, 0, 0}, {2, 1, 150}, {3, 6, 8}, {4, 7, 9}, {5, 24, 63}, {6, 19, 1}, {7, 96, 7}, {8, 226, 50}, {9, 46, 3}} {
		f.Add(s.seed, s.shape, s.ratio)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, ratio uint16) {
		checkJoinPaths(t, genJoinCase(seed, shape, ratio))
	})
}

// TestJoinIntWindowEdges: probe values that lie outside the build's
// code range by more than the code width — at the int64 extremes, where
// value − ref overflows — find nothing, and values at the window's
// edges are found.
func TestJoinIntWindowEdges(t *testing.T) {
	build := []int64{math.MaxInt64 - 300, math.MaxInt64 - 5, math.MaxInt64}
	probe := []int64{math.MinInt64, -1, 0, math.MaxInt64 - 300, math.MaxInt64, math.MaxInt64 - 301, math.MinInt64 + 44}
	for _, sorted := range []bool{false, true} {
		r := MakeInts("r", append([]int64(nil), build...))
		r.Tail().SetSorted(sorted)
		for _, rb := range []*BAT{r, Narrow(r)} {
			for _, pb := range []*BAT{MakeInts("p", probe), Narrow(MakeInts("p", probe))} {
				sameBAT(t, "int window", pb.Join(rb.Reverse()), pb.joinGeneric(rb.Reverse()))
				sameBAT(t, "int window reversed", rb.Join(pb.Reverse()), rb.joinGeneric(pb.Reverse()))
			}
		}
	}
}

// --- Grouping: ids and representatives as a (group, value) map gives them --

// groupOracle numbers the distinct (old group, value) pairs of a column
// by first appearance, the definition GroupIDsPos (gids nil) and
// GroupDerive implement. Values are compared as Go compares them, so
// every NaN is its own group and −0.0 joins 0.0.
func groupOracle(gids []Oid, c *Column) (ids []Oid, reps []int32) {
	type gv struct {
		g Oid
		v any
	}
	idOf := map[gv]Oid{}
	for i := 0; i < c.Len(); i++ {
		k := gv{v: c.Value(i)}
		if gids != nil {
			k.g = gids[i]
		}
		id, seen := idOf[k]
		if !seen {
			id = Oid(len(reps))
			idOf[k] = id
			reps = append(reps, int32(i))
		}
		ids = append(ids, id)
	}
	return ids, reps
}

// checkGroups holds GroupIDsPos of keys, and GroupDerive of groups by
// keys, to the oracle; the head is a sparse ascending OID list, so a
// representative must be read through it.
func checkGroups(t *testing.T, what string, groups []Oid, keys *Column) {
	t.Helper()
	n := keys.Len()
	head := make([]Oid, n)
	for i := range head {
		head[i] = Oid(100 + 3*i)
	}
	kb := New("k", OidColumn(head), keys)
	want := func(op string, g, reps *BAT, ids []Oid, repIdx []int32) {
		t.Helper()
		if g.Len() != n || reps.Len() != len(repIdx) {
			t.Fatalf("%s %s: %d rows, %d groups; want %d, %d", what, op, g.Len(), reps.Len(), n, len(repIdx))
		}
		for i, id := range ids {
			if g.Tail().Oid(i) != id || g.Head().Oid(i) != head[i] {
				t.Fatalf("%s %s: row %d in group %d (head %d), want %d (head %d)",
					what, op, i, g.Tail().Oid(i), g.Head().Oid(i), id, head[i])
			}
		}
		for k, r := range repIdx {
			if reps.Head().Oid(k) != Oid(k) || reps.Tail().Oid(k) != head[r] {
				t.Fatalf("%s %s: group %d represented by %d, want %d", what, op, k, reps.Tail().Oid(k), head[r])
			}
		}
	}
	g, reps := kb.GroupIDsPos()
	ids, repIdx := groupOracle(nil, keys)
	want("GroupIDsPos", g, reps, ids, repIdx)
	ids, repIdx = groupOracle(groups, keys)
	g, reps = GroupDerive(New("g", OidColumn(head), OidColumn(groups)), kb)
	want("GroupDerive", g, reps, ids, repIdx)
}

// oldGroups draws n old group ids: few, or one per row.
func oldGroups(rng *rand.Rand, n int, perRow bool) []Oid {
	g := make([]Oid, n)
	for i := range g {
		if perRow {
			g[i] = Oid(i)
		} else {
			g[i] = Oid(rng.Intn(4))
		}
	}
	return g
}

func TestGroupIDsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(300)
		domain := 1 + rng.Intn(40)
		ints := make([]int64, n)
		floats := make([]float64, n)
		decimals := make([]float64, n)
		strs := make([]string, n)
		bools := make([]bool, n)
		oids := make([]Oid, n)
		for i := range ints {
			x := rng.Intn(domain)
			ints[i] = int64(x)*[]int64{1, 300, 70000}[trial%3] - 500
			floats[i] = []float64{math.NaN(), math.Copysign(0, -1), 0, 1.5, float64(x)}[rng.Intn(5)]
			decimals[i] = float64(x) / 100
			strs[i] = []string{"A", "N", "R", "F", "O", ""}[x%6]
			bools[i] = x%2 == 0
			oids[i] = Oid(x)
		}
		sortedInts := append([]int64(nil), ints...)
		sort.Slice(sortedInts, func(i, j int) bool { return sortedInts[i] < sortedInts[j] })
		sortedOids := append([]Oid(nil), oids...)
		sort.Slice(sortedOids, func(i, j int) bool { return sortedOids[i] < sortedOids[j] })
		sortedStrs := append([]string(nil), strs...)
		sort.Strings(sortedStrs)
		sortedFloats := append([]float64(nil), floats...)
		sort.Float64s(sortedFloats) // NaNs first, then −0.0 and 0.0 in either order
		cols := map[string]*Column{
			"oid":           OidColumn(oids),
			"sorted oid":    OidColumn(sortedOids),
			"dense oid":     DenseColumn(5, n),
			"int":           IntColumn(ints),
			"narrow int":    Narrow(MakeInts("k", ints)).Tail(),
			"sorted int":    IntColumn(sortedInts),
			"sorted narrow": Narrow(MakeInts("k", sortedInts)).Tail(),
			"float":         FloatColumn(floats),
			"sorted float":  FloatColumn(sortedFloats),
			"decimal":       Narrow(MakeFloats("k", decimals)).Tail(),
			"str":           StrColumn(strs),
			"dict str":      Narrow(MakeStrs("k", strs)).Tail(),
			"sorted dict":   Narrow(MakeStrs("k", sortedStrs)).Tail(),
			"bool":          BoolColumn(bools),
		}
		for _, k := range []string{"sorted oid", "sorted int", "sorted narrow", "sorted float", "sorted dict"} {
			cols[k].SetSorted(true)
		}
		for what, c := range cols {
			checkGroups(t, what, oldGroups(rng, n, false), c)
			checkGroups(t, what+" per-row groups", oldGroups(rng, n, true), c)
		}
	}
}

// TestGroupDeriveMapFallback: one old group per row and distinct keys
// make ng·nk = n², past the combination array's fill, so the ids come
// from the map; they are the oracle's all the same. So are the ids of
// narrow keys decoded from an int message whose codes pass its bound,
// which the slot array cannot index: they come from the map too.
func TestGroupDeriveMapFallback(t *testing.T) {
	const n = 50
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(n - i)
	}
	if uint64(n)*uint64(n) <= denseFill*n {
		t.Fatalf("%d×%d combinations fit the array; the case does not reach the map", n, n)
	}
	checkGroups(t, "map fallback", oldGroups(nil, n, true), IntColumn(keys))
	// Half the keys repeat: still past the fill, with shared groups.
	for i := range keys {
		keys[i] = int64(i % (n / 2))
	}
	g := make([]Oid, n)
	for i := range g {
		g[i] = Oid(i % (n / 2))
	}
	checkGroups(t, "map fallback, repeats", g, IntColumn(keys))

	b := Narrow(MakeInts("k", []int64{40, 47, 41, 47, 40, 45, 41}))
	data := AppendMarshal(nil, b)
	data[wireHdrSize+pad8(len(b.Name))+colHdrSize+4] = 2 // the tail's top: codes 5 and 7 pass it
	past, err := UnmarshalView(data)
	if err != nil {
		t.Fatal(err)
	}
	if top := past.Tail().narrow.top(); top != 2 || uint64(top) >= denseFill*uint64(past.Len()) {
		t.Fatalf("decoded bound %d; the case does not reach the slot array", top)
	}
	checkGroups(t, "codes past the bound", oldGroups(nil, past.Len(), true), past.Tail())
}
