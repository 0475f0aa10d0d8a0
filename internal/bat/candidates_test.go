package bat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// --- Semijoin: every intersection path agrees -----------------------------

// memberOracle is the definition headFilterIdx implements, written the
// slow obvious way: the positions of a whose value is among r's values.
func memberOracle(a, r []Oid) []int32 {
	in := make(map[Oid]bool, len(r))
	for _, v := range r {
		in[v] = true
	}
	idx := []int32{}
	for i, v := range a {
		if in[v] {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

func oidsSorted(v []Oid) bool {
	return sort.SliceIsSorted(v, func(i, j int) bool { return v[i] < v[j] })
}

// oidBAT builds [oids | position-derived ints], so a wrong tail gather
// shows up as well as a wrong head. flagged marks the head sorted.
func oidBAT(v []Oid, flagged bool) *BAT {
	tail := make([]int64, len(v))
	for i := range tail {
		tail[i] = int64(i) * 3
	}
	b := New("b", OidColumn(append([]Oid{}, v...)), IntColumn(tail))
	b.Head().SetSorted(flagged)
	return b
}

func wantRows(b *BAT, idx []int32) *BAT {
	pos := make([]int, len(idx))
	for i, p := range idx {
		pos[i] = int(p)
	}
	return New("want", b.Head().take(pos), b.Tail().take(pos))
}

// checkSemijoinPaths holds every way Semijoin can intersect the head
// lists a and r to the oracle: the hash path (unflagged heads), and
// — when the lists are sorted — the public operators on flagged heads,
// the merge, gallop and ratio-picking kernels called directly, and the
// dense-r and dense-b forms.
func checkSemijoinPaths(t *testing.T, a, r []Oid) {
	t.Helper()
	sameIdx := func(path string, got, want []int32) {
		t.Helper()
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: positions differ (|a|=%d |r|=%d): got %d, want %d\na=%v\nr=%v",
				path, len(a), len(r), len(got), len(want), head(a), head(r))
		}
	}
	want := memberOracle(a, r)
	b, rb := oidBAT(a, false), oidBAT(r, false)
	sameBAT(t, "hash", b.Semijoin(rb), wantRows(b, want))
	if !oidsSorted(a) || !oidsSorted(r) {
		return
	}
	fb, frb := oidBAT(a, true), oidBAT(r, true)
	got := fb.Semijoin(frb)
	sameBAT(t, "sorted", got, wantRows(b, want))
	if !got.Head().Sorted() {
		t.Fatal("sorted inputs lost the sorted head")
	}
	sameBAT(t, "sorted-mirrored", fb.Mirror().Semijoin(frb.Mirror()), wantRows(b, want).Mirror())
	sameIdx("merge", *mergeMemberIdx(a, r), want)
	sameIdx("gallop-probe", *gallopProbeIdx(a, r), want)
	picked, _ := sortedMemberIdx(a, r)
	sameIdx("picked", picked, want)
	sameIdx("gallop-runs", gallopRunsIdx(a, r), want)
	// Dense r: the range spanned by r's first value and length.
	if len(r) > 0 {
		base, n := r[0], len(r)
		dense := make([]Oid, n)
		for i := range dense {
			dense[i] = base + Oid(i)
		}
		dr := New("r", DenseColumn(base, n), IntColumn(make([]int64, n)))
		for _, flagged := range []bool{true, false} {
			b := oidBAT(a, flagged)
			sameBAT(t, "semijoin dense r", b.Semijoin(dr), wantRows(b, memberOracle(a, dense)))
		}
	}
	// Dense b: the range spanned by a's first value and length.
	if len(a) > 0 {
		base, n := a[0], len(a)
		dense := make([]Oid, n)
		for i := range dense {
			dense[i] = base + Oid(i)
		}
		db := New("b", DenseColumn(base, n), oidBAT(dense, false).Tail())
		for _, flagged := range []bool{true, false} {
			rb := oidBAT(r, flagged)
			sameBAT(t, "semijoin dense b", db.Semijoin(rb), wantRows(db, memberOracle(dense, r)))
		}
	}
}

func head(v []Oid) []Oid {
	if len(v) > 24 {
		return v[:24]
	}
	return v
}

// genOids draws n OIDs from [base, base+domain): sorted or not, with
// duplicates whenever domain < n.
func genOids(rng *rand.Rand, n int, base, domain Oid, sorted bool) []Oid {
	v := make([]Oid, n)
	for i := range v {
		v[i] = base + Oid(rng.Int63n(int64(domain)))
	}
	if sorted {
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	}
	return v
}

// semijoinCase derives one input pair from a seed: the shape bits pick
// sorted/unsorted, duplicate-heavy or sparse domains, an empty side or
// disjoint value spans; ratio is |r| : |a| (or its inverse).
func semijoinCase(seed int64, shape uint8, ratio uint16) (a, r []Oid) {
	rng := rand.New(rand.NewSource(seed))
	small := rng.Intn(40)
	large := small * (1 + int(ratio)%1000)
	if large > 40000 {
		large = 40000
	}
	na, nr := small, large
	if shape&1 != 0 {
		na, nr = large, small
	}
	sorted := shape&2 == 0
	domain := Oid(1 + na + nr) // sparse: mostly unique, partial overlap
	if shape&4 != 0 {
		domain = Oid(1 + (na+nr)/8) // dense in duplicates
	}
	baseR := Oid(0)
	if shape&8 != 0 {
		baseR = domain + Oid(rng.Intn(3)) // disjoint, sometimes touching spans
	}
	if shape&16 != 0 && shape&32 != 0 {
		nr = 0
	}
	return genOids(rng, na, 0, domain, sorted), genOids(rng, nr, baseR, domain, sorted)
}

func TestSemijoinPathsAgree(t *testing.T) {
	ratios := []uint16{0, 1, 7, 8, 9, 63, 999} // 1:1, 1:2, around the gallop threshold, 1:64, 1:1000
	cases := 0
	for seed := int64(0); cases < 2400; seed++ {
		for shape := uint8(0); shape < 64; shape += 3 {
			a, r := semijoinCase(seed, shape, ratios[int(seed+int64(shape))%len(ratios)])
			checkSemijoinPaths(t, a, r)
			cases++
		}
	}
	// Both sides empty, and the threshold itself.
	checkSemijoinPaths(t, nil, nil)
	checkSemijoinPaths(t, []Oid{5}, []Oid{1, 2, 3, 4, 5, 6, 7, 8, 9})
	checkSemijoinPaths(t, []Oid{1, 2, 3, 4, 5, 6, 7, 8, 9}, []Oid{5})
}

func FuzzSemijoinPaths(f *testing.F) {
	for _, s := range []struct {
		seed  int64
		shape uint8
		ratio uint16
	}{{1, 0, 0}, {2, 1, 999}, {3, 4, 8}, {4, 5, 9}, {5, 8, 63}, {6, 2, 1}, {7, 48, 7}, {8, 13, 500}} {
		f.Add(s.seed, s.shape, s.ratio)
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, ratio uint16) {
		a, r := semijoinCase(seed, shape, ratio)
		checkSemijoinPaths(t, a, r)
	})
}

func TestGallopTo(t *testing.T) {
	r := []Oid{1, 3, 3, 3, 7, 9, 9, 20}
	for j := 0; j <= len(r); j++ {
		for v := Oid(0); v < 22; v++ {
			want := j
			for want < len(r) && r[want] < v {
				want++
			}
			if got := gallopTo(r, j, v); got != want {
				t.Fatalf("gallopTo(j=%d, v=%d) = %d, want %d", j, v, got, want)
			}
		}
	}
}

// A mirrored BAT (head and tail one column — every candidate list) is
// gathered once and stays mirrored.
func TestTakeRowsMirroredSharesColumn(t *testing.T) {
	oids := make([]Oid, 4096)
	for i := range oids {
		oids[i] = Oid(2 * i)
	}
	b := MakeOids("c", oids).Reverse().Mirror() // [oid|oid], one materialized column
	idx := make([]int32, 1024)
	for i := range idx {
		idx[i] = int32(3 * i)
	}
	got := b.takeRows(idx)
	if got.Head() != got.Tail() {
		t.Fatal("takeRows of a mirrored BAT returned two columns")
	}
	if got.Len() != len(idx) || got.Head().Oid(5) != 30 {
		t.Fatalf("wrong rows: %s", got.Dump(8))
	}
	// One payload slice plus the Column and BAT descriptors.
	if allocs := testing.AllocsPerRun(50, func() { b.takeRows(idx) }); allocs > 3 {
		t.Errorf("takeRows(mirrored) allocated %v objects; want 1 payload + 2 descriptors", allocs)
	}
	payload := testing.AllocsPerRun(50, func() { b.Head().take32(idx) }) - 1 // minus the Column
	if payload > 1 {
		t.Errorf("gathering one column took %v payload allocations", payload)
	}
	// The public paths that go through it.
	r := MakeOids("r", []Oid{0, 6, 7, 8190}).Reverse().Mirror()
	for name, out := range map[string]*BAT{"semijoin": b.Semijoin(r), "selectNe": b.SelectNe(Oid(6))} {
		if out.Head() != out.Tail() {
			t.Errorf("%s of a mirrored BAT returned two columns", name)
		}
	}
}

func TestConcatMirroredSharesColumn(t *testing.T) {
	col := MakeInts("x", []int64{5, 1, 9, 3, 7, 2})
	lo := &Bound{Value: int64(2), Inclusive: true}
	frags := []*BAT{col.Slice(0, 3).USelect(lo, nil), col.Slice(3, 6).USelect(lo, nil)}
	got := Concat(frags)
	if got.Head() != got.Tail() {
		t.Fatal("Concat of candidate-list fragments returned two columns")
	}
	if !got.Head().Sorted() {
		t.Error("candidate lists of consecutive fragments concatenate sorted")
	}
	sameBAT(t, "concat", got, col.USelect(lo, nil))
}

// --- USelect ≡ Select(...).Mirror() ---------------------------------------

// uselectHeads are the head shapes a select can meet: dense, a
// materialized sorted OID list, an unsorted one, and a non-OID head.
func uselectHeads(rng *rand.Rand, n int) []*Column {
	asc := make([]Oid, n)
	for i := range asc {
		asc[i] = Oid(10 + 2*i)
	}
	sortedOids := OidColumn(asc)
	sortedOids.SetSorted(true)
	shuffled := append([]Oid{}, asc...)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	ints := make([]int64, n)
	for i := range ints {
		ints[i] = int64(rng.Intn(50))
	}
	return []*Column{DenseColumn(7, n), sortedOids, OidColumn(shuffled), IntColumn(ints)}
}

// checkUSelect holds USelect to Select(...).Mirror() — rows, order,
// column sharing and the head's sorted property — and, when exact is
// set, both to the boxed reference.
func checkUSelect(t *testing.T, what string, b *BAT, lo, hi *Bound, exact bool) {
	t.Helper()
	sel := b.Select(lo, hi)
	got := b.USelect(lo, hi)
	sameBAT(t, what+": uselect vs select.mirror", got, sel.Mirror())
	if got.Head() != got.Tail() {
		t.Fatalf("%s: USelect returned two columns", what)
	}
	if got.Head().Sorted() != sel.Head().Sorted() {
		t.Fatalf("%s: head sorted = %v, Select says %v", what, got.Head().Sorted(), sel.Head().Sorted())
	}
	if b.Head().Sorted() && !got.Head().Sorted() {
		t.Fatalf("%s: sorted input head, unsorted candidate list", what)
	}
	if exact {
		sameBAT(t, what+": uselect vs generic", got, b.selectGeneric(lo, hi).Mirror())
	}
}

func TestUSelectMatchesSelectEveryKind(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	words := []string{"a", "b", "c", "d", "e"}
	pick := func(mk func() any) *Bound {
		if rng.Intn(4) == 0 {
			return nil
		}
		return &Bound{Value: mk(), Inclusive: rng.Intn(2) == 0}
	}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(50)
		ints, floats, oids, strs, bools := make([]int64, n), make([]float64, n), make([]Oid, n), make([]string, n), make([]bool, n)
		for i := 0; i < n; i++ {
			ints[i] = int64(rng.Intn(40))
			floats[i] = float64(rng.Intn(40)) / 4
			oids[i] = Oid(rng.Intn(40))
			strs[i] = words[rng.Intn(len(words))]
			bools[i] = rng.Intn(2) == 0
		}
		tails := map[string]*Column{
			"int": IntColumn(ints), "float": FloatColumn(floats), "oid": OidColumn(oids),
			"dense": DenseColumn(Oid(rng.Intn(30)), n), "str": StrColumn(strs), "bool": BoolColumn(bools),
		}
		bounds := map[string]func() any{
			// int column: int, integral-float and fractional-float literals
			"int": func() any {
				if rng.Intn(2) == 0 {
					return int64(rng.Intn(50) - 5)
				}
				return float64(rng.Intn(100)-10) / 2
			},
			// float column: float and int literals
			"float": func() any {
				if rng.Intn(2) == 0 {
					return float64(rng.Intn(20)) / 2
				}
				return int64(rng.Intn(10))
			},
			"oid":   func() any { return Oid(rng.Intn(45)) },
			"dense": func() any { return Oid(rng.Intn(70)) },
			"str":   func() any { return words[rng.Intn(len(words))] },
			"bool":  func() any { return rng.Intn(2) == 0 },
		}
		for kind, tail := range tails {
			for hi, head := range uselectHeads(rng, n) {
				b := New("x", head, tail)
				if kind != "dense" && kind != "bool" && rng.Intn(2) == 0 {
					b = b.SortT(false) // the span path
				}
				lo, up := pick(bounds[kind]), pick(bounds[kind])
				checkUSelect(t, kind+"/head"+string(rune('0'+hi)), b, lo, up, true)
			}
		}
	}
}

func TestUSelectBoundEdgeCases(t *testing.T) {
	// The int64-extreme float bounds of TestSelectFloatBoundAtInt64Extremes.
	ext := MakeInts("x", []int64{-1 << 63, 0, 1<<63 - 1})
	for _, c := range []struct{ lo, hi *Bound }{
		{nil, &Bound{Value: -float64(1 << 63), Inclusive: true}},
		{&Bound{Value: -float64(1 << 63), Inclusive: true}, nil},
		{&Bound{Value: float64(1 << 62), Inclusive: true}, nil},
		{nil, &Bound{Value: -float64(1 << 63), Inclusive: false}},
	} {
		checkUSelect(t, "extreme", ext, c.lo, c.hi, true)
	}
	// At 2^63 the boxed reference is lossy; hold USelect to Select only.
	checkUSelect(t, "hi<2^63", ext, nil, &Bound{Value: float64(1 << 63), Inclusive: false}, false)
	checkUSelect(t, "lo>=2^63", ext, &Bound{Value: float64(1 << 63), Inclusive: true}, nil, false)
	if got := ext.USelect(nil, &Bound{Value: float64(1 << 63), Inclusive: false}); got.Len() != 3 {
		t.Errorf("hi < 2^63 must keep every int64, got %d rows", got.Len())
	}
	checkUSelect(t, "int-extremes", ext, &Bound{Value: int64(-1 << 63), Inclusive: false}, &Bound{Value: int64(1<<63 - 1), Inclusive: false}, true)
	checkUSelect(t, "lo>max", ext, &Bound{Value: int64(1<<63 - 1), Inclusive: false}, nil, true)

	// The OID-literal cases of TestSelectOidBoundLiterals.
	o := MakeOids("o", []Oid{5, 1, 9, 3})
	checkUSelect(t, "oid int literals", o, &Bound{Value: int64(3), Inclusive: true}, &Bound{Value: int64(8), Inclusive: true}, false)
	checkUSelect(t, "oid negative lo", o, &Bound{Value: int64(-1), Inclusive: true}, nil, false)
	checkUSelect(t, "oid negative hi", o, nil, &Bound{Value: int64(-1), Inclusive: true}, false)
	if got := o.USelect(&Bound{Value: int64(3), Inclusive: true}, &Bound{Value: int64(8), Inclusive: true}); got.Len() != 2 {
		t.Errorf("oid uselect = %d rows, want 2", got.Len())
	}

	// Exclusive float limits step to the adjacent value, infinities included.
	f := MakeFloats("f", []float64{-1.5, 0, 0.05, 0.07, 2.5})
	inf := func(sign int, incl bool) *Bound { return &Bound{Value: math.Inf(sign), Inclusive: incl} }
	for _, c := range []struct{ lo, hi *Bound }{
		{&Bound{Value: 0.05}, &Bound{Value: 0.07}},
		{&Bound{Value: 0.05, Inclusive: true}, &Bound{Value: 0.07}},
		{&Bound{Value: 0.0}, nil},
		{inf(-1, false), inf(1, false)},
		{inf(1, false), nil},
		{nil, inf(-1, false)},
		{inf(-1, true), inf(-1, true)},
	} {
		checkUSelect(t, "float", f, c.lo, c.hi, true)
	}

	// Contradictory and point ranges, scanned and sorted.
	x := MakeInts("x", []int64{4, 9, 4, 1, 7, 4})
	for _, b := range []*BAT{x, x.SortT(false)} {
		checkUSelect(t, "contradictory", b, &Bound{Value: int64(7), Inclusive: true}, &Bound{Value: int64(4), Inclusive: true}, true)
		checkUSelect(t, "half-open point", b, &Bound{Value: int64(4), Inclusive: true}, &Bound{Value: int64(4)}, true)
		checkUSelect(t, "point", b, &Bound{Value: int64(4), Inclusive: true}, &Bound{Value: int64(4), Inclusive: true}, true)
		if got := b.USelect(&Bound{Value: int64(7), Inclusive: true}, &Bound{Value: int64(4), Inclusive: true}); got.Len() != 0 {
			t.Errorf("contradictory bounds kept %d rows", got.Len())
		}
	}
	if got := x.USelect(nil, nil); got.Head() != x.Head() || got.Tail() != x.Head() {
		t.Error("USelect(nil, nil) is the mirror of the input")
	}
}

// A select over a dense-headed column — what every served fragment is —
// yields an ascending candidate list without gathering the tail: one
// payload allocation besides the scan buffer.
func TestUSelectDenseHeadIsSortedCandidateList(t *testing.T) {
	b := benchIntBAT(4096, 100)
	got := b.USelect(&Bound{Value: int64(10), Inclusive: true}, &Bound{Value: int64(30)})
	if !got.Head().Sorted() || got.Head().Kind() != KOid {
		t.Fatal("candidate list over a dense head must be a sorted OID list")
	}
	for i := 1; i < got.Len(); i++ {
		if got.Head().Oid(i-1) >= got.Head().Oid(i) {
			t.Fatalf("not ascending at %d", i)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { b.USelect(&Bound{Value: int64(10), Inclusive: true}, nil) }); allocs > 5 {
		t.Errorf("USelect allocated %v objects; want scan buffer + one payload + descriptors", allocs)
	}
}

// --- USelectCand ≡ Semijoin(cand).USelect(...) ----------------------------

// uselectCandShapes is the size of uselectCandCase's shape space: tail
// kind × column head × candidate form × bounds form × tail sortedness.
const uselectCandShapes = 6 * 3 * 6 * 5 * 2

// candWidths are the physical widths an int tail is drawn in; an int
// case's width picks one, and its scale spreads the values so Narrow
// lands on it.
var candWidths = []struct {
	width int
	scale int64
}{{8, 1 << 40}, {4, 50_000_000}, {2, 1000}, {1, 1}}

// candDecimals are the float tails' forms: wide quarters, and decimal
// columns of exponent 2 (quarters, and cents of either sign) and 0
// (whole numbers of either sign).
var candDecimals = []struct {
	div    float64 // value = k / div
	offset int     // k runs from -offset
	narrow bool
}{{4, 0, false}, {4, 0, true}, {100, 20, true}, {1, 20, true}}

// uselectCandCase derives one (column, candidates, bounds) triple from a
// seed; shape picks one cell of the grid the kernel's paths split on,
// and width the physical form of a numeric tail: an int's width (an
// index into candWidths), a float's wide or decimal form (an index into
// candDecimals); other tails ignore it.
func uselectCandCase(seed int64, shape uint16, width uint8) (b, cand *BAT, lo, hi *Bound) {
	rng := rand.New(rand.NewSource(seed))
	s := int(shape) % uselectCandShapes
	tailKind, s := s%6, s/6
	headForm, s := s%3, s/3
	candForm, s := s%6, s/6
	boundForm, sortedTail := s%5, s/5 == 1

	n := rng.Intn(60)
	base := Oid(5 + rng.Intn(20))

	// The tail: int, float, oid, dense oid, str, bool.
	words := []string{"a", "b", "c", "d", "e"}
	var tail *Column
	var lit func() any // a literal of the tail's kind, inside and just outside the data
	switch tailKind {
	case 0:
		scale := candWidths[int(width)%len(candWidths)].scale
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(rng.Intn(40)) * scale
		}
		if sortedTail {
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		}
		tail = IntColumn(v)
		lit = func() any {
			switch rng.Intn(8) {
			case 0:
				return []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
			case 1, 2, 3:
				return int64(rng.Intn(50)-5) * scale
			}
			return float64(rng.Intn(100)-10) / 2 * float64(scale) // integral or fractional float over ints
		}
	case 1:
		form := candDecimals[int(width)%len(candDecimals)]
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(40)-form.offset) / form.div
		}
		if sortedTail {
			sort.Float64s(v)
		}
		tail = FloatColumn(v)
		lit = func() any {
			switch rng.Intn(6) {
			case 0:
				return int64(rng.Intn(12) - form.offset/4)
			case 1:
				return []float64{math.Inf(-1), math.Inf(1)}[rng.Intn(2)]
			case 2, 3: // a value the column can hold, or one ulp beside it
				x := float64(rng.Intn(48)-form.offset) / form.div
				return []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))}[rng.Intn(3)]
			}
			return float64(rng.Intn(24)-form.offset/2) / 2
		}
	case 2:
		v := genOids(rng, n, 0, 40, sortedTail)
		tail = OidColumn(v)
		lit = func() any { return Oid(rng.Intn(45)) }
	case 3:
		tail, sortedTail = DenseColumn(Oid(rng.Intn(30)), n), false // dense is sorted by itself
		lit = func() any { return Oid(rng.Intn(70)) }
	case 4:
		v := make([]string, n)
		for i := range v {
			v[i] = words[rng.Intn(len(words))]
		}
		if sortedTail {
			sort.Strings(v)
		}
		tail = StrColumn(v)
		lit = func() any { return words[rng.Intn(len(words))] }
	default:
		v := make([]bool, n)
		for i := range v {
			v[i] = rng.Intn(2) == 0
		}
		if sortedTail {
			sort.Slice(v, func(i, j int) bool { return !v[i] && v[j] })
		}
		tail = BoolColumn(v)
		lit = func() any { return rng.Intn(2) == 0 }
	}
	tail.SetSorted(sortedTail)

	// The head: dense, ascending OIDs with gaps, or the same shuffled.
	asc := make([]Oid, n)
	for i := range asc {
		asc[i] = base + Oid(2*i)
	}
	var head *Column
	end := base + Oid(2*n) // past the last head value of either form
	switch headForm {
	case 0:
		head, end = DenseColumn(base, n), base+Oid(n)
	case 1:
		head = OidColumn(asc)
		head.SetSorted(true)
	default:
		rng.Shuffle(n, func(i, j int) { asc[i], asc[j] = asc[j], asc[i] })
		head = OidColumn(asc)
	}
	b = New("x", head, tail)
	if tailKind == 0 || (tailKind == 1 && candDecimals[int(width)%len(candDecimals)].narrow) {
		b = Narrow(b) // every int width but the widest narrows, as does every decimal form
	}

	// The candidates, drawn from a domain that overhangs the head range
	// on both sides.
	span := int(end) + 12
	var cc *Column
	switch candForm {
	case 0: // ascending, mostly unique
		cc = OidColumn(genOids(rng, rng.Intn(n+2), 0, Oid(span), true))
		cc.SetSorted(true)
	case 1:
		cc = DenseColumn(Oid(rng.Intn(span)), rng.Intn(n+4))
	case 2: // empty: a nil payload and a flagged zero-length one
		if rng.Intn(2) == 0 {
			cc = OidColumn(nil)
		} else {
			cc = OidColumn([]Oid{})
			cc.SetSorted(true)
		}
	case 3: // ascending, nothing inside the head range
		v := append(genOids(rng, rng.Intn(6), 0, base, true), genOids(rng, rng.Intn(6), end, 12, true)...)
		cc = OidColumn(v)
		cc.SetSorted(true)
	case 4: // ascending with many copies
		cc = OidColumn(genOids(rng, 2*n+rng.Intn(4), 0, Oid(span/3+1), true))
		for i := range cc.oids {
			cc.oids[i] *= 3
		}
		cc.SetSorted(true)
	default: // unsorted, copies included
		cc = OidColumn(genOids(rng, rng.Intn(n+2), 0, Oid(span), false))
	}
	cand = New("cand", cc, cc)

	// The bounds.
	x, y := lit(), lit()
	if cmpValues(tail.kind, x, y) > 0 {
		x, y = y, x
	}
	switch boundForm {
	case 0: // closed
		lo, hi = &Bound{Value: x, Inclusive: true}, &Bound{Value: y, Inclusive: true}
	case 1: // half-open, either side
		open := rng.Intn(2) == 0
		lo, hi = &Bound{Value: x, Inclusive: open}, &Bound{Value: y, Inclusive: !open}
	case 2: // one-sided, or none at all
		switch rng.Intn(5) {
		case 0:
		case 1, 2:
			lo = &Bound{Value: x, Inclusive: rng.Intn(2) == 0}
		default:
			hi = &Bound{Value: y, Inclusive: rng.Intn(2) == 0}
		}
	case 3: // contradictory: reversed, or a point with an open end
		lo, hi = &Bound{Value: y, Inclusive: true}, &Bound{Value: x, Inclusive: rng.Intn(2) == 0}
		if cmpValues(tail.kind, x, y) == 0 {
			hi.Inclusive = false
		}
	default: // a literal the typed bounds refuse: NaN goes the boxed way
		lo, hi = &Bound{Value: x, Inclusive: true}, &Bound{Value: y, Inclusive: true}
		if tail.kind == KInt || tail.kind == KFloat {
			if rng.Intn(2) == 0 {
				lo.Value = math.NaN()
			} else {
				hi.Value = math.NaN()
			}
		}
	}
	return b, cand, lo, hi
}

// checkUSelectCand holds USelectCand to its definition — rows, order,
// one shared column, the head's sorted property — and the definition to
// a row-by-row reading of it when the bounds are ones selectGeneric
// reads.
func checkUSelectCand(t *testing.T, seed int64, shape uint16, width uint8) {
	t.Helper()
	b, cand, lo, hi := uselectCandCase(seed, shape, width)
	what := fmt.Sprintf("seed %d shape %d width %d: %s, %s", seed, shape, b.Tail().Width(), b, cand)
	want := b.Semijoin(cand).USelect(lo, hi)
	got := b.USelectCand(cand, lo, hi)
	sameBAT(t, what+": uselect(cand) vs semijoin.uselect", got, want)
	if got.Head() != got.Tail() {
		t.Fatalf("%s: USelectCand returned two columns", what)
	}
	if got.Head().Sorted() != want.Head().Sorted() {
		t.Fatalf("%s: head sorted = %v, the definition says %v", what, got.Head().Sorted(), want.Head().Sorted())
	}
	in := make(map[Oid]bool, cand.Len())
	for i := 0; i < cand.Len(); i++ {
		in[cand.Head().Oid(i)] = true
	}
	kept := b.selectGeneric(lo, hi)
	var rows []Oid
	for i := 0; i < kept.Len(); i++ {
		if o := kept.Head().Oid(i); in[o] {
			rows = append(rows, o)
		}
	}
	sameBAT(t, what+": uselect(cand) vs row by row", got, New("rows", OidColumn(rows), OidColumn(rows)))
}

func TestUSelectCandMatchesSemijoinUSelect(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		for shape := uint16(0); shape < uselectCandShapes; shape++ {
			widths := 1
			switch shape % 6 {
			case 0: // an int tail
				widths = len(candWidths)
			case 1: // a float tail
				widths = len(candDecimals)
			}
			for w := 0; w < widths; w++ {
				checkUSelectCand(t, seed*7919+int64(shape), shape, uint8(w))
			}
		}
	}
	// A served fragment: dense head off zero, candidates straddling both
	// ends, every bound inclusive at a value that occurs.
	frag := New("f", DenseColumn(65536, 8), IntColumn([]int64{4, 9, 4, 1, 7, 4, 9, 0}))
	c := OidColumn([]Oid{3, 65535, 65536, 65538, 65538, 65540, 65543, 65544, 70000})
	c.SetSorted(true)
	got := frag.USelectCand(New("c", c, c), &Bound{Value: int64(4), Inclusive: true}, &Bound{Value: int64(7), Inclusive: true})
	sameBAT(t, "fragment", got, candList("want", []Oid{65536, 65538, 65540}))
	if allocs := testing.AllocsPerRun(50, func() {
		frag.USelectCand(New("c", c, c), &Bound{Value: int64(4), Inclusive: true}, nil)
	}); allocs > 5 {
		t.Errorf("USelectCand allocated %v objects; want one payload, descriptors and bounds", allocs)
	}
}

func FuzzUSelectCand(f *testing.F) {
	for shape := uint16(0); shape < uselectCandShapes; shape += 97 {
		f.Add(int64(shape), shape, uint8(shape))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint16, width uint8) {
		checkUSelectCand(t, seed, shape, width)
	})
}
