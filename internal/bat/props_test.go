package bat

import (
	"math/rand"
	"reflect"
	"testing"
)

// --- property propagation -------------------------------------------------

func TestSelectPropagatesProperties(t *testing.T) {
	// Unsorted tail: head stays sorted (dense input head), tail does not.
	b := MakeInts("x", []int64{5, 1, 9, 3})
	got := b.Select(&Bound{Value: int64(2), Inclusive: true}, nil)
	if !got.Head().Sorted() {
		t.Error("select should keep a sorted head sorted")
	}
	if got.Tail().Sorted() {
		t.Error("unsorted tail must not be marked sorted after select")
	}

	// Sorted tail: result is a view, still sorted, head still dense.
	s := b.SortT(false).MarkH(0)
	sel := s.Select(&Bound{Value: int64(2), Inclusive: true}, &Bound{Value: int64(8), Inclusive: true})
	if !sel.Tail().Sorted() {
		t.Error("sorted tail must stay sorted after range select")
	}
	if !sel.Head().Dense() {
		t.Error("range select over a sorted tail should keep a dense head dense (O(1) view)")
	}
	if want := []int64{3, 5}; !reflect.DeepEqual(intsOf(sel), want) {
		t.Errorf("sorted select = %v, want %v", intsOf(sel), want)
	}
}

func TestSelectEqConstantTailSorted(t *testing.T) {
	b := MakeInts("x", []int64{2, 1, 2, 3, 2})
	got := b.SelectEq(int64(2))
	if got.Len() != 3 || !got.Tail().Sorted() {
		t.Errorf("point select result (len %d) should have a (constant) sorted tail", got.Len())
	}
}

func TestSortTPropagatesAndShortcuts(t *testing.T) {
	b := MakeInts("x", []int64{3, 1, 2})
	s := b.SortT(false)
	if !s.Tail().Sorted() {
		t.Fatal("SortT must set sorted")
	}
	// Sorting an already-sorted BAT is an O(1) view.
	allocs := testing.AllocsPerRun(100, func() { _ = s.SortT(false) })
	if allocs > 3 {
		t.Errorf("SortT on sorted input allocated %v objects; want a view", allocs)
	}
}

func TestReverseAndMarkPreserveProperties(t *testing.T) {
	b := MakeInts("x", []int64{1, 2, 3})
	b.Tail().SetSorted(true)
	r := b.Reverse()
	if !r.Head().Sorted() || !r.Tail().Dense() {
		t.Error("reverse must carry properties with the swapped columns")
	}
	m := b.MarkT(7)
	if !m.Tail().Dense() || m.Tail().Base() != 7 || !m.Tail().Sorted() {
		t.Error("MarkT tail must be dense (hence sorted)")
	}
	mh := b.MarkH(3)
	if !mh.Head().Dense() || !mh.Tail().Sorted() {
		t.Error("MarkH must keep the tail's properties and produce a dense head")
	}
}

func TestSliceIsZeroCopyView(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i)
	}
	b := MakeInts("x", vals)
	b.Tail().SetSorted(true)
	allocs := testing.AllocsPerRun(100, func() { _ = b.Slice(10, 900) })
	if allocs > 3 {
		t.Errorf("Slice allocated %v objects; want an O(1) view (<= 3 structs)", allocs)
	}
	s := b.Slice(10, 20)
	if !s.Head().Dense() || s.Head().Base() != 10 {
		t.Error("slice of a dense head should stay dense with shifted base")
	}
	if !s.Tail().Sorted() {
		t.Error("slice must preserve tail sortedness")
	}
	// Views share payload: the parent's value shows through.
	if s.Tail().Int(0) != 10 {
		t.Errorf("view value = %d, want 10", s.Tail().Int(0))
	}
}

func TestJoinPropagatesHeadSortedness(t *testing.T) {
	// Hash join: probe order preserved, so a sorted probe head stays sorted.
	l := MakeInts("l", []int64{1, 2, 2, 3})
	r := MakeInts("r", []int64{2, 3})
	j := l.Join(r.Reverse())
	if !j.Head().Sorted() {
		t.Error("hash join must keep the probe side's sorted head sorted")
	}
}

func TestJoinDenseDenseIsView(t *testing.T) {
	// [dense|dense] ⋈ [dense|vals] — the overlap is one contiguous run.
	pos := New("pos", DenseColumn(0, 10), DenseColumn(5, 10)) // tail oids 5..14
	vals := MakeInts("vals", []int64{0, 1, 2, 3, 4, 5, 6, 7}) // head oids 0..7
	j := pos.Join(vals)
	if j.Len() != 3 { // overlap of [5,15) and [0,8) = [5,8)
		t.Fatalf("dense-dense join = %d rows, want 3", j.Len())
	}
	if want := []int64{5, 6, 7}; !reflect.DeepEqual(intsOf(j), want) {
		t.Fatalf("dense-dense join = %v, want %v", intsOf(j), want)
	}
	if !j.Head().Dense() {
		t.Error("dense-dense join head should stay dense")
	}
	allocs := testing.AllocsPerRun(100, func() { _ = pos.Join(vals) })
	if allocs > 3 {
		t.Errorf("dense-dense join allocated %v objects; want O(1) views", allocs)
	}
}

func TestFetchJoinFullMatchSharesHead(t *testing.T) {
	pos := MakeOids("pos", []Oid{2, 0, 1})
	vals := MakeInts("vals", []int64{10, 20, 30})
	j := pos.Join(vals)
	if j.Head() != pos.Head() {
		t.Error("full-match fetch join should pass the head through zero-copy")
	}
}

func TestGroupIDsSharesHeadAndSortedFastPath(t *testing.T) {
	b := MakeInts("k", []int64{1, 1, 2, 2, 2, 3})
	b.Tail().SetSorted(true)
	groups, reps := b.GroupIDs()
	if groups.Head() != b.Head() {
		t.Error("GroupIDs must share the input head zero-copy")
	}
	if !groups.Tail().Sorted() {
		t.Error("group ids over a sorted key are non-decreasing")
	}
	if reps.Len() != 3 {
		t.Fatalf("reps = %d, want 3", reps.Len())
	}
	wantIDs := []Oid{0, 0, 1, 1, 1, 2}
	for i, w := range wantIDs {
		if groups.Tail().Oid(i) != w {
			t.Fatalf("sorted grouping ids wrong at %d: %s", i, groups.Dump(10))
		}
	}
}

func TestSemijoinDiffPropagation(t *testing.T) {
	a := New("a", OidColumn([]Oid{1, 2, 3, 4}), IntColumn([]int64{10, 20, 30, 40}))
	a.Head().SetSorted(true)
	a.Tail().SetSorted(true)
	b := New("b", OidColumn([]Oid{2, 4}), IntColumn([]int64{0, 0}))
	semi := a.Semijoin(b)
	if !semi.Head().Sorted() || !semi.Tail().Sorted() {
		t.Error("semijoin preserves row order, so sortedness must survive")
	}
}

func TestSemijoinDenseDenseView(t *testing.T) {
	a := New("a", DenseColumn(3, 5), IntColumn([]int64{1, 2, 3, 4, 5})) // heads 3..7
	b := New("b", DenseColumn(5, 10), IntColumn(make([]int64, 10)))     // heads 5..14
	got := a.Semijoin(b)
	if want := []int64{3, 4, 5}; !reflect.DeepEqual(intsOf(got), want) { // heads 5,6,7
		t.Fatalf("dense-dense semijoin = %v, want %v", intsOf(got), want)
	}
	if !got.Head().Dense() || got.Head().Base() != 5 {
		t.Error("dense-dense semijoin should return a dense view")
	}
}

func TestSelectDenseTailArithmetic(t *testing.T) {
	b := New("x", IntColumn([]int64{10, 20, 30, 40, 50}), DenseColumn(100, 5))
	got := b.Select(&Bound{Value: Oid(101), Inclusive: true}, &Bound{Value: Oid(103), Inclusive: false})
	if got.Len() != 2 || got.Tail().Oid(0) != 101 || got.Tail().Oid(1) != 102 {
		t.Fatalf("dense tail select = %s", got.Dump(10))
	}
	if !got.Tail().Dense() {
		t.Error("dense tail select should stay dense")
	}
	if got.Head().Int(0) != 20 {
		t.Errorf("head = %d, want 20", got.Head().Int(0))
	}
	// Out-of-range bounds.
	if b.Select(&Bound{Value: Oid(200), Inclusive: true}, nil).Len() != 0 {
		t.Error("lo above range must be empty")
	}
	if b.Select(nil, &Bound{Value: Oid(99), Inclusive: true}).Len() != 0 {
		t.Error("hi below range must be empty")
	}
}

// --- typed vs generic equivalence ----------------------------------------

func randomIntBAT(rng *rand.Rand, n, domain int) *BAT {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(domain))
	}
	return MakeInts("x", vals)
}

func sameBAT(t *testing.T, op string, a, b *BAT) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d != %d", op, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Head().Value(i) != b.Head().Value(i) || a.Tail().Value(i) != b.Tail().Value(i) {
			t.Fatalf("%s: row %d: (%v,%v) != (%v,%v)", op, i,
				a.Head().Value(i), a.Tail().Value(i), b.Head().Value(i), b.Tail().Value(i))
		}
	}
}

func TestSelectTypedMatchesGenericRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		b := randomIntBAT(rng, rng.Intn(60), 40)
		if rng.Intn(2) == 0 {
			b = b.SortT(false) // exercise the span path half the time
		}
		mkBound := func() *Bound {
			if rng.Intn(4) == 0 {
				return nil
			}
			bd := &Bound{Inclusive: rng.Intn(2) == 0}
			if rng.Intn(2) == 0 {
				bd.Value = int64(rng.Intn(50) - 5)
			} else {
				// Mixed literal: float bound over the int column,
				// integral or fractional.
				bd.Value = float64(rng.Intn(100)-10) / 2
			}
			return bd
		}
		lo, hi := mkBound(), mkBound()
		sameBAT(t, "select", b.Select(lo, hi), b.selectGeneric(lo, hi))
	}
}

func TestSelectFloatAndStringEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		fv := make([]float64, rng.Intn(40))
		for i := range fv {
			fv[i] = float64(rng.Intn(40)) / 4
		}
		fb := MakeFloats("f", fv)
		lo := &Bound{Value: float64(rng.Intn(20)) / 2, Inclusive: rng.Intn(2) == 0}
		hi := &Bound{Value: int64(rng.Intn(10)), Inclusive: rng.Intn(2) == 0} // int literal on float column
		sameBAT(t, "fselect", fb.Select(lo, hi), fb.selectGeneric(lo, hi))

		words := []string{"a", "b", "c", "d", "e"}
		sv := make([]string, rng.Intn(40))
		for i := range sv {
			sv[i] = words[rng.Intn(len(words))]
		}
		sb := MakeStrs("s", sv)
		slo := &Bound{Value: words[rng.Intn(len(words))], Inclusive: rng.Intn(2) == 0}
		shi := &Bound{Value: words[rng.Intn(len(words))], Inclusive: rng.Intn(2) == 0}
		sameBAT(t, "sselect", sb.Select(slo, shi), sb.selectGeneric(slo, shi))
	}
}

func TestSelectNeTypedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		b := randomIntBAT(rng, rng.Intn(40), 10)
		var v any
		switch rng.Intn(3) {
		case 0:
			v = int64(rng.Intn(12))
		case 1:
			v = float64(rng.Intn(12)) // integral float
		default:
			v = float64(rng.Intn(24)) / 2 // possibly fractional
		}
		sameBAT(t, "selectNe", b.SelectNe(v), b.selectNeGeneric(v))
	}
}

func TestJoinTypedMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		l := randomIntBAT(rng, rng.Intn(50), 20)
		r := randomIntBAT(rng, rng.Intn(50), 20)
		sameBAT(t, "join", l.Join(r.Reverse()), l.joinGeneric(r.Reverse()))
	}
	// String keys too.
	words := []string{"x", "y", "z", "w"}
	for trial := 0; trial < 50; trial++ {
		mk := func(n int) *BAT {
			v := make([]string, n)
			for i := range v {
				v[i] = words[rng.Intn(len(words))]
			}
			return MakeStrs("s", v)
		}
		l, r := mk(rng.Intn(30)), mk(rng.Intn(30))
		sameBAT(t, "strjoin", l.Join(r.Reverse()), l.joinGeneric(r.Reverse()))
	}
}

func TestEqRowsMixedKindsFallsBack(t *testing.T) {
	a := MakeInts("a", []int64{1, 2, 3})
	f := MakeFloats("f", []float64{1.0, 2.5, 3.0})
	got := a.EqRows(f)
	if want := []int64{1, 3}; !reflect.DeepEqual(intsOf(got), want) {
		t.Fatalf("mixed EqRows = %v, want %v", intsOf(got), want)
	}
}

func TestSelectFloatBoundAtInt64Extremes(t *testing.T) {
	b := MakeInts("x", []int64{-1 << 63, 0, 1<<63 - 1})
	cases := []struct {
		lo, hi *Bound
	}{
		{nil, &Bound{Value: -float64(1 << 63), Inclusive: true}},  // hi == MinInt64: keeps row 0
		{&Bound{Value: -float64(1 << 63), Inclusive: true}, nil},  // lo == MinInt64: keeps all
		{&Bound{Value: float64(1 << 62), Inclusive: true}, nil},   // huge lo: keeps MaxInt64 row
		{nil, &Bound{Value: -float64(1 << 63), Inclusive: false}}, // hi < MinInt64 range: empty
	}
	for _, c := range cases {
		sameBAT(t, "extreme-bounds", b.Select(c.lo, c.hi), b.selectGeneric(c.lo, c.hi))
	}
	// At exactly 2^63 the boxed reference is lossy (converting MaxInt64
	// to float64 rounds it up to 2^63), so the typed path is held to the
	// arithmetically exact answer instead of boxed parity.
	if got := b.Select(nil, &Bound{Value: float64(1 << 63), Inclusive: false}); got.Len() != 3 {
		t.Errorf("hi < 2^63 must keep every int64, got %d rows", got.Len())
	}
	if got := b.Select(&Bound{Value: float64(1 << 63), Inclusive: true}, nil); got.Len() != 0 {
		t.Errorf("lo >= 2^63 must be empty, got %d rows", got.Len())
	}
}

func TestSelectOidBoundLiterals(t *testing.T) {
	b := MakeOids("o", []Oid{5, 1, 9, 3}).Reverse().Reverse() // materialized oid tail
	// int literal bounds on an OID column.
	got := b.Select(&Bound{Value: int64(3), Inclusive: true}, &Bound{Value: int64(8), Inclusive: true})
	if got.Len() != 2 {
		t.Fatalf("oid select = %d rows, want 2", got.Len())
	}
	// Negative lower bound: everything qualifies.
	if b.Select(&Bound{Value: int64(-1), Inclusive: true}, nil).Len() != 4 {
		t.Error("negative lo on oid column should match all")
	}
	// Negative upper bound: nothing qualifies.
	if b.Select(nil, &Bound{Value: int64(-1), Inclusive: true}).Len() != 0 {
		t.Error("negative hi on oid column should match none")
	}
}
