package bat

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func intsOf(b *BAT) []int64 {
	out := make([]int64, b.Len())
	for i := range out {
		out[i] = b.Tail().Int(i)
	}
	return out
}

func headOids(b *BAT) []Oid {
	out := make([]Oid, b.Len())
	for i := range out {
		out[i] = b.Head().Oid(i)
	}
	return out
}

func TestMakeAndAccess(t *testing.T) {
	b := MakeInts("x", []int64{10, 20, 30})
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if !b.Head().Dense() || b.Head().Base() != 0 {
		t.Fatal("head should be dense from 0")
	}
	if b.Tail().Int(1) != 20 {
		t.Fatalf("Tail(1) = %d, want 20", b.Tail().Int(1))
	}
	if b.Head().Oid(2) != 2 {
		t.Fatalf("Head(2) = %d, want 2", b.Head().Oid(2))
	}
}

func TestNewPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("bad", DenseColumn(0, 2), IntColumn([]int64{1}))
}

func TestReverseIsView(t *testing.T) {
	b := MakeInts("x", []int64{1, 2, 3})
	r := b.Reverse()
	if r.Head().Kind() != KInt || r.Tail().Kind() != KOid {
		t.Fatal("reverse did not swap kinds")
	}
	rr := r.Reverse()
	if rr.Head() != b.Head() || rr.Tail() != b.Tail() {
		t.Fatal("double reverse is not identity (columns should be shared)")
	}
}

func TestMirror(t *testing.T) {
	b := MakeInts("x", []int64{5, 6})
	m := b.Mirror()
	if m.Head() != m.Tail() {
		t.Fatal("mirror should share head as tail")
	}
}

func TestMarkT(t *testing.T) {
	b := MakeInts("x", []int64{7, 8, 9})
	m := b.MarkT(100)
	if !m.Tail().Dense() || m.Tail().Base() != 100 {
		t.Fatal("MarkT should produce dense tail from base")
	}
	if m.Tail().Oid(2) != 102 {
		t.Fatalf("MarkT tail(2) = %d, want 102", m.Tail().Oid(2))
	}
}

func TestSelectRange(t *testing.T) {
	b := MakeInts("x", []int64{5, 15, 25, 35, 45})
	got := b.Select(&Bound{Value: int64(15), Inclusive: true}, &Bound{Value: int64(35), Inclusive: false})
	if want := []int64{15, 25}; !reflect.DeepEqual(intsOf(got), want) {
		t.Fatalf("Select = %v, want %v", intsOf(got), want)
	}
	// Heads are preserved.
	if want := []Oid{1, 2}; !reflect.DeepEqual(headOids(got), want) {
		t.Fatalf("Select heads = %v, want %v", headOids(got), want)
	}
}

func TestSelectOpenBounds(t *testing.T) {
	b := MakeInts("x", []int64{1, 2, 3})
	if got := b.Select(nil, nil); got.Len() != 3 {
		t.Fatalf("unbounded select = %d rows, want 3", got.Len())
	}
	if got := b.Select(&Bound{Value: int64(2), Inclusive: true}, nil); got.Len() != 2 {
		t.Fatalf("lo-only select = %d rows, want 2", got.Len())
	}
	if got := b.Select(nil, &Bound{Value: int64(2), Inclusive: false}); got.Len() != 1 {
		t.Fatalf("hi-only select = %d rows, want 1", got.Len())
	}
}

func TestSelectEqStrings(t *testing.T) {
	b := MakeStrs("s", []string{"a", "b", "a", "c"})
	got := b.SelectEq("a")
	if got.Len() != 2 {
		t.Fatalf("SelectEq = %d rows, want 2", got.Len())
	}
	if want := []Oid{0, 2}; !reflect.DeepEqual(headOids(got), want) {
		t.Fatalf("heads = %v, want %v", headOids(got), want)
	}
}

func TestSelectNe(t *testing.T) {
	b := MakeInts("x", []int64{1, 2, 1})
	if got := b.SelectNe(int64(1)); got.Len() != 1 || got.Tail().Int(0) != 2 {
		t.Fatalf("SelectNe failed: %v", got.Dump(10))
	}
}

func TestJoinFetchPath(t *testing.T) {
	// positions (oid tail) join values (dense head): leftfetchjoin.
	pos := MakeOids("pos", []Oid{2, 0})
	vals := MakeInts("vals", []int64{10, 20, 30})
	got := pos.Join(vals)
	if want := []int64{30, 10}; !reflect.DeepEqual(intsOf(got), want) {
		t.Fatalf("fetch join = %v, want %v", intsOf(got), want)
	}
}

func TestJoinFetchOutOfRangeSkipped(t *testing.T) {
	pos := MakeOids("pos", []Oid{5, 1})
	vals := MakeInts("vals", []int64{10, 20})
	got := pos.Join(vals)
	if got.Len() != 1 || got.Tail().Int(0) != 20 {
		t.Fatalf("out-of-range oid should be skipped: %s", got.Dump(10))
	}
}

func TestJoinHashPath(t *testing.T) {
	// The paper's running example: t.id join (c.t_id reversed).
	tid := MakeInts("t.id", []int64{1, 2, 3})
	ctid := MakeInts("c.t_id", []int64{2, 2, 3, 9})
	joined := tid.Join(ctid.Reverse()) // [t oid | c oid] for matches
	if joined.Len() != 3 {
		t.Fatalf("join = %d rows, want 3", joined.Len())
	}
	// t oid 1 (id=2) matches c oids 0,1; t oid 2 (id=3) matches c oid 2.
	gotPairs := map[[2]Oid]bool{}
	for i := 0; i < joined.Len(); i++ {
		gotPairs[[2]Oid{joined.Head().Oid(i), joined.Tail().Oid(i)}] = true
	}
	for _, want := range [][2]Oid{{1, 0}, {1, 1}, {2, 2}} {
		if !gotPairs[want] {
			t.Fatalf("missing pair %v in %v", want, gotPairs)
		}
	}
}

func TestJoinKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakeInts("a", []int64{1}).Join(MakeInts("b", []int64{1}))
}

func TestSemijoinAndDiff(t *testing.T) {
	a := New("a", OidColumn([]Oid{1, 2, 3, 4}), IntColumn([]int64{10, 20, 30, 40}))
	b := New("b", OidColumn([]Oid{2, 4, 9}), IntColumn([]int64{0, 0, 0}))
	semi := a.Semijoin(b)
	if want := []int64{20, 40}; !reflect.DeepEqual(intsOf(semi), want) {
		t.Fatalf("semijoin = %v, want %v", intsOf(semi), want)
	}
}

func TestSemijoinDenseFastPath(t *testing.T) {
	a := New("a", OidColumn([]Oid{0, 5, 2}), IntColumn([]int64{1, 2, 3}))
	b := New("b", DenseColumn(0, 3), IntColumn([]int64{0, 0, 0}))
	got := a.Semijoin(b)
	if want := []int64{1, 3}; !reflect.DeepEqual(intsOf(got), want) {
		t.Fatalf("dense semijoin = %v, want %v", intsOf(got), want)
	}
}

func TestSortAndTopN(t *testing.T) {
	b := MakeInts("x", []int64{3, 1, 2})
	s := b.SortT(false)
	if want := []int64{1, 2, 3}; !reflect.DeepEqual(intsOf(s), want) {
		t.Fatalf("sort = %v, want %v", intsOf(s), want)
	}
	if !s.Tail().Sorted() {
		t.Fatal("sorted property not set")
	}
	// ORDER BY … DESC LIMIT 2: a descending sort, sliced.
	top := b.SortT(true).Slice(0, 2)
	if want := []int64{3, 2}; !reflect.DeepEqual(intsOf(top), want) {
		t.Fatalf("top 2 = %v, want %v", intsOf(top), want)
	}
}

func TestSliceAndCopy(t *testing.T) {
	b := MakeInts("x", []int64{1, 2, 3, 4})
	s := b.Slice(1, 3)
	if want := []int64{2, 3}; !reflect.DeepEqual(intsOf(s), want) {
		t.Fatalf("slice = %v, want %v", intsOf(s), want)
	}
	c := b.Copy()
	if !reflect.DeepEqual(intsOf(c), intsOf(b)) {
		t.Fatal("copy mismatch")
	}
}

func TestAggregates(t *testing.T) {
	b := MakeInts("x", []int64{4, 1, 3})
	if got := b.Sum().(int64); got != 8 {
		t.Errorf("Sum = %d, want 8", got)
	}
	if got := b.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	if got := b.Min().(int64); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := b.Max().(int64); got != 4 {
		t.Errorf("Max = %v, want 4", got)
	}
	if got := b.Avg(); got != 8.0/3.0 {
		t.Errorf("Avg = %v", got)
	}
	f := MakeFloats("f", []float64{1.5, 2.5})
	if got := f.Sum().(float64); got != 4.0 {
		t.Errorf("float Sum = %v, want 4.0", got)
	}
	empty := MakeInts("e", nil)
	if empty.Min() != nil || empty.Max() != nil || empty.Avg() != 0 {
		t.Error("empty aggregates should be nil/0")
	}
}

func TestGrouping(t *testing.T) {
	vals := MakeStrs("k", []string{"a", "b", "a", "c", "b"})
	groups, reps := vals.GroupIDs()
	if reps.Len() != 3 {
		t.Fatalf("reps = %d, want 3", reps.Len())
	}
	if reps.Tail().Str(0) != "a" || reps.Tail().Str(1) != "b" || reps.Tail().Str(2) != "c" {
		t.Fatalf("rep order wrong: %s", reps.Dump(10))
	}
	nums := MakeInts("v", []int64{1, 10, 2, 100, 20})
	sums := GroupedSum(groups, nums)
	if want := []int64{3, 30, 100}; !reflect.DeepEqual(intsOf(sums), want) {
		t.Fatalf("grouped sums = %v, want %v", intsOf(sums), want)
	}
	counts := GroupedCount(groups)
	if want := []int64{2, 2, 1}; !reflect.DeepEqual(intsOf(counts), want) {
		t.Fatalf("grouped counts = %v, want %v", intsOf(counts), want)
	}
	avgs := GroupedAvg(groups, nums)
	if avgs.Tail().Float(0) != 1.5 || avgs.Tail().Float(2) != 100 {
		t.Fatalf("grouped avgs wrong: %s", avgs.Dump(10))
	}
	mins := GroupedMin(groups, nums)
	maxs := GroupedMax(groups, nums)
	if mins.Tail().Int(1) != 10 || maxs.Tail().Int(1) != 20 {
		t.Fatalf("grouped min/max wrong: %s %s", mins.Dump(10), maxs.Dump(10))
	}
}

func TestBytes(t *testing.T) {
	b := MakeInts("x", make([]int64, 100))
	// dense head 16 + 100*8 tail
	if got := b.Bytes(); got != 16+800 {
		t.Fatalf("Bytes = %d, want 816", got)
	}
	s := MakeStrs("s", []string{"ab", "cde"})
	if got := s.Bytes(); got != 16+(2+8)+(3+8) {
		t.Fatalf("str Bytes = %d", got)
	}
}

func TestDumpAndString(t *testing.T) {
	b := MakeInts("x", []int64{1, 2, 3})
	if got := b.String(); got != "BAT(x)[oid|int]#3" {
		t.Fatalf("String = %q", got)
	}
	if got := b.Dump(2); got == "" || got == b.String() {
		t.Fatalf("Dump = %q", got)
	}
}

// --- property-based tests ---

func genInts(rng *rand.Rand, n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(rng.Intn(50))
	}
	return v
}

// Property: reverse twice is the identity view.
func TestPropertyReverseReverse(t *testing.T) {
	f := func(vals []int64) bool {
		b := MakeInts("x", vals)
		rr := b.Reverse().Reverse()
		return rr.Head() == b.Head() && rr.Tail() == b.Tail()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Select(lo,hi) rows all satisfy the predicate and the
// complement rows all violate it.
func TestPropertySelectPartition(t *testing.T) {
	f := func(vals []int64, lo, hi int64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		b := MakeInts("x", vals)
		sel := b.Select(&Bound{Value: lo, Inclusive: true}, &Bound{Value: hi, Inclusive: true})
		inRange := 0
		for _, v := range vals {
			if v >= lo && v <= hi {
				inRange++
			}
		}
		if sel.Len() != inRange {
			return false
		}
		for i := 0; i < sel.Len(); i++ {
			v := sel.Tail().Int(i)
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: joining positions with a value BAT equals direct indexing.
func TestPropertyFetchJoinIsIndexing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		vals := genInts(rng, n)
		m := rng.Intn(40)
		pos := make([]Oid, m)
		for i := range pos {
			pos[i] = Oid(rng.Intn(n))
		}
		got := MakeOids("pos", pos).Join(MakeInts("vals", vals))
		if got.Len() != m {
			t.Fatalf("fetch join lost rows: %d != %d", got.Len(), m)
		}
		for i := 0; i < m; i++ {
			if got.Tail().Int(i) != vals[pos[i]] {
				t.Fatalf("fetch join wrong at %d", i)
			}
		}
	}
}

// Property: join cardinality equals the sum over L of match counts in
// R, and the pairs are joinGeneric's, in its order — probe row
// ascending, then build row ascending — whichever algorithm the sides'
// lengths and sortedness pick.
func TestPropertyJoinCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		l := MakeInts("l", genInts(rng, rng.Intn(30)))
		r := MakeInts("r", genInts(rng, rng.Intn(30)))
		if trial%2 == 1 {
			r = r.SortT(false)
		}
		got := l.Join(r.Reverse()) // [l oid | r oid] on value match
		want := 0
		for i := 0; i < l.Len(); i++ {
			for j := 0; j < r.Len(); j++ {
				if l.Tail().Int(i) == r.Tail().Int(j) {
					want++
				}
			}
		}
		if got.Len() != want {
			t.Fatalf("join cardinality %d, want %d", got.Len(), want)
		}
		sameBAT(t, "join", got, l.joinGeneric(r.Reverse()))
	}
}

// Property: SortT output is a permutation and is sorted.
func TestPropertySort(t *testing.T) {
	f := func(vals []int64) bool {
		b := MakeInts("x", vals)
		s := b.SortT(false)
		if s.Len() != b.Len() {
			return false
		}
		for i := 1; i < s.Len(); i++ {
			if s.Tail().Int(i-1) > s.Tail().Int(i) {
				return false
			}
		}
		// permutation check via multiset count
		count := map[int64]int{}
		for _, v := range vals {
			count[v]++
		}
		for i := 0; i < s.Len(); i++ {
			count[s.Tail().Int(i)]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: GroupedSum over groups equals total Sum.
func TestPropertyGroupSumConservation(t *testing.T) {
	f := func(keys []uint8, seed int64) bool {
		if len(keys) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		vals := genInts(rng, len(keys))
		keyInts := make([]int64, len(keys))
		for i, k := range keys {
			keyInts[i] = int64(k % 5)
		}
		kb := MakeInts("k", keyInts)
		vb := MakeInts("v", vals)
		groups, _ := kb.GroupIDs()
		sums := GroupedSum(groups, vb)
		var total int64
		for i := 0; i < sums.Len(); i++ {
			total += sums.Tail().Int(i)
		}
		return total == vb.Sum().(int64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHashJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := MakeInts("l", genInts(rng, 10000))
	r := MakeInts("r", genInts(rng, 10000))
	rr := r.Reverse()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Join(rr)
	}
}

func BenchmarkFetchJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	vals := MakeInts("vals", genInts(rng, 100000))
	pos := make([]Oid, 100000)
	for i := range pos {
		pos[i] = Oid(rng.Intn(100000))
	}
	pb := MakeOids("pos", pos)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb.Join(vals)
	}
}

func BenchmarkSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	bb := MakeInts("x", genInts(rng, 100000))
	lo := &Bound{Value: int64(10), Inclusive: true}
	hi := &Bound{Value: int64(20), Inclusive: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bb.Select(lo, hi)
	}
}

// TestScalarMatchesMake: Scalar builds the BAT the Make helpers build
// from a one-value slice (an empty int BAT for nil), in one allocation.
func TestScalarMatchesMake(t *testing.T) {
	for _, c := range []struct {
		v    any
		want *BAT
	}{
		{int64(-7), MakeInts("x", []int64{-7})},
		{94.5, MakeFloats("x", []float64{94.5})},
		{"R", MakeStrs("x", []string{"R"})},
		{Oid(12), MakeOids("x", []Oid{12})},
		{nil, MakeInts("x", nil)},
	} {
		got, ok := Scalar("x", c.v)
		if !ok {
			t.Fatalf("Scalar(%#v) refused", c.v)
		}
		if !reflect.DeepEqual(*got.Head(), *c.want.Head()) || !reflect.DeepEqual(*got.Tail(), *c.want.Tail()) || got.Name != c.want.Name {
			t.Fatalf("Scalar(%#v) = %v %+v, want %v %+v", c.v, got, *got.Tail(), c.want, *c.want.Tail())
		}
		if allocs := testing.AllocsPerRun(10, func() { Scalar("x", c.v) }); allocs > 1 {
			t.Fatalf("Scalar(%#v) allocates %v times, want 1", c.v, allocs)
		}
	}
	if _, ok := Scalar("x", true); ok {
		t.Fatal("Scalar took a bool")
	}
}
