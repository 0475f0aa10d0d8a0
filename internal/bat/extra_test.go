package bat

import (
	"math"
	"reflect"
	"testing"
)

func TestEqRows(t *testing.T) {
	a := MakeInts("a", []int64{1, 2, 3, 4})
	b := MakeInts("b", []int64{1, 9, 3, 9})
	got := a.EqRows(b)
	if want := []int64{1, 3}; !reflect.DeepEqual(intsOf(got), want) {
		t.Fatalf("EqRows = %v, want %v", intsOf(got), want)
	}
	// Heads preserved from a.
	if want := []Oid{0, 2}; !reflect.DeepEqual(headOids(got), want) {
		t.Fatalf("heads = %v, want %v", headOids(got), want)
	}
}

func TestEqRowsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakeInts("a", []int64{1}).EqRows(MakeInts("b", []int64{1, 2}))
}

func TestGroupDerive(t *testing.T) {
	// Rows: (A,1) (A,2) (B,1) (A,1) -> refined groups: {A,1}:0 {A,2}:1 {B,1}:2 {A,1}:0
	k1 := MakeStrs("k1", []string{"A", "A", "B", "A"})
	k2 := MakeInts("k2", []int64{1, 2, 1, 1})
	g1, _ := k1.GroupIDs()
	refined, reps := GroupDerive(g1, k2)
	if refined.Len() != 4 {
		t.Fatalf("refined len = %d", refined.Len())
	}
	wantIDs := []Oid{0, 1, 2, 0}
	for i, w := range wantIDs {
		if refined.Tail().Oid(i) != w {
			t.Fatalf("refined ids = %s, want %v", refined.Dump(10), wantIDs)
		}
	}
	// reps maps group id -> representative row position.
	if reps.Len() != 3 {
		t.Fatalf("reps = %d groups", reps.Len())
	}
	if reps.Tail().Oid(0) != 0 || reps.Tail().Oid(1) != 1 || reps.Tail().Oid(2) != 2 {
		t.Fatalf("rep positions wrong: %s", reps.Dump(10))
	}
}

func TestGroupIDsPos(t *testing.T) {
	b := MakeStrs("k", []string{"x", "y", "x"})
	groups, reps := b.GroupIDsPos()
	if groups.Len() != 3 || reps.Len() != 2 {
		t.Fatalf("groups=%d reps=%d", groups.Len(), reps.Len())
	}
	// Representative positions: group 0 -> row 0 ("x"), group 1 -> row 1.
	if reps.Tail().Oid(0) != 0 || reps.Tail().Oid(1) != 1 {
		t.Fatalf("reps = %s", reps.Dump(10))
	}
}

func TestMixedIntFloatComparison(t *testing.T) {
	b := MakeInts("x", []int64{1, 2, 3})
	got := b.Select(&Bound{Value: 1.5, Inclusive: true}, &Bound{Value: 2.5, Inclusive: true})
	if got.Len() != 1 || got.Tail().Int(0) != 2 {
		t.Fatalf("mixed-kind select = %s", got.Dump(10))
	}
}

func TestColumnValueAllKinds(t *testing.T) {
	cases := []*Column{
		DenseColumn(5, 3),
		OidColumn([]Oid{7}),
		IntColumn([]int64{-1}),
		FloatColumn([]float64{2.5}),
		StrColumn([]string{"s"}),
		BoolColumn([]bool{true}),
	}
	want := []any{Oid(5), Oid(7), int64(-1), 2.5, "s", true}
	for i, c := range cases {
		if got := c.Value(0); got != want[i] {
			t.Errorf("case %d: Value = %v, want %v", i, got, want[i])
		}
	}
}

func TestKindStringsAndWidths(t *testing.T) {
	if KInt.String() != "int" || KStr.String() != "str" || KOid.String() != "oid" {
		t.Fatal("kind strings wrong")
	}
	if IntColumn([]int64{1, 1 << 40}).Width() != 8 || StrColumn([]string{"a"}).Width() != 0 ||
		BoolColumn([]bool{true}).Width() != 1 || DenseColumn(0, 3).Width() != 0 ||
		FloatColumn([]float64{1}).Width() != 8 || OidColumn([]Oid{1}).Width() != 8 {
		t.Fatal("widths wrong")
	}
	for _, c := range []struct {
		vals  []int64
		width int
	}{{[]int64{-3, 252}, 1}, {[]int64{-3, 253}, 2}, {[]int64{0, 1<<16 - 1}, 2}, {[]int64{0, 1 << 16}, 4},
		{[]int64{math.MinInt64, math.MinInt64 + 1<<32 - 1}, 4}, {[]int64{math.MinInt64, math.MaxInt64}, 8}} {
		if got := Narrow(MakeInts("n", c.vals)).Tail().Width(); got != c.width {
			t.Fatalf("Narrow(%v) has width %d, want %d", c.vals, got, c.width)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestSortStringsAndBools(t *testing.T) {
	s := MakeStrs("s", []string{"b", "a", "c"}).SortT(false)
	if s.Tail().Str(0) != "a" || s.Tail().Str(2) != "c" {
		t.Fatalf("string sort = %s", s.Dump(5))
	}
	b := New("b", DenseColumn(0, 3), BoolColumn([]bool{true, false, true})).SortT(false)
	if b.Tail().Bool(0) != false || b.Tail().Bool(2) != true {
		t.Fatalf("bool sort = %s", b.Dump(5))
	}
}

func TestSlicePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MakeInts("x", []int64{1}).Slice(0, 2)
}

func TestJoinOnStringKeys(t *testing.T) {
	l := MakeStrs("l", []string{"a", "b"})
	r := MakeStrs("r", []string{"b", "c", "b"})
	got := l.Join(r.Reverse())
	if got.Len() != 2 { // "b" matches rows 0 and 2 of r
		t.Fatalf("string join = %d rows", got.Len())
	}
}
