package bat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// narrowCase is one int column and its narrowed twin: wide holds the
// values as int64s, narrow the same values in the width Narrow chose.
type narrowCase struct {
	what         string
	wide, narrow *BAT
	ref          int64
	maxCode      uint64 // the width's largest code; 0 for a wide column
}

// genNarrowCase builds an n-row int BAT whose values span what width w
// holds (8: more than 32 bits) from a reference that may sit at either
// end of the int64 range. A width-1 column is sometimes constant. The
// head is dense, ascending with gaps, or shuffled.
func genNarrowCase(t *testing.T, rng *rand.Rand, w int) narrowCase {
	t.Helper()
	n := rng.Intn(70)
	var span uint64
	switch w {
	case 1:
		span = uint64(rng.Intn(256))
		if rng.Intn(4) == 0 {
			span = 0 // constant
		}
	case 2:
		span = 256 + uint64(rng.Intn(1<<16-256))
	case 4:
		span = 1<<16 + uint64(rng.Int63n(1<<32-1<<16))
	default:
		span = 1<<32 + uint64(rng.Int63n(1<<40))
		if rng.Intn(3) == 0 {
			span = math.MaxUint64
		}
	}
	var ref int64
	switch rng.Intn(4) {
	case 0:
		ref = math.MinInt64
	case 1:
		ref = int64(uint64(math.MaxInt64) - span)
	case 2:
		ref = int64(rng.Intn(2000) - 1000)
	default:
		ref = rng.Int63() - 1<<62
	}
	offset := func() uint64 {
		if span == math.MaxUint64 {
			return rng.Uint64()
		}
		return uint64(rng.Int63n(int64(min(span, math.MaxInt64-1)) + 1))
	}
	pool := make([]uint64, 1+rng.Intn(12)) // few distinct values, so equality predicates hit
	for i := range pool {
		pool[i] = offset()
	}
	vals := make([]int64, n)
	for i := range vals {
		var off uint64
		switch {
		case i == 0:
		case i == 1:
			off = span
		case rng.Intn(3) == 0:
			off = offset()
		default:
			off = pool[rng.Intn(len(pool))]
		}
		vals[i] = int64(uint64(ref) + off)
	}
	rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sorted := rng.Intn(3) == 0
	if sorted {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	}
	tail := IntColumn(vals)
	tail.SetSorted(sorted)
	head := DenseColumn(Oid(rng.Intn(100)), n)
	if form := rng.Intn(3); form > 0 {
		oids := make([]Oid, n)
		for i := range oids {
			oids[i] = head.base + Oid(3*i)
		}
		if form == 2 {
			rng.Shuffle(n, func(i, j int) { oids[i], oids[j] = oids[j], oids[i] })
		}
		head = OidColumn(oids)
		head.SetSorted(form == 1)
	}
	wide := New("x", head, tail)
	c := narrowCase{what: fmt.Sprintf("width %d, span %d from %d, %d rows, sorted %v, %s", w, span, ref, n, sorted, head.kind), wide: wide, narrow: Narrow(wide), ref: ref}
	wantW := w
	switch n {
	case 0:
		wantW = 8 // nothing to narrow
	case 1:
		wantW = 1 // one value spans nothing
	}
	if wantW != 8 {
		c.maxCode = 1<<(8*wantW) - 1
	}
	if got := c.narrow.Tail().Width(); got != wantW {
		t.Fatalf("%s: Narrow chose width %d, want %d", c.what, got, wantW)
	}
	if wantW == 8 && c.narrow != wide {
		t.Fatalf("%s: Narrow of a column that needs 8 bytes did not return it", c.what)
	}
	return c
}

// literals are the bounds the property test draws from: the int64
// extremes, the column's reference and its neighbours, both ends of the
// width's code range, values of the column, and floats — integral,
// fractional and NaN — over them.
func (c narrowCase) literals(rng *rand.Rand) []any {
	ints := []int64{math.MinInt64, math.MaxInt64, c.ref - 1, c.ref, c.ref + 1,
		int64(uint64(c.ref) + c.maxCode), int64(uint64(c.ref) + c.maxCode + 1), int64(uint64(c.ref) + c.maxCode - 1)}
	for i := 0; i < 4 && c.wide.Len() > 0; i++ {
		ints = append(ints, c.wide.Tail().Int(rng.Intn(c.wide.Len())))
	}
	lits := []any{math.NaN(), int(c.ref)}
	for _, x := range ints {
		f := float64(x)
		lits = append(lits, x, f, f+0.5, f-0.5)
	}
	return lits
}

func (c narrowCase) bound(rng *rand.Rand, lits []any) *Bound {
	if rng.Intn(5) == 0 {
		return nil
	}
	return &Bound{Value: lits[rng.Intn(len(lits))], Inclusive: rng.Intn(2) == 0}
}

// sameWide holds a result computed over a narrow column to the one its
// wide twin gave: kinds, density, sorted flags and every value, after
// widening.
func sameWide(t *testing.T, what string, want, got *BAT) {
	t.Helper()
	got = Widen(got)
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d rows, wide answers %d", what, got.Len(), want.Len())
	}
	for _, side := range []struct {
		name string
		w, g *Column
	}{{"head", want.Head(), got.Head()}, {"tail", want.Tail(), got.Tail()}} {
		if side.w.Kind() != side.g.Kind() || side.w.Dense() != side.g.Dense() || side.w.Sorted() != side.g.Sorted() {
			t.Fatalf("%s: %s is %s dense=%v sorted=%v, wide answers %s dense=%v sorted=%v", what, side.name,
				side.g.Kind(), side.g.Dense(), side.g.Sorted(), side.w.Kind(), side.w.Dense(), side.w.Sorted())
		}
		for i := 0; i < want.Len(); i++ {
			if side.w.Value(i) != side.g.Value(i) {
				t.Fatalf("%s: %s row %d is %v, wide answers %v", what, side.name, i, side.g.Value(i), side.w.Value(i))
			}
		}
	}
}

// TestNarrowMatchesWide: every exported operator and aggregate answers
// over a narrowed column exactly what it answers over the wide one —
// on every width, at every edge literal, with the narrow column as tail
// and (reversed) as head.
func TestNarrowMatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 400; trial++ {
		c := genNarrowCase(t, rng, []int{1, 2, 4, 8}[trial%4])
		checkNarrowSelects(t, rng, c)
		checkNarrowOperators(t, rng, c)
	}
}

// checkNarrowSelects runs the range and equality selects over random
// bound pairs drawn from the case's literals.
func checkNarrowSelects(t *testing.T, rng *rand.Rand, c narrowCase) {
	t.Helper()
	lits := c.literals(rng)
	oids := []Oid{0, 1 << 40} // outside every head range
	for i := 0; i < c.wide.Len(); i++ {
		if rng.Intn(2) == 0 {
			oids = append(oids, c.wide.Head().Oid(i))
		}
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	cand := candList("c", oids)
	for k := 0; k < 40; k++ {
		lo, hi := c.bound(rng, lits), c.bound(rng, lits)
		what := fmt.Sprintf("%s, bounds %v..%v", c.what, lo, hi)
		sameWide(t, what+": Select", c.wide.Select(lo, hi), c.narrow.Select(lo, hi))
		sameWide(t, what+": USelect", c.wide.USelect(lo, hi), c.narrow.USelect(lo, hi))
		sameWide(t, what+": USelectCand", c.wide.USelectCand(cand, lo, hi), c.narrow.USelectCand(cand, lo, hi))
		lit := lits[rng.Intn(len(lits))]
		if _, nan := lit.(float64); !nan || !math.IsNaN(lit.(float64)) {
			sameWide(t, fmt.Sprintf("%s: SelectEq(%v)", what, lit), c.wide.SelectEq(lit), c.narrow.SelectEq(lit))
			sameWide(t, fmt.Sprintf("%s: SelectNe(%v)", what, lit), c.wide.SelectNe(lit), c.narrow.SelectNe(lit))
		}
	}
}

// checkNarrowOperators runs everything but the selects once per case.
func checkNarrowOperators(t *testing.T, rng *rand.Rand, c narrowCase) {
	t.Helper()
	w, nb, n := c.wide, c.narrow, c.wide.Len()
	what := c.what
	same := func(op string, want, got *BAT) { t.Helper(); sameWide(t, what+": "+op, want, got) }
	scalar := func(op string, want, got any) {
		t.Helper()
		if want != got {
			t.Fatalf("%s: %s = %v, wide answers %v", what, op, got, want)
		}
	}

	scalar("Count", w.Count(), nb.Count())
	scalar("Bytes", w.Bytes()-w.Tail().Bytes()+n*nb.Tail().Width(), nb.Bytes())
	scalar("Dump", w.Dump(8), nb.Dump(8))
	if n > 0 {
		scalar("Sum", w.Sum(), nb.Sum())
		scalar("Min", w.Min(), nb.Min())
		scalar("Max", w.Max(), nb.Max())
		scalar("Avg", w.Avg(), nb.Avg())
	}
	same("Widen", w, nb)
	same("Copy", w, nb.Copy())
	from := rng.Intn(n + 1)
	to := from + rng.Intn(n-from+1)
	same("Slice", w.Slice(from, to), nb.Slice(from, to))
	same("SortT", w.SortT(false), nb.SortT(false))
	same("SortT desc", w.SortT(true), nb.SortT(true))
	same("TopN", w.TopN(3, true), nb.TopN(3, true))
	same("UniqueT", w.UniqueT(), nb.UniqueT())
	same("SelectFunc", w.SelectFunc(func(v any) bool { return v.(int64)%3 == 0 }), nb.SelectFunc(func(v any) bool { return v.(int64)%3 == 0 }))
	same("Reverse.Reverse", w, nb.Reverse().Reverse())
	same("MarkT", w.MarkT(7), nb.MarkT(7))
	same("Union", w.Union(w), nb.Union(nb))
	same("Union mixed", w.Union(w), nb.Union(w))
	same("EqRows", w.EqRows(w), nb.EqRows(w))

	// Another column of the same values in another order, wide and
	// narrow: the build side of joins, the probe side of semijoins.
	perm := rng.Perm(n)
	vals := make([]int64, n)
	for i, p := range perm {
		vals[i] = w.Tail().Int(p)
	}
	other := MakeInts("o", vals)
	for _, o := range []*BAT{other, Narrow(other)} {
		same("EqRows other", w.EqRows(other), nb.EqRows(o))
		same("Join", w.Join(other.Reverse()), nb.Join(o.Reverse()))
		same("reversed Join", other.Join(w.Reverse()), o.Join(nb.Reverse()))
		same("reversed Semijoin", w.Reverse().Semijoin(other.Reverse()), nb.Reverse().Semijoin(o.Reverse()))
		same("reversed Diff", w.Reverse().Diff(other.Reverse()), nb.Reverse().Diff(o.Reverse()))
		groups, _ := o.GroupIDs()
		same("GroupedSum", GroupedSum(groups, w), GroupedSum(groups, nb))
		same("GroupedAvg", GroupedAvg(groups, w), GroupedAvg(groups, nb))
		same("GroupedMin", GroupedMin(groups, w), GroupedMin(groups, nb))
		same("GroupedMax", GroupedMax(groups, w), GroupedMax(groups, nb))
		wr, wreps := GroupDerive(groups, w)
		nr, nreps := GroupDerive(groups, nb)
		same("GroupDerive", wr, nr)
		same("GroupDerive reps", wreps, nreps)
		same("MulIF", MulIF(w, other), MulIF(nb, o))
		same("AddF", AddF(w, other), AddF(nb, o))
	}
	wg, wreps := w.GroupIDs()
	ng, nreps := nb.GroupIDs()
	same("GroupIDs", wg, ng)
	same("GroupIDs reps", wreps, nreps)
	wg, wreps = w.GroupIDsPos()
	ng, nreps = nb.GroupIDsPos()
	same("GroupIDsPos", wg, ng)
	same("GroupIDsPos reps", wreps, nreps)
	same("ConstMinusF", ConstMinusF(1.5, w), ConstMinusF(1.5, nb))
	same("ConstPlusF", ConstPlusF(1.5, w), ConstPlusF(1.5, nb))

	// The positional fetch: OIDs into the narrow column's dense head,
	// some past either end, in any order; and the candidate list the
	// served plans fetch through.
	if w.Head().Dense() {
		base := int(w.Head().Base())
		pos := make([]Oid, rng.Intn(2*n+2))
		for i := range pos {
			pos[i] = Oid(max(0, base-2+rng.Intn(n+4)))
		}
		p := MakeOids("p", pos)
		same("fetch Join", p.Join(w), p.Join(nb))
		same("Project", p.Project(w), p.Project(nb))
		cand := w.Slice(from, to).Mirror()
		same("candidate fetch", cand.Join(w), cand.Join(nb))
		same("dense fetch", New("d", DenseColumn(0, to-from), DenseColumn(Oid(base+from), to-from)).Join(w),
			New("d", DenseColumn(0, to-from), DenseColumn(Oid(base+from), to-from)).Join(nb))
	}

	// Fragments narrowed one by one — each its own reference and width —
	// concatenate to the wide column.
	var wparts, nparts []*BAT
	for at := 0; at < n; {
		next := at + 1 + rng.Intn(n-at)
		wparts = append(wparts, w.Slice(at, next))
		nparts = append(nparts, Narrow(w.Slice(at, next)))
		at = next
	}
	if len(wparts) > 0 {
		same("Concat", Concat(wparts), Concat(nparts))
		all := ConcatAll([][]*BAT{nparts, wparts})
		same("ConcatAll", Concat(wparts), all[0])
		if len(nparts) > 1 && all[0].Tail().Width() != 8 {
			t.Fatalf("%s: a concat of %d narrow fragments is %d bytes wide, want wide", what, len(nparts), all[0].Tail().Width())
		}
	}

	// The wire carries the width and the reference, and the decoded
	// column is narrow still.
	data := AppendMarshal(nil, nb)
	if len(data) != MarshalSize(nb) {
		t.Fatalf("%s: encoded %d bytes, MarshalSize says %d", what, len(data), MarshalSize(nb))
	}
	got, err := UnmarshalView(data)
	if err != nil {
		t.Fatalf("%s: UnmarshalView: %v", what, err)
	}
	if got.Tail().Width() != nb.Tail().Width() {
		t.Fatalf("%s: decoded width %d, sent %d", what, got.Tail().Width(), nb.Tail().Width())
	}
	same("wire", w, got)
	// Span reports the decoded payload's bytes, which lie in data: how a
	// caller that lends data out tells that the column is a view of it.
	if n > 0 {
		lo, hi := got.Tail().Span()
		dlo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		if lo < dlo || hi > dlo+uintptr(len(data)) || hi-lo != uintptr(n*got.Tail().Width()) {
			t.Fatalf("%s: decoded tail spans [%#x, %#x), want %d bytes inside the message [%#x, %#x)",
				what, lo, hi, n*got.Tail().Width(), dlo, dlo+uintptr(len(data)))
		}
	}
}

// TestNarrowAppendTurnsWide: appending to a narrow column widens it, so
// a value outside its width fits.
func TestNarrowAppendTurnsWide(t *testing.T) {
	b := Narrow(MakeInts("a", []int64{10, 11, 12}))
	if b.Tail().Width() != 1 {
		t.Fatalf("width %d, want 1", b.Tail().Width())
	}
	b.Tail().Append(int64(1 << 40))
	if b.Tail().Width() != 8 || b.Tail().Len() != 4 || b.Tail().Int(0) != 10 || b.Tail().Int(3) != 1<<40 {
		t.Fatalf("after append: width %d, %v", b.Tail().Width(), intsOf(New("a", DenseColumn(0, 4), b.Tail())))
	}
}
