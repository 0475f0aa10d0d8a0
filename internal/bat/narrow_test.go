package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// narrowCase is one int or float column and its narrowed twin: wide
// holds the values 8 bytes wide, narrow the same values in the width
// Narrow chose.
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
	if span == math.MaxUint64 {
		ref = math.MinInt64 // offsets from any other reference wrap: 0 and span would be adjacent values
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
	wide := New("x", narrowHead(rng, n), tail)
	c := narrowCase{what: fmt.Sprintf("width %d, span %d from %d, %d rows, sorted %v, %s", w, span, ref, n, sorted, wide.Head().Kind()), wide: wide, narrow: Narrow(wide), ref: ref}
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
	if nc := c.narrow.Tail().narrow; nc != nil && n > 1 && uint64(nc.top()) != span {
		t.Fatalf("%s: Narrow bounds the codes at %d, want the span %d", c.what, nc.top(), span)
	}
	if wantW == 8 && c.narrow != wide {
		t.Fatalf("%s: Narrow of a column that needs 8 bytes did not return it", c.what)
	}
	return c
}

// genDecimalCase builds an n-row float BAT of exact decimals k / 10^exp,
// the k spanning what width w holds (8: more than 32 bits) from a
// reference of either sign, and its Narrow twin. A width-1 column is
// sometimes constant, exp is sometimes 0 (integral floats), and poison
// puts one value no decimal column holds into a random row: the column
// must then stay wide, as it must at width 8.
func genDecimalCase(t *testing.T, rng *rand.Rand, w int, poison bool) narrowCase {
	t.Helper()
	n := rng.Intn(70)
	exp := []int{0, 1, 2, 2, 3, 6}[rng.Intn(6)]
	var span int64
	switch w {
	case 1:
		span = int64(rng.Intn(256))
		if rng.Intn(4) == 0 {
			span = 0 // constant
		}
	case 2:
		span = 256 + rng.Int63n(1<<16-256)
	case 4:
		span = 1<<16 + rng.Int63n(1<<32-1<<16)
	default:
		span = 1<<32 + rng.Int63n(1<<38)
	}
	ref := []int64{0, -span / 2, -span - 7, rng.Int63n(1 << 39), -rng.Int63n(1 << 39)}[rng.Intn(5)]
	pool := make([]int64, 1+rng.Intn(12)) // few distinct values, so equality predicates hit
	for i := range pool {
		pool[i] = ref + rng.Int63n(span+1)
	}
	ks := make([]int64, n)
	for i := range ks {
		switch {
		case i == 0:
			ks[i] = ref
		case i == 1:
			ks[i] = ref + span
		case rng.Intn(3) == 0:
			ks[i] = ref + rng.Int63n(span+1)
		default:
			ks[i] = pool[rng.Intn(len(pool))]
		}
	}
	// The exponent Narrow must find is the smallest at which every k is
	// whole: |k| < 2^40, so no two decimals of that size share a float.
	for e := exp; e > 0; e-- {
		whole := true
		for _, k := range ks {
			whole = whole && k%10 == 0
		}
		if !whole {
			break
		}
		for i := range ks {
			ks[i] /= 10
		}
		exp, span = exp-1, span/10
	}
	vals := make([]float64, n)
	for i, k := range ks {
		vals[i] = float64(k) / pow10[exp]
	}
	what := fmt.Sprintf("decimal width %d, span %d from %d at 10^-%d, %d rows", w, span, ref, exp, n)
	wantW := []int{8, 1, 2, 8, 4, 8, 8, 8, 8}[w]
	switch {
	case n == 0:
		wantW = 8
	case poison:
		odd := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -1e-310,
			1<<53 + 1, tenth + 0.2, 1e300}[rng.Intn(9)]
		vals[rng.Intn(n)] = odd
		what += fmt.Sprintf(", poisoned with %v", odd)
		wantW = 8
	case n == 1:
		wantW = 1
	}
	rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sorted := rng.Intn(3) == 0
	if sorted {
		sort.Float64s(vals)
	}
	tail := FloatColumn(vals)
	tail.SetSorted(sorted)
	wide := New("x", narrowHead(rng, n), tail)
	c := narrowCase{what: fmt.Sprintf("%s, sorted %v, %s", what, sorted, wide.Head().Kind()), wide: wide, narrow: Narrow(wide)}
	if got := c.narrow.Tail().Width(); got != wantW {
		t.Fatalf("%s: Narrow chose width %d, want %d", c.what, got, wantW)
	}
	if wantW == 8 && c.narrow != wide {
		t.Fatalf("%s: Narrow of a column that stays wide did not return it", c.what)
	}
	if got := c.narrow.Tail().exp; wantW != 8 && int(got) != exp {
		t.Fatalf("%s: Narrow chose exponent %d, want %d", c.what, got, exp)
	}
	return c
}

// genStrCase builds an n-row string BAT and its Narrow twin. Form 0 is
// one value, form 1 every row distinct (n·1 + 16·n is never below 16·n,
// so it stays plain), any other form a few values from a pool that may
// hold the empty string; a third of the columns are sorted. Narrow must
// code exactly the columns whose codes and dictionary take fewer bytes
// than the strings' headers, into a sorted dictionary of their values.
func genStrCase(t *testing.T, rng *rand.Rand, form int) narrowCase {
	t.Helper()
	n := rng.Intn(70)
	words := []string{"", "A", "AIR", "B", "BUILDING", "F", "N", "O", "R", "RAIL", "REG AIR", "a", "\x00", "\xff"}
	vals := make([]string, n)
	switch form {
	case 0:
		v := words[rng.Intn(len(words))]
		for i := range vals {
			vals[i] = v
		}
	case 1:
		for i, p := range rng.Perm(n) {
			vals[i] = fmt.Sprintf("%c%d", 'A'+p%26, p)
		}
	default:
		pool := make([]string, 1+rng.Intn(8))
		for i := range pool {
			pool[i] = words[rng.Intn(len(words))]
		}
		for i := range vals {
			vals[i] = pool[rng.Intn(len(pool))]
		}
	}
	sorted := rng.Intn(3) == 0
	if sorted {
		sort.Strings(vals)
	}
	tail := StrColumn(vals)
	tail.SetSorted(sorted)
	wide := New("s", narrowHead(rng, n), tail)
	c := narrowCase{what: fmt.Sprintf("strings form %d, %d rows, sorted %v, %s", form, n, sorted, wide.Head().Kind()), wide: wide, narrow: Narrow(wide)}
	distinct := map[string]bool{}
	for _, v := range vals {
		distinct[v] = true
	}
	d := len(distinct)
	got := c.narrow.Tail()
	switch wantDict := n > 0 && n*dictWidth(d)+strHeader*d < strHeader*n; {
	case got.narrow != nil != wantDict:
		t.Fatalf("%s: %d distinct values coded %v, want %v", c.what, d, got.narrow != nil, wantDict)
	case !wantDict && c.narrow != wide:
		t.Fatalf("%s: Narrow of a column that stays plain did not return it", c.what)
	case wantDict && (len(got.dict) != d || !sort.StringsAreSorted(got.dict) || got.narrow.top() != uint32(d-1) || got.Width() != dictWidth(d)):
		t.Fatalf("%s: dictionary %q (bound %d, width %d) for %d distinct values", c.what, got.dict, got.narrow.top(), got.Width(), d)
	}
	return c
}

// strLiterals are a string column's bounds: values of the column and the
// strings just below and just above each, the empty string, and strings
// below or above every value.
func (c narrowCase) strLiterals(rng *rand.Rand) []any {
	lits := []any{"", "\x00", "0", "BUILDING", "Q", "ZZZ", "\xff\xff"}
	t := c.wide.Tail()
	for i := 0; i < 4 && t.Len() > 0; i++ {
		v := t.Str(rng.Intn(t.Len()))
		lits = append(lits, v, v+"\x00")
		if v != "" {
			lits = append(lits, v[:len(v)-1])
		}
	}
	return lits
}

// tenth is 0.1 held in a variable: tenth+0.2 is the float64 sum
// 0.30000000000000004, where the constant 0.1+0.2 would be 0.3.
var tenth = 0.1

// narrowHead is a head for n rows: dense, ascending with gaps, or the
// same shuffled.
func narrowHead(rng *rand.Rand, n int) *Column {
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
	return head
}

// literals are the bounds the property test draws from: the int64
// extremes, the column's reference and its neighbours, both ends of the
// width's code range, values of the column, and floats — integral,
// fractional and NaN — over them. A float column draws decimalLiterals.
func (c narrowCase) literals(rng *rand.Rand) []any {
	switch c.wide.Tail().Kind() {
	case KFloat:
		return c.decimalLiterals(rng)
	case KStr:
		return c.strLiterals(rng)
	}
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

// decimalLiterals are a float column's: values of the column and the
// floats one ulp either side of each, the point half-way to the next
// code, the infinities and NaN, and ints — the whole number near a value,
// and values past every code.
func (c narrowCase) decimalLiterals(rng *rand.Rand) []any {
	step := 1 / pow10[c.narrow.Tail().exp]
	lits := []any{math.Inf(-1), math.Inf(1), math.NaN(), 0.0, int64(0), int(-1), int64(1 << 41), int64(-1 << 41)}
	t := c.wide.Tail()
	for i := 0; i < 4 && t.Len() > 0; i++ {
		v := t.Float(rng.Intn(t.Len()))
		lits = append(lits, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)), v+step/2)
		if math.Abs(v) < 1<<62 {
			lits = append(lits, int64(math.Round(v)), math.Floor(v))
		}
	}
	return lits
}

func (c narrowCase) bound(rng *rand.Rand, lits []any) *Bound {
	if rng.Intn(5) == 0 {
		return nil
	}
	return &Bound{Value: lits[rng.Intn(len(lits))], Inclusive: rng.Intn(2) == 0}
}

// sameValue is == for every kind but float64, which must agree to the
// bit: -0.0 is not 0, and NaN is itself.
func sameValue(a, b any) bool {
	if x, ok := a.(float64); ok {
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}

// sameWide holds a result computed over a narrow column to the one its
// wide twin gave: kinds, density, sorted flags and every value, to the
// bit, after widening.
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
		if side.w.Kind() != side.g.Kind() || side.w.Dense() != side.g.Dense() || side.w.Sorted() != side.g.Sorted() ||
			side.w.Width() != side.g.Width() {
			t.Fatalf("%s: %s is %s dense=%v sorted=%v width=%d, wide answers %s dense=%v sorted=%v width=%d", what, side.name,
				side.g.Kind(), side.g.Dense(), side.g.Sorted(), side.g.Width(), side.w.Kind(), side.w.Dense(), side.w.Sorted(), side.w.Width())
		}
		for i := 0; i < want.Len(); i++ {
			if !sameValue(side.w.Value(i), side.g.Value(i)) {
				t.Fatalf("%s: %s row %d is %v, wide answers %v", what, side.name, i, side.g.Value(i), side.w.Value(i))
			}
		}
	}
}

// TestNarrowMatchesWide: every exported operator and aggregate answers
// over a narrowed column exactly what it answers over the wide one — to
// the bit for floats — on every width, at every edge literal, with the
// narrow column as tail and (reversed) as head; for int columns, for
// decimal float ones, some of them poisoned so they must stay wide, and
// for string columns and their dictionary twins.
func TestNarrowMatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 400; trial++ {
		w := []int{1, 2, 4, 8}[trial%4]
		for _, c := range []narrowCase{genNarrowCase(t, rng, w), genDecimalCase(t, rng, w, trial%5 == 0), genStrCase(t, rng, trial%5)} {
			checkNarrowSelects(t, rng, c)
			checkNarrowOperators(t, rng, c)
		}
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
	num := w.Tail().Kind() != KStr
	what := c.what
	same := func(op string, want, got *BAT) { t.Helper(); sameWide(t, what+": "+op, want, got) }
	scalar := func(op string, want, got any) {
		t.Helper()
		if !sameValue(want, got) {
			t.Fatalf("%s: %s = %v, wide answers %v", what, op, got, want)
		}
	}

	scalar("Count", w.Count(), nb.Count())
	if num {
		scalar("Bytes", w.Bytes()-w.Tail().Bytes()+n*nb.Tail().Width(), nb.Bytes())
	}
	scalar("Dump", w.Dump(8), nb.Dump(8))
	if n > 0 {
		scalar("Min", w.Min(), nb.Min())
		scalar("Max", w.Max(), nb.Max())
	}
	if n > 0 && num {
		scalar("Sum", w.Sum(), nb.Sum())
		scalar("Avg", w.Avg(), nb.Avg())
	}
	same("Widen", w, nb)
	same("Copy", w, nb.Copy())
	from := rng.Intn(n + 1)
	to := from + rng.Intn(n-from+1)
	same("Slice", w.Slice(from, to), nb.Slice(from, to))
	same("SortT", w.SortT(false), nb.SortT(false))
	same("SortT desc", w.SortT(true), nb.SortT(true))
	same("Reverse.Reverse", w, nb.Reverse().Reverse())
	same("MarkT", w.MarkT(7), nb.MarkT(7))
	same("EqRows", w.EqRows(w), nb.EqRows(w))

	// Another column of the same values in another order, wide and
	// narrow: the build side of joins, the probe side of semijoins.
	other := New("o", DenseColumn(0, n), w.Tail().take(rng.Perm(n)))
	for _, o := range []*BAT{other, Narrow(other)} {
		same("EqRows other", w.EqRows(other), nb.EqRows(o))
		same("Join", w.Join(other.Reverse()), nb.Join(o.Reverse()))
		same("reversed Join", other.Join(w.Reverse()), o.Join(nb.Reverse()))
		same("reversed Semijoin", w.Reverse().Semijoin(other.Reverse()), nb.Reverse().Semijoin(o.Reverse()))
		groups, _ := o.GroupIDs()
		same("GroupedMin", GroupedMin(groups, w), GroupedMin(groups, nb))
		same("GroupedMax", GroupedMax(groups, w), GroupedMax(groups, nb))
		wr, wreps := GroupDerive(groups, w)
		nr, nreps := GroupDerive(groups, nb)
		same("GroupDerive", wr, nr)
		same("GroupDerive reps", wreps, nreps)
		if num {
			same("GroupedSum", GroupedSum(groups, w), GroupedSum(groups, nb))
			same("GroupedAvg", GroupedAvg(groups, w), GroupedAvg(groups, nb))
		}
	}
	wg, wreps := w.GroupIDs()
	ng, nreps := nb.GroupIDs()
	same("GroupIDs", wg, ng)
	same("GroupIDs reps", wreps, nreps)
	wg, wreps = w.GroupIDsPos()
	ng, nreps = nb.GroupIDsPos()
	same("GroupIDsPos", wg, ng)
	same("GroupIDsPos reps", wreps, nreps)

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
		cand := w.Slice(from, to).Mirror()
		same("candidate fetch", cand.Join(w), cand.Join(nb))
		same("dense fetch", New("d", DenseColumn(0, to-from), DenseColumn(Oid(base+from), to-from)).Join(w),
			New("d", DenseColumn(0, to-from), DenseColumn(Oid(base+from), to-from)).Join(nb))
	}

	// Fragments narrowed one by one — each its own reference and width,
	// or its own dictionary — concatenate to the wide column's values.
	// When every fragment is narrow at one exponent the merge keeps
	// codes, as narrow as the whole column narrows, and so do dictionary
	// fragments that share one dictionary; a wide fragment (a poisoned
	// one, a plain string one), mixed exponents, unequal dictionaries, or
	// a span past 32 bits (width 8) leave it wide. Views of one narrow
	// column share its reference or dictionary and keep its codes.
	var wparts, nparts, views []*BAT
	codesKept := true
	for at := 0; at < n; {
		next := at + 1 + rng.Intn(n-at)
		wparts = append(wparts, w.Slice(at, next))
		np := Narrow(w.Slice(at, next))
		nparts = append(nparts, np)
		views = append(views, nb.Slice(at, next))
		codesKept = codesKept && np.Tail().narrow != nil && np.Tail().exp == nparts[0].Tail().exp &&
			slices.Equal(np.Tail().dict, nparts[0].Tail().dict)
		at = next
	}
	if len(wparts) > 0 {
		wcat := Concat(wparts)
		same("Concat", wcat, Concat(nparts))
		all := ConcatAll([][]*BAT{nparts, wparts}, nil)
		same("ConcatAll", wcat, all[0])
		vcat := Concat(views)
		same("Concat views", wcat, vcat)
		if vcat.Tail().Width() != nb.Tail().Width() {
			t.Fatalf("%s: a concat of %d views of a %d-byte column is %d bytes wide", what, len(views), nb.Tail().Width(), vcat.Tail().Width())
		}
		want := w.Tail().Width()
		if codesKept {
			want = Narrow(wcat).Tail().Width()
		}
		if got := all[0].Tail().Width(); got != want {
			t.Fatalf("%s: a concat of %d narrow fragments (codes kept %v) is %d bytes wide, want %d",
				what, len(nparts), codesKept, got, want)
		}
	}

	// The wire carries the width, the reference, the exponent and the
	// bound on the codes, and the decoded column is narrow still.
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
	if nc := nb.Tail().narrow; nc != nil && n > 0 && got.Tail().narrow.top() != nc.top() {
		t.Fatalf("%s: decoded code bound %d, sent %d", what, got.Tail().narrow.top(), nc.top())
	}
	same("wire", w, got)
	// Span reports the decoded payload's bytes, which lie in data: how a
	// caller that lends data out tells that the column is a view of it.
	// A plain string column's values are copied out of data.
	if n > 0 && got.Tail().Width() > 0 {
		lo, hi := got.Tail().Span()
		dlo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
		if lo < dlo || hi > dlo+uintptr(len(data)) || hi-lo != uintptr(n*got.Tail().Width()) {
			t.Fatalf("%s: decoded tail spans [%#x, %#x), want %d bytes inside the message [%#x, %#x)",
				what, lo, hi, n*got.Tail().Width(), dlo, dlo+uintptr(len(data)))
		}
	}
}

// TestDecimalNarrowing: what Narrow makes of named float columns — the
// TPC-H generator's, integral, constant and sorted ones — and the values
// that keep a column wide, alone and among decimals.
func TestDecimalNarrowing(t *testing.T) {
	gen := func(n int, f func(k int) float64) []float64 {
		v := make([]float64, n)
		for k := range v {
			v[k] = f(k)
		}
		return v
	}
	for _, c := range []struct {
		what   string
		vals   []float64
		sorted bool
		width  int
		exp    uint8
	}{
		{"l_discount", gen(11, func(k int) float64 { return float64(k) / 100 }), true, 1, 2},
		{"l_extendedprice", gen(10000, func(k int) float64 { return float64(90000+k) / 100 }), false, 2, 2},
		{"c_acctbal", gen(1000, func(k int) float64 { return float64(k*997)/100 - 999 }), false, 8, 0},
		{"integral", []float64{3, -7, 1e6}, false, 4, 0},
		{"constant", []float64{2.5, 2.5, 2.5}, true, 1, 1},
		{"negative sorted", []float64{-1.25, -0.5, 0, 0.75}, true, 1, 2},
		{"span past uint32", []float64{0, 4294967.296}, false, 8, 0},
		{"-0.0", []float64{math.Copysign(0, -1)}, false, 8, 0},
		{"NaN", []float64{math.NaN()}, false, 8, 0},
		{"+Inf", []float64{math.Inf(1)}, false, 8, 0},
		{"-Inf", []float64{math.Inf(-1)}, false, 8, 0},
		{"subnormal", []float64{5e-324}, false, 8, 0},
		{"2^53+1", []float64{1<<53 + 1}, false, 8, 0},
		{"0.1+0.2", []float64{tenth + 0.2}, false, 8, 0},
		{"1e300", []float64{1e300}, false, 8, 0},
		{"decimals and -0.0", []float64{0.25, math.Copysign(0, -1), 1.5}, false, 8, 0},
		{"decimals and NaN", []float64{0.25, 1.5, math.NaN()}, false, 8, 0},
		{"decimals and 0.1+0.2", []float64{0.1, tenth + 0.2}, false, 8, 0},
	} {
		wide := MakeFloats(c.what, c.vals)
		wide.Tail().SetSorted(c.sorted)
		nb := Narrow(wide)
		if got := nb.Tail().Width(); got != c.width || nb.Tail().exp != c.exp {
			t.Errorf("%s: width %d at 10^-%d, want %d at 10^-%d", c.what, got, nb.Tail().exp, c.width, c.exp)
			continue
		}
		if c.width == 8 && nb != wide {
			t.Errorf("%s: stays wide, but Narrow did not return b itself", c.what)
		}
		sameWide(t, c.what+": Widen(Narrow)", wide, nb)
		if nb.Tail().Bytes() != len(c.vals)*c.width {
			t.Errorf("%s: %d bytes, want %d", c.what, nb.Tail().Bytes(), len(c.vals)*c.width)
		}
	}
}

// FuzzDecimal: a float column from arbitrary bit patterns answers on
// its Narrow twin what it answers wide. form bit 0 clear makes every
// value a decimal k / 10^exp with k a sign-extended 32-bit word, and the
// column must narrow; set, a value whose bit 32 is set is the raw float64
// of its 8 bytes instead, and the column narrows only if every value is
// a decimal. Widen(Narrow(b)) is b to the bit, and Sum, Min, Max and the
// range selects — on the fuzzed bounds, and inclusive or exclusive at a
// value of the column and one ulp either side — agree.
func FuzzDecimal(f *testing.F) {
	le := func(words ...uint64) []byte {
		b := make([]byte, 0, 8*len(words))
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	raw := func(f float64) uint64 { return math.Float64bits(f) | 1<<32 } // a float near f, taken as it is
	f.Add(le(5, 7, 0, 10, 6), uint8(2), 0.05, 0.07, uint8(0x0c))
	f.Add(le(90000, 99999, 93456), uint8(2), 900.0, 950.5, uint8(0x06))
	f.Add(le(raw(0.3), 4), uint8(1), math.Inf(-1), 0.3, uint8(0x05))
	f.Add(le(raw(math.NaN()), 3), uint8(0), math.NaN(), 1.0, uint8(0x01))
	f.Add(le(0xffffffff, 0x7fffffff, 0x80000000), uint8(22), -1e-13, 1e-13, uint8(0x02))
	f.Fuzz(func(t *testing.T, data []byte, exp uint8, lo, hi float64, form uint8) {
		scale := pow10[int(exp)%len(pow10)]
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			x := binary.LittleEndian.Uint64(data)
			if form&1 == 0 || x&(1<<32) == 0 {
				vals = append(vals, decode(int64(int32(x)), scale))
			} else {
				vals = append(vals, math.Float64frombits(x))
			}
		}
		tail := FloatColumn(vals)
		if form&2 != 0 && sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) &&
			!slices.ContainsFunc(vals, math.IsNaN) {
			tail.SetSorted(true)
		}
		wide := New("f", DenseColumn(7, len(vals)), tail)
		nb := Narrow(wide)
		if form&1 == 0 && len(vals) > 0 && nb.Tail().Width() == 8 {
			t.Fatalf("%d decimals at 10^-%d stayed wide", len(vals), int(exp)%len(pow10))
		}
		sameWide(t, "Widen(Narrow)", wide, nb)
		if len(vals) > 0 {
			for _, op := range []struct {
				name      string
				want, got any
			}{{"Sum", wide.Sum(), nb.Sum()}, {"Min", wide.Min(), nb.Min()}, {"Max", wide.Max(), nb.Max()}} {
				if !sameValue(op.want, op.got) {
					t.Fatalf("%s = %v, wide answers %v", op.name, op.got, op.want)
				}
			}
		}
		lits := []float64{lo, hi}
		if len(vals) > 0 {
			v := vals[int(form>>4)%len(vals)]
			lits = append(lits, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
		}
		cand := wide.Slice(len(vals)/3, len(vals)).Mirror()
		for i, l := range lits {
			for _, h := range lits[i:] {
				for _, incl := range [][2]bool{{true, true}, {false, true}, {true, false}, {form&4 != 0, form&8 != 0}} {
					lb, hb := &Bound{Value: l, Inclusive: incl[0]}, &Bound{Value: h, Inclusive: incl[1]}
					for _, b := range [][2]*Bound{{lb, hb}, {lb, nil}, {nil, hb}} {
						what := fmt.Sprintf("bounds %v..%v", b[0], b[1])
						sameWide(t, what+": Select", wide.Select(b[0], b[1]), nb.Select(b[0], b[1]))
						sameWide(t, what+": USelect", wide.USelect(b[0], b[1]), nb.USelect(b[0], b[1]))
						sameWide(t, what+": USelectCand", wide.USelectCand(cand, b[0], b[1]), nb.USelectCand(cand, b[0], b[1]))
					}
				}
			}
		}
	})
}
