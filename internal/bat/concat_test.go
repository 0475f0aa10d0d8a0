package bat

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randColumn builds a random materialized column of the given kind.
// sorted asks for genuinely sorted data plus the flag.
func randColumn(rng *rand.Rand, kind Kind, n int, sorted bool) *Column {
	c := &Column{kind: kind}
	switch kind {
	case KOid:
		v := make([]Oid, n)
		for i := range v {
			v[i] = Oid(rng.Intn(1000))
		}
		if sorted {
			for i := 1; i < n; i++ {
				if v[i] < v[i-1] {
					v[i] = v[i-1]
				}
			}
		}
		c.oids = v
	case KInt:
		v := make([]int64, n)
		for i := range v {
			v[i] = int64(rng.Intn(2000) - 1000)
		}
		if sorted {
			for i := 1; i < n; i++ {
				if v[i] < v[i-1] {
					v[i] = v[i-1]
				}
			}
		}
		c.ints = v
	case KFloat:
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * 100
		}
		if sorted {
			for i := 1; i < n; i++ {
				if v[i] < v[i-1] {
					v[i] = v[i-1]
				}
			}
		}
		c.floats = v
	case KStr:
		v := make([]string, n)
		for i := range v {
			v[i] = string(rune('a' + rng.Intn(26)))
			if rng.Intn(4) == 0 {
				v[i] += "xyz"
			}
		}
		if sorted {
			for i := 1; i < n; i++ {
				if v[i] < v[i-1] {
					v[i] = v[i-1]
				}
			}
		}
		c.strs = v
	case KBool:
		v := make([]bool, n)
		for i := range v {
			v[i] = rng.Intn(2) == 0
		}
		if sorted {
			for i := 1; i < n; i++ {
				if v[i-1] && !v[i] {
					v[i] = true
				}
			}
		}
		c.bools = v
	}
	c.sorted = sorted
	return c
}

// randBAT builds a random BAT: dense or materialized OID head, any tail
// kind, optionally sorted tail.
func randBAT(rng *rand.Rand, n int) *BAT {
	var h *Column
	if rng.Intn(2) == 0 {
		h = DenseColumn(Oid(rng.Intn(100)), n)
	} else {
		h = randColumn(rng, KOid, n, false)
	}
	kinds := []Kind{KOid, KInt, KFloat, KStr, KBool}
	t := randColumn(rng, kinds[rng.Intn(len(kinds))], n, rng.Intn(2) == 0)
	return New("prop", h, t)
}

// randSplit cuts [0,n) at random boundaries, allowing empty and
// single-row fragments.
func randSplit(rng *rand.Rand, b *BAT) []*BAT {
	n := b.Len()
	cuts := []int{0}
	for k := rng.Intn(6); k > 0; k-- {
		cuts = append(cuts, rng.Intn(n+1))
	}
	cuts = append(cuts, n)
	// insertion-sort the few cut points
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	var frags []*BAT
	for i := 1; i < len(cuts); i++ {
		frags = append(frags, b.Slice(cuts[i-1], cuts[i]))
	}
	return frags
}

func colsEqual(t *testing.T, what string, a, c *Column) {
	t.Helper()
	if a.Kind() != c.Kind() {
		t.Fatalf("%s: kind %s != %s", what, a.Kind(), c.Kind())
	}
	if a.Len() != c.Len() {
		t.Fatalf("%s: len %d != %d", what, a.Len(), c.Len())
	}
	if a.Dense() != c.Dense() {
		t.Fatalf("%s: dense %v != %v", what, a.Dense(), c.Dense())
	}
	if a.Dense() && a.Base() != c.Base() {
		t.Fatalf("%s: base %d != %d", what, a.Base(), c.Base())
	}
	if a.Sorted() != c.Sorted() {
		t.Fatalf("%s: sorted %v != %v", what, a.Sorted(), c.Sorted())
	}
	for i := 0; i < a.Len(); i++ {
		if !a.equalAt(i, c, i) {
			t.Fatalf("%s: row %d: %v != %v", what, i, a.Value(i), c.Value(i))
		}
	}
}

// TestConcatRoundtripProperty is the fragment/concat round-trip law:
// for any BAT and any fragmentation, Concat(fragments) preserves
// values, sorted/dense properties, and the wire encoding
// (Marshal(Concat(frags)) ≡ Marshal(column)).
func TestConcatRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40) // includes 0- and 1-row columns
		b := randBAT(rng, n)
		frags := randSplit(rng, b)
		got := Concat(frags)
		colsEqual(t, "head", b.Head(), got.Head())
		colsEqual(t, "tail", b.Tail(), got.Tail())
		if got.Name != b.Name {
			t.Fatalf("name %q != %q", got.Name, b.Name)
		}
		wantWire := AppendMarshal(nil, b)
		gotWire := AppendMarshal(nil, got)
		if !bytes.Equal(wantWire, gotWire) {
			t.Fatalf("trial %d (%s, %d frags): wire encoding differs after concat",
				trial, b, len(frags))
		}
	}
}

// TestConcatDenseFusion: adjacent dense fragments fuse back into one
// dense column, bit-identical to the original descriptor.
func TestConcatDenseFusion(t *testing.T) {
	b := New("d", DenseColumn(7, 100), DenseColumn(1000, 100))
	var frags []*BAT
	for _, sp := range [][2]int{{0, 10}, {10, 10}, {10, 64}, {64, 100}} {
		frags = append(frags, b.Slice(sp[0], sp[1]))
	}
	got := Concat(frags)
	if !got.Head().Dense() || got.Head().Base() != 7 || got.Head().Len() != 100 {
		t.Fatalf("head not fused dense: %v base=%d n=%d", got.Head().Dense(), got.Head().Base(), got.Head().Len())
	}
	if !got.Tail().Dense() || got.Tail().Base() != 1000 {
		t.Fatalf("tail not fused dense")
	}
}

// TestConcatNonAdjacentDenseMaterializes: dense pieces with a gap (as
// per-fragment selects produce when a fragment matched nothing) cannot
// fuse but must still concatenate correctly.
func TestConcatNonAdjacentDenseMaterializes(t *testing.T) {
	a := New("g", DenseColumn(0, 3), IntColumn([]int64{1, 2, 3}))
	c := New("g", DenseColumn(10, 2), IntColumn([]int64{4, 5}))
	got := Concat([]*BAT{a, c})
	if got.Head().Dense() {
		t.Fatal("gap head fused dense")
	}
	want := []Oid{0, 1, 2, 10, 11}
	for i, w := range want {
		if got.Head().Oid(i) != w {
			t.Fatalf("head[%d] = %d, want %d", i, got.Head().Oid(i), w)
		}
	}
	if !got.Head().Sorted() {
		t.Fatal("ordered boundary lost sortedness")
	}
}

// TestConcatSortedBoundary: sortedness survives only ordered
// boundaries, and an unsorted input never gains the flag.
func TestConcatSortedBoundary(t *testing.T) {
	mk := func(vals ...int64) *BAT {
		b := MakeInts("s", vals)
		b.Tail().SetSorted(true)
		return b
	}
	if !Concat([]*BAT{mk(1, 2), mk(2, 3)}).Tail().Sorted() {
		t.Fatal("ordered boundary should keep sorted")
	}
	if Concat([]*BAT{mk(1, 5), mk(2, 3)}).Tail().Sorted() {
		t.Fatal("disordered boundary kept sorted flag")
	}
	// Empty middle fragment does not break the boundary chain.
	if !Concat([]*BAT{mk(1, 2), mk(), mk(2, 3)}).Tail().Sorted() {
		t.Fatal("empty fragment broke sortedness")
	}
	unsorted := MakeInts("u", []int64{1, 2, 3})
	if Concat([]*BAT{unsorted.Slice(0, 2), unsorted.Slice(2, 3)}).Tail().Sorted() {
		t.Fatal("concat invented a sorted flag the source never had")
	}
}

// TestConcatSingleAndEmpty covers the degenerate shapes.
func TestConcatSingleAndEmpty(t *testing.T) {
	b := MakeInts("one", []int64{1, 2, 3})
	got := Concat([]*BAT{b})
	if got.Len() != 3 || got.Tail().Int(2) != 3 {
		t.Fatalf("single concat = %s", got.Dump(5))
	}
	empty := MakeInts("none", nil)
	if got := Concat([]*BAT{empty, empty}); got.Len() != 0 {
		t.Fatalf("empty concat has %d rows", got.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Concat(nil) did not panic")
		}
	}()
	Concat(nil)
}

// TestConcatKindMismatchPanics keeps shape errors loud, like the other
// kernel operators.
func TestConcatKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	Concat([]*BAT{MakeInts("a", []int64{1}), MakeStrs("b", []string{"x"})})
}

// TestConcatSingleZeroCopyAlias: a single-fragment Concat is a
// zero-copy alias of the fragment — the returned BAT shares the
// fragment's column storage outright (no payload copy, no index
// indirection) and preserves every property.
func TestConcatSingleZeroCopyAlias(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5}
	b := MakeInts("frag", vals)
	got := Concat([]*BAT{b})
	if got == b {
		t.Fatal("Concat returned the fragment itself, not a view")
	}
	if got.Head() != b.Head() || got.Tail() != b.Tail() {
		t.Fatal("single-fragment Concat did not alias the fragment's columns")
	}
	if &got.Tail().ints[0] != &b.Tail().ints[0] {
		t.Fatal("tail payload was copied")
	}
	if !got.Head().Dense() || got.Head().Base() != b.Head().Base() {
		t.Fatal("dense head property lost")
	}
	if got.Len() != b.Len() || got.Name != b.Name {
		t.Fatal("shape or name lost")
	}

	sorted := MakeInts("s", []int64{1, 2, 2, 9})
	sorted.Tail().sorted = true
	if !Concat([]*BAT{sorted}).Tail().Sorted() {
		t.Fatal("sorted flag lost through single-fragment Concat")
	}
}

// TestConcatSingleAllocs pins the allocation contract: a
// single-fragment Concat allocates exactly the one view struct —
// nothing proportional to the data.
func TestConcatSingleAllocs(t *testing.T) {
	b := MakeInts("frag", make([]int64, 1<<16))
	frags := []*BAT{b}
	allocs := testing.AllocsPerRun(100, func() {
		if Concat(frags).Len() != 1<<16 {
			t.Fatal("bad concat")
		}
	})
	if allocs > 1 {
		t.Fatalf("single-fragment Concat allocates %.0f objects, want ≤1 (zero-copy view)", allocs)
	}
}

// BenchmarkConcatSingle documents the zero-copy fast path next to the
// materializing multi-fragment gather.
func BenchmarkConcatSingle(b *testing.B) {
	frag := MakeInts("frag", make([]int64, 1<<20))
	frags := []*BAT{frag}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Concat(frags).Len() != 1<<20 {
			b.Fatal("bad concat")
		}
	}
}

// BenchmarkConcatPair is the two-fragment baseline the single-fragment
// alias path is measured against (one exact-size gather allocation).
func BenchmarkConcatPair(b *testing.B) {
	col := MakeInts("col", make([]int64, 1<<20))
	frags := []*BAT{col.Slice(0, 1<<19), col.Slice(1<<19, 1<<20)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Concat(frags).Len() != 1<<20 {
			b.Fatal("bad concat")
		}
	}
}

// TestConcatKeepsCodes: fragments narrowed one by one — each with its
// own reference and width, some empty, their boundaries ordered or not —
// concatenate to the values and sorted flag of the wide concat, to the
// bit for decimals. The merge keeps codes exactly when every non-empty
// fragment is narrow at one exponent and the rebased codes fit in 32
// bits, and then in the width the whole column narrows to; a wide
// fragment, mixed exponents or a wider span decode to wide.
func TestConcatKeepsCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	seen := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		decimal := trial%2 == 1
		sorted := rng.Intn(2) == 0
		var wparts, nparts []*BAT
		var next int64 // a sorted column's running value
		base := rng.Int63n(1<<40) - 1<<39
		for p := 1 + rng.Intn(6); p > 0; p-- {
			var vals []int64
			if rng.Intn(5) > 0 {
				vals = make([]int64, 1+rng.Intn(40))
			}
			// Each fragment lies at its own offset from base, in a span
			// of 1, 2 or 4 bytes; one in eight is 33 bits away.
			ref := base + rng.Int63n(1<<17)
			if rng.Intn(8) == 0 {
				ref += 1 << 33
			}
			span := []int64{1 << 8, 1 << 16, 1 << 20}[rng.Intn(3)]
			for i := range vals {
				vals[i] = ref + rng.Int63n(span)
			}
			if sorted {
				slices.Sort(vals)
				if rng.Intn(4) > 0 { // keep the boundary ordered
					for i := range vals {
						vals[i] = max(vals[i], next)
					}
				}
				if len(vals) > 0 {
					next = vals[len(vals)-1]
				}
			}
			var w *BAT
			if decimal {
				exp := 2
				switch rng.Intn(12) {
				case 0:
					exp = 1 // a mixed exponent
				case 1:
					exp = -1 // a value no decimal holds: the fragment stays wide
				}
				f := make([]float64, len(vals))
				for i, k := range vals {
					f[i] = float64(k) / pow10[max(exp, 0)]
				}
				if exp < 0 && len(f) > 0 {
					f[rng.Intn(len(f))] = math.Pi
				}
				if sorted {
					slices.Sort(f)
				}
				w = MakeFloats("c", f)
			} else {
				w = MakeInts("c", vals)
			}
			w.Tail().SetSorted(sorted)
			wparts = append(wparts, w)
			nparts = append(nparts, Narrow(w))
		}
		kept, widths := true, map[int]bool{}
		var exp uint8
		first := true
		for _, np := range nparts {
			c := np.Tail()
			if c.Len() == 0 {
				seen["empty fragment"]++
				continue
			}
			switch {
			case c.narrow == nil:
				kept = false
				seen["wide fragment"]++
			case !first && c.exp != exp:
				kept = false
				seen["mixed exponents"]++
			}
			widths[c.Width()], exp, first = true, c.exp, false
		}
		want := Concat(wparts)
		got := Concat(nparts)
		what := fmt.Sprintf("trial %d (decimal %v, %d fragments)", trial, decimal, len(nparts))
		colsEqual(t, what, want.Tail(), Widen(got).Tail())
		if decimal {
			for i := 0; i < want.Len(); i++ {
				if math.Float64bits(want.Tail().Float(i)) != math.Float64bits(got.Tail().Float(i)) {
					t.Fatalf("%s: row %d decodes to %v, want %v", what, i, got.Tail().Float(i), want.Tail().Float(i))
				}
			}
		}
		wantW := 8
		if kept && !first {
			wantW = Narrow(want).Tail().Width()
		}
		if gw := got.Tail().Width(); gw != wantW {
			t.Fatalf("%s: merged %d bytes wide, want %d", what, gw, wantW)
		}
		if nc := got.Tail().narrow; nc != nil {
			for i := 0; i < nc.len(); i++ {
				if uint64(nc.at(i)-nc.ref()) > uint64(nc.top()) {
					t.Fatalf("%s: row %d's code %d is past the merged bound %d", what, i, nc.at(i)-nc.ref(), nc.top())
				}
			}
		}
		switch {
		case kept && !first && wantW == 8:
			seen["span past 32 bits"]++
		case wantW < 8 && len(widths) > 1:
			seen["codes kept, mixed widths"]++
		}
		if wantW < 8 && sorted {
			if want.Tail().Sorted() {
				seen["codes kept, sorted"]++
			} else {
				seen["codes kept, boundary unordered"]++
			}
		}
	}
	for _, c := range []string{"empty fragment", "wide fragment", "mixed exponents", "span past 32 bits",
		"codes kept, mixed widths", "codes kept, sorted", "codes kept, boundary unordered"} {
		if seen[c] == 0 {
			t.Errorf("no trial covered %q", c)
		}
	}
}
