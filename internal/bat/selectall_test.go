package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// conjForms are the physical forms a conjunction's columns are drawn in:
// 1- and 2-byte int codes, decimals at exponents 0–3 (1- or 2-byte
// codes), dictionary strings (1-byte codes, and 2-byte ones where the
// column is long enough), and what the bitmap kernel does not take —
// 4-byte codes, wide ints and floats with NaN, ±Inf and −0.0.
var conjForms = []string{"int/1", "int/2", "int/4", "dec/0", "dec/1", "dec/2", "dec/3", "dict/1", "dict/2", "wide/int", "wide/float"}

// drawConjTail draws n values of form as a wide tail, and the literals
// to draw its limits from: values of the column and their neighbours,
// the edges of its code range and past them, and the type's extremes.
func drawConjTail(rng *rand.Rand, form string, n int) (tail *Column, lits []any) {
	switch form {
	case "int/1", "int/2", "int/4":
		top := map[string]int64{"int/1": 1<<8 - 1, "int/2": 1<<16 - 1, "int/4": 1 << 24}[form]
		const ref = 19920101
		v := make([]int64, n)
		for i := range v {
			v[i] = ref + rng.Int63n(top+1)
		}
		if n >= 2 && rng.Intn(2) == 0 {
			v[0], v[n-1] = ref, ref+top // codes of the full width
		}
		lits = []any{int64(ref - 1), int64(ref), int64(ref + 1), ref + top/2, ref + top - 1, ref + top, ref + top + 1,
			int64(math.MinInt64), int64(math.MaxInt64), float64(ref) + 7.5, float64(ref) - 0.5}
		for k := 0; k < 4 && n > 0; k++ {
			x := v[rng.Intn(n)]
			lits = append(lits, x, x-1, x+1)
		}
		return IntColumn(v), lits
	case "dec/0", "dec/1", "dec/2", "dec/3":
		scale := pow10[form[4]-'0']
		k0, span := rng.Int63n(200)-100, []int64{200, 60000}[rng.Intn(2)]
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(k0+rng.Int63n(span+1)) / scale
		}
		lits = []any{math.Inf(-1), math.Inf(1), 0.0, math.Copysign(0, -1), int64(0),
			float64(k0) / scale, float64(k0-1) / scale, float64(k0+span) / scale, float64(k0+span+1) / scale}
		for k := 0; k < 4 && n > 0; k++ {
			x := v[rng.Intn(n)]
			lits = append(lits, x, x+0.5/scale, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)), int64(math.Round(x)))
		}
		return FloatColumn(v), lits
	case "dict/1", "dict/2":
		d := 7
		if form == "dict/2" {
			d = 400
		}
		words := make([]string, d)
		for i := range words {
			words[i] = fmt.Sprintf("%c%03d", 'B'+i%24, i)
		}
		v := make([]string, n)
		for i := range v {
			v[i] = words[rng.Intn(d)]
		}
		lits = []any{"", "A", "B", "M", "Z", words[0], words[d-1], words[rng.Intn(d)], words[rng.Intn(d)] + "!"}
		return StrColumn(v), lits
	case "wide/int":
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63() - 1<<62
		}
		lits = []any{int64(math.MinInt64), int64(math.MaxInt64), int64(0)}
		for k := 0; k < 4 && n > 0; k++ {
			x := v[rng.Intn(n)]
			lits = append(lits, x, x+1)
		}
		return IntColumn(v), lits
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64() * 1e6
		}
	}
	lits = []any{0.0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1e6}
	for k := 0; k < 4 && n > 0; k++ {
		if x := v[rng.Intn(n)]; !math.IsNaN(x) {
			lits = append(lits, x)
		}
	}
	return FloatColumn(v), lits
}

// drawConjTerm draws one term over n rows of the given form: the column
// narrowed as Narrow decides, headed by [base, base+n) — or, for a view,
// cut out of a longer column so its codes start past the payload's
// first byte — with limits drawn from the form's literals, either side
// open at times.
func drawConjTerm(rng *rand.Rand, form string, n int, base Oid, view bool) Term {
	off := 0
	if view {
		off = 1 + rng.Intn(7)
	}
	tail, lits := drawConjTail(rng, form, off+n)
	b := Narrow(New(form, DenseColumn(base-Oid(off), off+n), tail)).Slice(off, off+n)
	bound := func() *Bound {
		if rng.Intn(6) == 0 {
			return nil
		}
		return &Bound{Value: lits[rng.Intn(len(lits))], Inclusive: rng.Intn(2) == 0}
	}
	return Term{B: b, Lo: bound(), Hi: bound()}
}

// Shapes of a drawn conjunction.
const (
	conjCoded    = iota // every column in 1- or 2-byte codes, aligned dense heads
	conjAny             // any form, aligned dense heads
	conjBase            // one column's head starts elsewhere
	conjLength          // one column is a row longer or shorter
	conjNotDense        // one column's head is a materialized OID list
	conjSorted          // one column's tail is sorted
	conjShapes
)

// drawConj draws a conjunction of 1–4 terms over n rows in the given
// shape.
func drawConj(rng *rand.Rand, n, shape int) []Term {
	codedForms := []string{"int/1", "int/2", "dec/0", "dec/1", "dec/2", "dec/3", "dict/1", "dict/2"}
	base := Oid(0)
	if rng.Intn(2) == 0 {
		base = 1<<40 + 3
	}
	view := rng.Intn(2) == 0
	terms := make([]Term, 1+rng.Intn(4))
	for i := range terms {
		form := conjForms[rng.Intn(len(conjForms))]
		if shape == conjCoded {
			form = codedForms[rng.Intn(len(codedForms))]
		}
		terms[i] = drawConjTerm(rng, form, n, base, view)
	}
	odd := &terms[rng.Intn(len(terms))]
	switch shape {
	case conjBase:
		*odd = drawConjTerm(rng, odd.B.Name, n, base+1+Oid(rng.Intn(40)), view)
	case conjLength:
		*odd = drawConjTerm(rng, odd.B.Name, max(0, n+rng.Intn(3)-1), base, view)
	case conjNotDense:
		oids := make([]Oid, n)
		for i := range oids {
			oids[i] = base + Oid(i)
		}
		h := OidColumn(oids)
		h.SetSorted(true)
		odd.B = New(odd.B.Name, h, odd.B.t)
	case conjSorted:
		t := odd.B.t.widened().clone()
		switch t.kind {
		case KInt:
			slices.Sort(t.ints)
		case KFloat:
			slices.Sort(t.floats)
		case KStr:
			slices.Sort(t.strs)
		}
		t.sorted = true
		odd.B = Narrow(New(odd.B.Name, odd.B.h, t))
	}
	return terms
}

// conjChain is SelectAll's definition worked row by row, the oracle the
// select tests hold the kernels to: each term's rows in range
// (selectGeneric, which shares no kernel with them), of which a later
// term keeps the heads an earlier one kept. It answers the chain's
// candidate list; every drawn head ascends.
func conjChain(terms []Term) *BAT {
	keep := headOids(terms[0].B.selectGeneric(terms[0].Lo, terms[0].Hi))
	for _, t := range terms[1:] {
		in := headOids(t.B.selectGeneric(t.Lo, t.Hi))
		keep = slices.DeleteFunc(keep, func(o Oid) bool {
			_, found := slices.BinarySearch(in, o)
			return !found
		})
	}
	return candList(terms[len(terms)-1].B.Name, keep)
}

// conjTakesCodes reports whether the bitmap kernel takes terms: every head
// dense over the first one's rows, every tail unsorted 1- or 2-byte
// codes. (Every drawn literal normalizes to its column's kind.)
func conjTakesCodes(terms []Term) bool {
	h := terms[0].B.h
	for _, t := range terms {
		th, w := t.B.h, t.B.t.Width()
		if !th.dense || th.base != h.base || th.n != h.n || t.B.t.narrow == nil || w > 2 || t.B.t.Sorted() {
			return false
		}
	}
	return true
}

// checkConj holds SelectAll to the chain: the same OIDs, ascending, as
// a candidate list. It reports whether the bitmap answered, which it
// must for every shape conjTakesCodes names, whatever the CPU runs.
func checkConj(t *testing.T, what string, terms []Term) (coded bool) {
	t.Helper()
	want := headOids(conjChain(terms))
	got := SelectAll(terms)
	if !slices.Equal(headOids(got), want) || !slices.Equal(headOids(got.Reverse()), want) {
		t.Fatalf("%s: SelectAll %v\nchain %v\n%s", what, headOids(got), want, describeConj(terms))
	}
	if !got.h.Sorted() {
		t.Fatalf("%s: the list is not marked sorted", what)
	}
	if _, coded = codeTerms(nil, terms); coded != conjTakesCodes(terms) {
		t.Fatalf("%s: the bitmap answered %v, want %v\n%s", what, coded, !coded, describeConj(terms))
	}
	m := SelectMask(terms, nil)
	if !slices.Equal(headOids(m.List()), want) || m.Count() != int64(len(want)) {
		t.Fatalf("%s: SelectMask keeps %v (count %d)\nchain %v\n%s", what, headOids(m.List()), m.Count(), want, describeConj(terms))
	}
	return coded
}

// rejectKernels are the settings that pick each rejection kernel
// where the CPU runs it: the term-table kernel (AVX-512), the AVX2
// blocks and the word test (rejectWords).
var rejectKernels = []struct{ avx2, vbmi2 bool }{{true, true}, {true, false}, {false, false}}

// withRejectKernels runs f under each of rejectKernels, the CPU's own
// flags restored afterwards.
func withRejectKernels(f func()) {
	avx2, vbmi2 := haveAVX2, haveVBMI2
	defer func() { haveAVX2, haveVBMI2 = avx2, vbmi2 }()
	for _, k := range rejectKernels {
		haveAVX2, haveVBMI2 = avx2 && k.avx2, vbmi2 && k.vbmi2
		f()
	}
}

func describeConj(terms []Term) string {
	s := ""
	for _, t := range terms {
		bound := func(b *Bound) string {
			if b == nil {
				return "open"
			}
			return fmt.Sprintf("%v (incl %v)", b.Value, b.Inclusive)
		}
		s += fmt.Sprintf("  %s: %d rows, head dense %v base %d, width %d, sorted %v, lo %s, hi %s\n",
			t.B.Name, t.B.Len(), t.B.h.dense, t.B.h.base, t.B.t.Width(), t.B.t.Sorted(), bound(t.Lo), bound(t.Hi))
	}
	return s
}

// TestSelectAllMatchesChain draws conjunctions in every shape at 0, 1,
// 31, 32, 33 rows (no whole AVX2 block, one, one and a row), 63, 64, 65
// and 129 (around whole words), 255, 256, 257 and 458 (around the
// term-table kernel's 256-row block, and a block with three words and
// a part-word after it), a spread of small sizes and 64K+5 rows (a
// fragment and a tail), over every physical form, with limits inside,
// at the edges of and outside each column's codes, contradictory ones
// and open sides, and holds SelectAll and SelectMask to the chain —
// under each of rejectKernels the CPU runs.
func TestSelectAllMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	sizes := []int{0, 1, 31, 32, 33, 63, 64, 65, 129, 255, 256, 257, 458, 64<<10 + 5}
	for i := 0; i < 12; i++ {
		sizes = append(sizes, rng.Intn(300))
	}
	coded := 0
	withRejectKernels(func() {
		for _, n := range sizes {
			reps := 12
			if n > 1<<16 {
				reps = 2
			}
			for shape := 0; shape < conjShapes; shape++ {
				for r := 0; r < reps; r++ {
					what := fmt.Sprintf("AVX2 %v, VBMI2 %v, n=%d, shape %d, rep %d", haveAVX2, haveVBMI2, n, shape, r)
					if checkConj(t, what, drawConj(rng, n, shape)) {
						coded++
					}
				}
			}
		}
	})
	if coded < 100 {
		t.Errorf("the bitmap kernel answered %d conjunctions, want ≥ 100", coded)
	}
}

// FuzzSelectAll: the fuzzer picks the shape, the size and the seed the
// terms are drawn from, and the codes of a first 1-, 2- or 4-byte term
// outright, read little-endian from data, with limits at any two codes;
// the first term's codes start off (mod 8) codes into their payload, so
// most word loads are unaligned. Under each of rejectKernels SelectAll
// and SelectMask (the term-table kernel's bitmap exit on a VBMI2 CPU)
// are held to the chain, and so is SelectSum of the first term's
// column (its compress exit).
func FuzzSelectAll(f *testing.F) {
	f.Add([]byte{0x00, 0x7f, 0x80, 0xff, 0x10, 0x90}, int64(1), uint8(0), uint8(0), uint16(33), uint32(0x10), uint32(0x8f))
	f.Add([]byte{0xff, 0xff, 0x00, 0x00, 0x01, 0x80}, int64(2), uint8(1), uint8(0), uint16(64), uint32(0), uint32(0xffff))
	f.Add([]byte{}, int64(3), uint8(2), uint8(0), uint16(0), uint32(5), uint32(4))
	f.Add([]byte{0x05}, int64(4), uint8(3), uint8(0), uint16(1), uint32(5), uint32(5))
	codes8 := []byte{0x00, 0x7f, 0x80, 0xff, 0x10, 0x90, 0x7e, 0x81, 0x01, 0xfe, 0x40}
	codes16 := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0x7fff_8000_4e1f_ee2a), 0xffff_0000_8001_7ffe)
	f.Add(codes8, int64(5), uint8(0), uint8(3), uint16(8), uint32(0x10), uint32(0x8f))
	f.Add(codes8, int64(6), uint8(1), uint8(1), uint16(10), uint32(0x10), uint32(0x90))
	f.Add(codes16, int64(7), uint8(6), uint8(5), uint16(3), uint32(20000), uint32(29999))
	f.Add(codes16, int64(8), uint8(7), uint8(0), uint16(8), uint32(0), uint32(0x8000))
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x8000_0000_7fff_ffff), int64(9), uint8(12), uint8(7), uint16(2), uint32(1), uint32(0x8000_0000))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, sel, off uint8, rows uint16, clo, chi uint32) {
		rng := rand.New(rand.NewSource(seed))
		n := int(rows) % 600
		terms := drawConj(rng, n, int(sel)%conjShapes)
		w := []int{1, 2, 4}[int(sel/conjShapes)%3]
		o := int(off % 8)
		h := terms[0].B.h
		codes := make([]uint64, o+h.Len())
		for i := range codes {
			for j := 0; j < w && len(data) > 0; j++ {
				codes[i] |= uint64(data[(i*w+j)%len(data)]) << (8 * j)
			}
		}
		top := uint64(1)<<(8*w) - 1
		lo := &Bound{Value: int64(codeScanRef + uint64(clo)&top), Inclusive: sel&64 == 0}
		hi := &Bound{Value: int64(codeScanRef + uint64(chi)&top), Inclusive: sel&128 == 0}
		first := New("fuzzed", DenseColumn(h.base, h.Len()), codeColumn(w, codes).view(o, len(codes)))
		if !h.dense {
			first = New("fuzzed", h, first.t)
		}
		terms = append([]Term{{B: first, Lo: lo, Hi: hi}}, terms...)
		withRejectKernels(func() {
			what := fmt.Sprintf("seed %d, sel %d, off %d, n=%d, AVX2 %v, VBMI2 %v", seed, sel, off, n, haveAVX2, haveVBMI2)
			checkConj(t, what, terms)
			checkSelectSum(t, what, terms, first)
		})
	})
}

// TestKernelsReport logs which kernels this CPU runs and which one
// fills the rejection bitmap for Q6's three terms — the term-table
// kernel (AVX-512 VBMI2), the AVX2 blocks or the word test — so a run's
// log says what its select tests exercised. The terms must take the
// bitmap.
func TestKernelsReport(t *testing.T) {
	ds, fs, qs, _ := q6Parts()
	terms := []Term{{ds[0], q6DateLo, q6DateHi}, {fs[0], q6DiscLo, q6DiscHi}, {qs[0], nil, q6QtyHi}}
	cts, ok := codeTerms(nil, terms)
	if !ok {
		t.Fatal("the rejection bitmap does not take Q6's terms")
	}
	kernel := "the word test (rejectWords)"
	switch {
	case haveVBMI2 && len(cts) <= maxWordTerms:
		kernel = "the term-table kernel (selectWords)"
	case haveAVX2:
		kernel = "the AVX2 blocks (rejectBlocks8/16)"
	case !hostLittle:
		kernel = "the one-compare loop"
	}
	t.Logf("haveAVX2=%v haveVBMI2=%v: Q6's %d terms take %s", haveAVX2, haveVBMI2, len(cts), kernel)
}

// TestSelectAllAllocs: a three-term conjunction over one 64K-row
// fragment in codes allocates the OID list and the candidate list's two
// descriptors, nothing else: the bitmap is pooled scratch, and no OID
// scratch is written and copied out.
func TestSelectAllAllocs(t *testing.T) {
	ds, fs, qs, _ := q6Parts()
	terms := []Term{{ds[0], q6DateLo, q6DateHi}, {fs[0], q6DiscLo, q6DiscHi}, {qs[0], nil, q6QtyHi}}
	if _, ok := codeTerms(nil, terms); !ok {
		t.Fatal("the bitmap kernel does not take Q6's terms")
	}
	if allocs := testing.AllocsPerRun(100, func() { benchSink = SelectAll(terms) }); allocs > 3 {
		t.Errorf("SelectAll allocates %v times, want ≤ 3", allocs)
	}
}

// TestSelectSumAllocs: the served Q6's per-fragment SelectSum over one
// 64K-row fragment in codes sets up its term table, tests and sums with
// no allocation of its own: the kept codes are pooled scratch, and the
// one allocation is the sum it returns, boxed.
func TestSelectSumAllocs(t *testing.T) {
	if !haveVBMI2 {
		t.Skip("no VBMI2: SelectSum runs its definition")
	}
	ds, fs, qs, ps := q6Parts()
	terms := []Term{{ds[0], q6DateLo, q6DateHi}, {fs[0], q6DiscLo, q6DiscHi}, {qs[0], nil, q6QtyHi}}
	if allocs := testing.AllocsPerRun(100, func() { benchSink, _ = SelectSum(ps[0], terms, nil) }); allocs > 1 {
		t.Errorf("SelectSum allocates %v times, want ≤ 1", allocs)
	}
}
