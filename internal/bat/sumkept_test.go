package bat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sumForms are the tails a sum at a mask is drawn in: int codes of 1, 2
// and 4 bytes and decimal codes, which SumKept gathers, and wide ints
// and floats, which run its definition.
var sumForms = []string{"int/1", "int/2", "int/4", "dec/0", "dec/2", "dec/3", "wide/int", "wide/float"}

// sumKeptStats counts what TestSumKeptMatchesJoinSum reached: sums
// that gathered kept codes, bitmaps that keep no row, and of those the
// ones a missed range left partly written.
type sumKeptStats struct {
	gathered, emptied, missed int
}

// checkSumKept holds SumKept(col, SelectMask(terms, a)) to its
// definition, SelectAll(terms).Join(col).Sum(), to the bit, and the
// mask's count to the list's length. The mask draws from an arena
// released after the check, so a later check reads poison where a
// bitmap was left unwritten.
func checkSumKept(t *testing.T, what string, terms []Term, col *BAT, st *sumKeptStats) {
	t.Helper()
	list := SelectAll(terms)
	want := list.Join(col).Sum()
	var a Arena
	defer a.Release()
	m := SelectMask(terms, &a)
	got := SumKept(col, m)
	if !sameValue(got, want) {
		t.Fatalf("%s: SumKept %v (%T), definition %v (%T)\n%s", what, got, got, want, want, describeConj(terms))
	}
	if m.Count() != int64(list.Len()) {
		t.Fatalf("%s: the mask counts %d rows, the list holds %d", what, m.Count(), list.Len())
	}
	if m.rej == nil {
		return
	}
	if m.kept > 0 && col.h.dense && col.h.base == m.base && col.h.n == m.n && col.t.narrow != nil {
		st.gathered++
	}
	if m.kept == 0 && m.n > 0 {
		st.emptied++
		if _, miss := rejectCodes(mustCodeTerms(terms), make([]uint64, len(m.rej))); miss {
			st.missed++
		}
	}
}

// TestSumKeptMatchesJoinSum draws sums over 1-, 2- and 4-byte int
// codes, decimal codes and wide columns, at conjunctions over 0–300
// rows, around whole words and over 64K+5 rows, columns and selections
// as views at offsets or not, with limits that keep most rows, some,
// none, or miss every code; and holds SumKept to the definition under
// each of rejectKernels, so the compress kernels gather or not.
func TestSumKeptMatchesJoinSum(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	sizes := []int{0, 1, 33, 63, 64, 65, 129, 64<<10 + 5}
	for i := 0; i < 10; i++ {
		sizes = append(sizes, rng.Intn(300))
	}
	var st sumKeptStats
	withRejectKernels(func() {
		for _, n := range sizes {
			reps := 10
			if n > 1<<16 {
				reps = 2
			}
			for r := 0; r < reps; r++ {
				shape := conjCoded
				if r%5 == 4 {
					shape = rng.Intn(conjShapes)
				}
				terms := drawConj(rng, n, shape)
				h := terms[0].B.h
				switch r % 4 {
				case 1: // every row rejected, each term's range holding codes
					c := drawConjTerm(rng, "int/1", n, h.base, rng.Intn(2) == 0).B
					mid := int64(codeScanRef + 128)
					terms = append(terms, Term{B: c, Hi: &Bound{Value: mid}}, Term{B: c, Lo: &Bound{Value: mid, Inclusive: true}})
				case 2: // a range past every code, after the terms have written rej
					c := drawConjTerm(rng, "int/2", n, h.base, rng.Intn(2) == 0).B
					terms = append(terms, Term{B: c, Lo: &Bound{Value: int64(math.MaxInt64)}})
				case 3: // one range keeping most rows
					c := drawConjTerm(rng, "int/1", n, h.base, rng.Intn(2) == 0).B
					terms = []Term{{B: c, Lo: &Bound{Value: int64(codeScanRef + 20)}, Hi: &Bound{Value: int64(codeScanRef + 200)}}}
				}
				for _, form := range sumForms {
					col := drawConjTerm(rng, form, h.Len(), h.base, rng.Intn(2) == 0).B
					if !h.dense {
						col = New(col.Name, h, col.t)
					}
					what := fmt.Sprintf("AVX2 %v, VBMI2 %v, n=%d, shape %d, rep %d, sum over %s", haveAVX2, haveVBMI2, n, shape, r, form)
					checkSumKept(t, what, terms, col, &st)
				}
			}
		}
	})
	t.Logf("%+v", st)
	if st.gathered < 500 || st.emptied < 50 || st.missed < 20 {
		t.Errorf("reached %d gathered sums (want ≥ 500), %d emptied bitmaps (≥ 50), %d missed ranges (≥ 20)", st.gathered, st.emptied, st.missed)
	}
}

// selectSumStats counts what TestSelectSumMatchesDefinition reached:
// sums the term-table kernel answered, and of those the ones over kept
// rows, conjunctions longer than its table that ran the definition,
// answers that keep no row, and of those the ones a missed range
// decided.
type selectSumStats struct {
	fused, fusedKept, long, emptied, missed int
}

// checkSelectSum holds SelectSum(col, terms, a) to its definition,
// SumKept(col, SelectMask(terms, a)) and the mask's count, to the bit,
// and to the chain's list: its Join(col).Sum() and its length. It
// reports whether the term-table kernel answered, which it must exactly
// when the CPU runs VBMI2, the bitmap kernel takes at most
// maxWordTerms terms and SumKept would gather col's codes.
func checkSelectSum(t *testing.T, what string, terms []Term, col *BAT) (fused bool) {
	t.Helper()
	var a Arena
	defer a.Release()
	m := SelectMask(terms, &a)
	wantSum, wantCount := SumKept(col, m), m.Count()
	list := conjChain(terms)
	if chain := list.Join(col).Sum(); !sameValue(wantSum, chain) || wantCount != int64(list.Len()) {
		t.Fatalf("%s: the definition sums %v over %d rows, the chain %v over %d\n%s", what, wantSum, wantCount, chain, list.Len(), describeConj(terms))
	}
	sum, count := SelectSum(col, terms, &a)
	if !sameValue(sum, wantSum) || count != wantCount {
		t.Fatalf("%s: SelectSum %v (%T) over %d rows, definition %v (%T) over %d\n%s", what, sum, sum, count, wantSum, wantSum, wantCount, describeConj(terms))
	}
	h := terms[0].B.h
	takes := haveVBMI2 && len(terms) <= maxWordTerms && conjTakesCodes(terms) &&
		col.h.dense && col.h.base == h.base && col.h.n == h.n && col.t.narrow != nil && (col.t.kind == KInt || col.t.kind == KFloat)
	_, _, fused = selectSumWords(col, terms)
	if fused != takes {
		t.Fatalf("%s: the term-table kernel answered %v, want %v\n%s", what, fused, takes, describeConj(terms))
	}
	return fused
}

// TestSelectSumMatchesDefinition draws conjunctions of 1 to
// maxWordTerms+2 coded terms — 1- and 2-byte ints, decimals and
// dictionary codes, as views at offsets or not — over 0, 1, 63, 64, 65,
// 255, 257 and 389 rows (around the kernel's 256-row block; two words
// and a part-word past it), 65,536 and 65,573, and sums over 1-, 2- and
// 4-byte int and decimal codes at them, some with a materialized head;
// some conjunctions keep most rows, some reject every row with ranges
// that hold codes, some miss every code with a range. SelectSum is held
// to its definition under each of rejectKernels: with VBMI2 the
// term-table kernel answers up to maxWordTerms terms, and longer
// conjunctions fall back.
func TestSelectSumMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	sizes := []int{0, 1, 63, 64, 65, 255, 257, 389, 64 << 10, 64<<10 + 37}
	termForms := []string{"int/1", "int/2", "dec/0", "dec/2", "dec/3", "dict/1", "dict/2"}
	sumForms := []string{"int/1", "int/2", "int/4", "dec/0", "dec/2", "dec/3"}
	var st selectSumStats
	withRejectKernels(func() {
		for _, n := range sizes {
			reps := 8
			if n > 1<<10 {
				reps = 2
			}
			for k := 1; k <= maxWordTerms+2; k++ {
				for r := 0; r < reps; r++ {
					base := Oid(0)
					if rng.Intn(2) == 0 {
						base = 1<<40 + 3
					}
					view := rng.Intn(2) == 0
					terms := make([]Term, k)
					for i := range terms {
						terms[i] = drawConjTerm(rng, termForms[rng.Intn(len(termForms))], n, base, view)
					}
					switch r % 4 {
					case 0: // ranges keeping most rows
						for i := range terms {
							if rng.Intn(3) > 0 {
								c := drawConjTerm(rng, []string{"int/1", "int/2"}[rng.Intn(2)], n, base, view).B
								terms[i] = Term{B: c, Lo: &Bound{Value: int64(codeScanRef + 20)}, Hi: &Bound{Value: int64(codeScanRef + 60000)}}
							}
						}
					case 1: // every row rejected, each term's range holding codes
						if k >= 2 {
							c := drawConjTerm(rng, "int/1", n, base, view).B
							mid := int64(codeScanRef + 128)
							terms[k-2], terms[k-1] = Term{B: c, Hi: &Bound{Value: mid}}, Term{B: c, Lo: &Bound{Value: mid, Inclusive: true}}
						}
					case 2: // a range past every code
						c := drawConjTerm(rng, "int/2", n, base, view).B
						terms[rng.Intn(k)] = Term{B: c, Lo: &Bound{Value: int64(math.MaxInt64)}}
					}
					for _, form := range sumForms {
						col := drawConjTerm(rng, form, n, base, rng.Intn(2) == 0).B
						if r%4 == 3 && form == "int/2" { // a materialized head over the same rows
							oids := make([]Oid, n)
							for i := range oids {
								oids[i] = base + Oid(i)
							}
							h := OidColumn(oids)
							h.SetSorted(true)
							col = New(col.Name, h, col.t)
						}
						what := fmt.Sprintf("AVX2 %v, VBMI2 %v, n=%d, %d terms, rep %d, sum over %s", haveAVX2, haveVBMI2, n, k, r, form)
						fused := checkSelectSum(t, what, terms, col)
						_, count := SelectSum(col, terms, nil)
						switch {
						case fused:
							st.fused++
							st.fusedKept += b2i(count > 0)
						case haveVBMI2 && k > maxWordTerms:
							st.long++
						}
						if count == 0 && n > 0 {
							st.emptied++
							if conjTakesCodes(terms) {
								if _, miss := rejectCodes(mustCodeTerms(terms), make([]uint64, (n+63)/64)); miss {
									st.missed++
								}
							}
						}
					}
				}
			}
		}
	})
	t.Logf("%+v", st)
	if haveVBMI2 && (st.fused < 500 || st.fusedKept < 100 || st.long < 100) {
		t.Errorf("the term-table kernel answered %d sums (want ≥ 500), %d of them over kept rows (≥ 100); %d longer conjunctions fell back (≥ 100)", st.fused, st.fusedKept, st.long)
	}
	if st.emptied < 100 || st.missed < 50 {
		t.Errorf("reached %d sums over no row (want ≥ 100), %d of them missed ranges (≥ 50)", st.emptied, st.missed)
	}
}

// mustCodeTerms is terms as the rejection bitmap takes them, which it
// must.
func mustCodeTerms(terms []Term) []codeTerm {
	cts, ok := codeTerms(nil, terms)
	if !ok {
		panic("bat: the rejection bitmap does not take the terms")
	}
	return cts
}
