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
		if rejectCodes(terms, make([]uint64, len(m.rej))) {
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
