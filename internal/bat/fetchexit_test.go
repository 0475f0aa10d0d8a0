package bat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// fetchForms are the physical forms a fetched column is drawn in: 1-,
// 2- and 4-byte int codes, decimals at exponents 0–3, dictionary
// strings — "dict/1" and "dict/2" narrowed per fragment, whose
// dictionaries differ unless every fragment holds every value, and
// "dict/same", cut from one column narrowed whole, whose dictionaries
// are one — and wide ints and floats.
var fetchForms = []string{"int/1", "int/2", "int/4", "dec/0", "dec/1", "dec/2", "dec/3",
	"dict/1", "dict/2", "dict/same", "wide/int", "wide/float"}

// fetchSizes are the fragment lengths every grid visits: none, one
// row, a bitmap word and either side of it, a fragment and a tail.
var fetchSizes = []int{0, 1, 63, 64, 65, 64<<10 + 5}

// drawFetchCol draws one column of form cut into fragments of the given
// lengths, headed from base. Each fragment is narrowed on its own — an
// int fragment shifted by up to 2^20 one time in three, so the parts'
// references differ, and a decimal one at the exponent its values need,
// so a list may mix them — or, for "dict/same" and one column in four,
// the fragments are views of one column narrowed whole.
func drawFetchCol(rng *rand.Rand, form string, lens []int, base Oid) []*BAT {
	var frags []*BAT
	if form == "dict/same" || rng.Intn(4) == 0 {
		if form == "dict/same" {
			form = "dict/1"
		}
		tail, _ := drawConjTail(rng, form, sum(lens))
		whole := Narrow(New(form, DenseColumn(base, sum(lens)), tail))
		at := 0
		for _, n := range lens {
			frags = append(frags, whole.Slice(at, at+n))
			at += n
		}
		return frags
	}
	for _, n := range lens {
		tail, _ := drawConjTail(rng, form, n)
		if tail.kind == KInt && form != "wide/int" && rng.Intn(3) == 0 {
			d := rng.Int63n(1 << 20)
			for i := range tail.ints {
				tail.ints[i] += d
			}
		}
		frags = append(frags, Narrow(New(form, DenseColumn(base, n), tail)))
		base += Oid(n)
	}
	return frags
}

func sum(lens []int) int {
	n := 0
	for _, l := range lens {
		n += l
	}
	return n
}

// drawFetchSels draws each fragment's selection: a conjunction of one
// or two terms over its rows, in forms the bitmap kernel takes three
// times in four (a mask holding a bitmap) and in any form otherwise (a
// mask holding a list, most of the time). The literals fall inside, at
// the edges of and outside each column's values, so some fragments
// keep every row and some none.
func drawFetchSels(rng *rand.Rand, lens []int, base Oid) [][]Term {
	coded := []string{"int/1", "int/2", "dec/0", "dec/2", "dict/1", "dict/2"}
	forms := conjForms
	if rng.Intn(4) > 0 {
		forms = coded
	}
	view := rng.Intn(2) == 0
	sels := make([][]Term, len(lens))
	for i, n := range lens {
		for k := 1 + rng.Intn(2); k > 0; k-- {
			sels[i] = append(sels[i], drawConjTerm(rng, forms[rng.Intn(len(forms))], n, base, view))
		}
		base += Oid(n)
	}
	return sels
}

// fetchStats counts what a check reached.
type fetchStats struct{ fast, bitmaps, emptied int }

// checkFetchExit holds FetchAll to its definition over two lists
// fetched at the same selections, each merged by its head or its tail:
// per part the chain's candidate list (conjChain) joined to the
// column, then one ConcatAll. The same rows, heads and values (floats
// to the bit), the same name, and no sortedness the definition lacks;
// each mask holds a bitmap exactly when the kernel takes its terms, and
// its candidates are the chain's. Two concat lists that take the one
// pass share their head. The masks and the merge draw from an arena,
// released after the check: a later check draws the poisoned buffers
// back, and a code the merge left unwritten reads as poison.
func checkFetchExit(t *testing.T, what string, sels [][]Term, cols [2][]*BAT, tails [2]bool, st *fetchStats) {
	t.Helper()
	masks := make([]*Mask, len(sels))
	lists := make([][]Fetch, 2)
	var parts [2][]*BAT
	var off [2]Oid
	var a Arena
	defer a.Release()
	for i, terms := range sels {
		masks[i] = SelectMask(terms, &a)
		cand := conjChain(terms)
		for l := range lists {
			lists[l] = append(lists[l], Fetch{Cand: masks[i], Col: cols[l][i]})
			b := cand.Join(cols[l][i])
			if tails[l] {
				b, off[l] = b.MarkH(off[l]), off[l]+Oid(b.Len())
			}
			parts[l] = append(parts[l], b)
		}
	}
	want := ConcatAll(parts[:], nil)
	got := FetchAll(lists, tails[:], &a)
	fast := [2]bool{}
	for l := range lists {
		fast[l] = fetchCodes(lists[l], masks, nil) != nil
		if fast[l] {
			st.fast++
		}
		sameFetched(t, fmt.Sprintf("%s, list %d (tail %v, one pass %v)", what, l, tails[l], fast[l]), want[l], got[l])
	}
	if fast[0] && fast[1] && !tails[0] && !tails[1] && got[0].h != got[1].h {
		t.Fatalf("%s: two concat lists over the same masks wrote their head twice", what)
	}
	for i, m := range masks {
		cand := conjChain(sels[i])
		if (m.rej != nil) != conjTakesCodes(sels[i]) {
			t.Fatalf("%s, part %d: mask holds a bitmap %v, kernel takes %v\n%s", what, i, m.rej != nil, conjTakesCodes(sels[i]), describeConj(sels[i]))
		}
		if !slices.Equal(headOids(m.List()), headOids(cand)) {
			t.Fatalf("%s, part %d: mask keeps %v, chain %v\n%s", what, i, headOids(m.List()), headOids(cand), describeConj(sels[i]))
		}
		if m.rej != nil {
			st.bitmaps++
			if m.kept == 0 && m.n > 0 {
				st.emptied++
			}
		}
	}
}

// sameFetched compares a merged fetch with its definition.
func sameFetched(t *testing.T, what string, want, got *BAT) {
	t.Helper()
	if got.Name != want.Name || got.Len() != want.Len() || got.t.kind != want.t.kind {
		t.Fatalf("%s: %q, %d rows of %s; want %q, %d rows of %s", what, got.Name, got.Len(), got.t.kind, want.Name, want.Len(), want.t.kind)
	}
	for i := 0; i < want.Len(); i++ {
		same := got.t.equalAt(i, want.t, i)
		if want.t.kind == KFloat {
			same = math.Float64bits(got.t.Float(i)) == math.Float64bits(want.t.Float(i))
		}
		if got.h.Oid(i) != want.h.Oid(i) || !same {
			t.Fatalf("%s: row %d is [%v|%v], want [%v|%v]", what, i, got.h.Value(i), got.t.Value(i), want.h.Value(i), want.t.Value(i))
		}
	}
	for _, c := range [][2]*Column{{want.h, got.h}, {want.t, got.t}} {
		if c[1].Sorted() && !c[0].Sorted() {
			t.Fatalf("%s: a column is marked sorted that the definition's is not", what)
		}
	}
}

// drawFetchExit draws a fetch exit's inputs over fragments of the given
// lengths: the selections, two columns and how each merges. One time in
// eight the parts come last fragment first, so the heads' boundaries are
// out of order.
func drawFetchExit(rng *rand.Rand, lens []int) (sels [][]Term, cols [2][]*BAT, tails [2]bool) {
	base := Oid(0)
	if rng.Intn(2) == 0 {
		base = 1<<40 + 3
	}
	sels = drawFetchSels(rng, lens, base)
	for l := range cols {
		cols[l] = drawFetchCol(rng, fetchForms[rng.Intn(len(fetchForms))], lens, base)
		tails[l] = rng.Intn(2) == 0
	}
	if rng.Intn(8) == 0 {
		slices.Reverse(sels)
		slices.Reverse(cols[0])
		slices.Reverse(cols[1])
	}
	return sels, cols, tails
}

// TestFetchExitMatchesJoin draws fetch exits over 1–4 fragments of the
// lengths in fetchSizes and random small ones, in every column form,
// and holds FetchAll to per-part Join and ConcatAll — with the CPU's
// vector kernel filling the bitmaps, and with it switched off, where
// rejectRange's word test fills them; every other trial with the
// compress kernels gathering the kept codes, the rest with
// gatherKept's loop.
func TestFetchExitMatchesJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	avx2, vbmi2 := haveAVX2, haveVBMI2
	defer func() { haveAVX2, haveVBMI2 = avx2, vbmi2 }()
	var st fetchStats
	for _, kernel := range []bool{true, false} {
		haveAVX2 = avx2 && kernel
		for trial := 0; trial < 400; trial++ {
			haveVBMI2 = vbmi2 && trial%2 == 0
			lens := make([]int, 1+rng.Intn(4))
			for i := range lens {
				lens[i] = fetchSizes[rng.Intn(len(fetchSizes)-1)] // the long one below
				if rng.Intn(2) == 0 {
					lens[i] = rng.Intn(300)
				}
			}
			if trial%40 == 0 {
				lens[rng.Intn(len(lens))] = fetchSizes[len(fetchSizes)-1]
			}
			sels, cols, tails := drawFetchExit(rng, lens)
			checkFetchExit(t, fmt.Sprintf("kernels %v/%v, trial %d, lengths %v", haveAVX2, haveVBMI2, trial, lens), sels, cols, tails, &st)
		}
	}
	t.Logf("%+v", st)
	if st.fast < 200 || st.bitmaps < 500 || st.emptied < 20 {
		t.Errorf("reached %d one-pass merges (want ≥ 200), %d bitmaps (≥ 500), %d emptied fragments (≥ 20)", st.fast, st.bitmaps, st.emptied)
	}
}

// FuzzFetchExit: the fuzzer picks the seed the inputs are drawn from,
// the fragment lengths (one byte each, 255 standing for 64K+5), whether
// the vector kernel fills the bitmaps and whether the compress kernels
// gather the kept codes.
func FuzzFetchExit(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 63, 64, 65}, true, true)
	f.Add(int64(2), []byte{255}, false, true)
	f.Add(int64(3), []byte{7}, true, false)
	f.Add(int64(4), []byte{}, true, true)
	f.Add(int64(5), []byte{255, 130, 64}, true, false)
	f.Fuzz(func(t *testing.T, seed int64, sizes []byte, kernel, compress bool) {
		avx2, vbmi2 := haveAVX2, haveVBMI2
		defer func() { haveAVX2, haveVBMI2 = avx2, vbmi2 }()
		haveAVX2, haveVBMI2 = avx2 && kernel, vbmi2 && compress
		lens := []int{1}
		if len(sizes) > 0 {
			lens = lens[:0]
		}
		for _, s := range sizes[:min(len(sizes), 6)] {
			n := int(s)
			if s == 255 {
				n = fetchSizes[len(fetchSizes)-1]
			}
			lens = append(lens, n)
		}
		sels, cols, tails := drawFetchExit(rand.New(rand.NewSource(seed)), lens)
		checkFetchExit(t, fmt.Sprintf("seed %d, lengths %v", seed, lens), sels, cols, tails, &fetchStats{})
	})
}

// TestCompressKeptMatchesLoop holds gatherKept, with the compress
// kernels and with its loop, to the rows a bitmap keeps, for each of
// the six (source, destination) widths the kernels take: lengths from
// none to a fragment and a tail, words that keep every row, none,
// every other one and a random set, and rebases of 0 and of the most
// that fits. Past the kept codes dst holds canaries that must survive.
func TestCompressKeptMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	vbmi2 := haveVBMI2
	defer func() { haveVBMI2 = vbmi2 }()
	checkCompressKept[uint8, uint8](t, rng, vbmi2)
	checkCompressKept[uint16, uint8](t, rng, vbmi2)
	checkCompressKept[uint32, uint8](t, rng, vbmi2)
	checkCompressKept[uint16, uint16](t, rng, vbmi2)
	checkCompressKept[uint32, uint16](t, rng, vbmi2)
	checkCompressKept[uint32, uint32](t, rng, vbmi2)
}

func checkCompressKept[V, U code](t *testing.T, rng *rand.Rand, vbmi2 bool) {
	t.Helper()
	const canaries = 70
	pattern := uint64(0x5A5A5A5A)
	canary := V(pattern)
	top := min(uint64(^U(0)), uint64(^V(0))>>1) // the largest code drawn
	for _, n := range fetchSizes {
		src := make([]U, n)
		for i := range src {
			src[i] = U(rng.Uint64() % (top + 1))
		}
		if n > 0 {
			src[rng.Intn(n)] = U(top)
		}
		for _, words := range []string{"all kept", "all rejected", "alternating", "random"} {
			rej := make([]uint64, (n+63)/64)
			for i := range rej {
				switch words {
				case "all rejected":
					rej[i] = ^uint64(0)
				case "alternating":
					rej[i] = 0x5555555555555555
				case "random":
					rej[i] = rng.Uint64()
				}
			}
			if part := n % 64; part != 0 {
				rej[len(rej)-1] |= ^uint64(0) << part // past the last row
			}
			for _, d := range []V{0, V(uint64(^V(0)) - top)} {
				var want []V
				for i, x := range src {
					if rej[i/64]>>(i%64)&1 == 0 {
						want = append(want, V(x)+d)
					}
				}
				for _, kernel := range []bool{true, false} {
					haveVBMI2 = vbmi2 && kernel
					what := fmt.Sprintf("%T to %T, %d rows %s, d=%d, kernel %v", U(0), V(0), n, words, d, haveVBMI2)
					dst := make([]V, len(want)+canaries)
					for i := range dst {
						dst[i] = canary
					}
					if k := gatherKept(dst[:len(want)], src, rej, len(want), d); k != len(want) {
						t.Fatalf("%s: wrote %d codes, want %d", what, k, len(want))
					}
					if !slices.Equal(dst[:len(want)], want) {
						t.Fatalf("%s: wrote %v, want %v", what, dst[:min(len(want), 80)], want[:min(len(want), 80)])
					}
					for i, c := range dst[len(want):] {
						if c != canary {
							t.Fatalf("%s: wrote %d at %d, past the %d kept codes", what, c, len(want)+i, len(want))
						}
					}
					if !haveVBMI2 {
						continue
					}
					if _, words := compressKept(dst, src, rej, len(want), d); words != n/64 {
						t.Fatalf("%s: the kernel read %d words, want %d", what, words, n/64)
					}
					if len(want) > 0 && n >= 64 {
						checkShortDstPanics(t, what, len(want)-1, src, rej, len(want), d, canary)
					}
				}
			}
		}
	}
}

// checkShortDstPanics holds compressKept to its bound: a dst of short
// codes, fewer than the kept count, panics before the kernel writes
// anything, so every code of dst, and of the array past it, still holds
// the canary.
func checkShortDstPanics[V, U code](t *testing.T, what string, short int, src []U, rej []uint64, kept int, d V, canary V) {
	t.Helper()
	buf := make([]V, kept+64)
	for i := range buf {
		buf[i] = canary
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: %d kept codes gathered into %d without a panic", what, kept, short)
		}
		for i, c := range buf {
			if c != canary {
				t.Fatalf("%s: a dst of %d codes for %d kept ones was written at %d before the panic", what, short, kept, i)
			}
		}
	}()
	compressKept(buf[:short], src, rej, kept, d)
}
