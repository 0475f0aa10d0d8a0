package bat

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// codeScanRef is the value code 0 stands for in the code scan tests.
const codeScanRef = 19920101

// codeColumn stores codes, each below 2^(8w), as a w-byte narrow int
// column whose values are codeScanRef + code.
func codeColumn(w int, codes []uint64) *Column {
	var top uint64
	for _, x := range codes {
		top = max(top, x)
	}
	switch w {
	case 1:
		return &Column{kind: KInt, narrow: codesOf[uint8](codes, top)}
	case 2:
		return &Column{kind: KInt, narrow: codesOf[uint16](codes, top)}
	}
	return &Column{kind: KInt, narrow: codesOf[uint32](codes, top)}
}

func codesOf[U code](codes []uint64, top uint64) narrowInts[U] {
	v := make([]U, len(codes))
	for i, x := range codes {
		v[i] = U(x)
	}
	return narrowInts[U]{v, codeScanRef, U(top)}
}

// checkCodeScan selects the codes [clo, chi] from rows off.. of a
// w-byte code column whose dense head starts at base, through USelect
// (the OID list), Select (the positions) and USelectCand (the candidate
// test, at every other row), and holds each to selectGeneric's
// row-by-row answer. off shifts the view's first code off·w bytes past
// the payload's start, so most word loads are unaligned.
func checkCodeScan(t *testing.T, w int, codes []uint64, off int, base Oid, clo, chi uint64) {
	t.Helper()
	b := New("c", DenseColumn(base, len(codes)), codeColumn(w, codes)).Slice(off, len(codes))
	lo := &Bound{Value: int64(codeScanRef + clo), Inclusive: true}
	hi := &Bound{Value: int64(codeScanRef + chi), Inclusive: true}
	what := fmt.Sprintf("w=%d n=%d off=%d codes [%d, %d]", w, b.Len(), off, clo, chi)
	want := b.selectGeneric(lo, hi)
	sameBAT(t, what+": Select", b.Select(lo, hi), want)
	sameBAT(t, what+": USelect", b.USelect(lo, hi), want.Mirror())
	var every2 []Oid
	for i := 0; i < b.Len(); i += 2 {
		every2 = append(every2, base+Oid(off+i))
	}
	cand := MakeOids("cand", every2)
	cand.Head().SetSorted(true)
	sameBAT(t, what+": USelectCand", b.USelectCand(cand, lo, hi), b.Semijoin(cand).selectGeneric(lo, hi).Mirror())
}

// TestCodeScanMatchesRowByRow runs the code scans at widths 1, 2 and 4
// over short lengths and those around a 32-row AVX2 block and one and
// two 64-row bitmap words, from views starting at offsets 0–7, with
// codes at 0, 2^(w−1) − 1, 2^(w−1), the width's maximum and either side
// of each bound, under each of rejectKernels. The spans include
// 2^(w−1) − 1, the widest the word test takes as it is, and 2^(w−1),
// which it takes as its complement, with ranges at lo == 0, at hi ==
// the maximum, of one code and of every code.
func TestCodeScanMatchesRowByRow(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, w := range []int{1, 2, 4} {
		half, top := uint64(1)<<(8*w-1), uint64(1)<<(8*w)-1
		ranges := [][2]uint64{
			{0, half - 1}, {0, half}, {top - half + 1, top}, {top - half, top},
			{3, 3 + half - 1}, {3, 3 + half}, {half - 2, 2*half - 3},
			{0, 0}, {half - 1, half - 1}, {half, half}, {top, top},
			{5, 9}, {half + 7, top - 1}, {0, top},
		}
		for _, r := range ranges {
			clo, chi := r[0], r[1]
			special := []uint64{0, half - 1, half, top, clo, chi, clo - 1, chi + 1}
			for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 135} {
				for off := 0; off < 8; off++ {
					codes := make([]uint64, off+n)
					for i := range codes {
						if rng.Intn(3) == 0 {
							codes[i] = rng.Uint64() & top
						} else {
							codes[i] = special[rng.Intn(len(special))] & top
						}
					}
					base := Oid(0)
					if off%2 == 1 {
						base = 1<<40 + 3
					}
					withRejectKernels(func() { checkCodeScan(t, w, codes, off, base, clo, chi) })
				}
			}
		}
	}
}

// FuzzCodeScan holds the code scans to selectGeneric on fuzzed codes,
// under each of rejectKernels: the width is 1, 2 or 4 bytes by sel, the
// codes are data read little-endian at that width, off (mod 8) rows of
// them sit before the view and [clo, chi] is taken modulo the width.
func FuzzCodeScan(f *testing.F) {
	f.Add([]byte{0x00, 0x7f, 0x80, 0xff, 0x10, 0x90, 0x7e, 0x81, 0x01, 0xfe, 0x40}, uint8(0), uint8(3), uint64(0x10), uint64(0x8f))
	f.Add([]byte{0x00, 0x7f, 0x80, 0xff, 0x10, 0x90, 0x7e, 0x81, 0x01, 0xfe, 0x40}, uint8(0), uint8(1), uint64(0x10), uint64(0x90))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0x7fff_8000_4e1f_ee2a), 0xffff_0000_8001_7ffe), uint8(1), uint8(5), uint64(20000), uint64(29999))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 0x7fff_8000_4e1f_ee2a), 0xffff_0000_8001_7ffe), uint8(1), uint8(0), uint64(0), uint64(0x8000))
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x8000_0000_7fff_ffff), uint8(2), uint8(7), uint64(1), uint64(0x8000_0000))
	f.Fuzz(func(t *testing.T, data []byte, sel, off uint8, clo, chi uint64) {
		w := []int{1, 2, 4}[int(sel)%3]
		top := uint64(1)<<(8*w) - 1
		var codes []uint64
		for ; len(data) >= w; data = data[w:] {
			var word [8]byte
			copy(word[:], data[:w])
			codes = append(codes, binary.LittleEndian.Uint64(word[:]))
		}
		o := min(int(off%8), len(codes))
		clo, chi = clo&top, chi&top
		if clo > chi {
			clo, chi = chi, clo
		}
		withRejectKernels(func() { checkCodeScan(t, w, codes, o, 1<<40+Oid(sel), clo, chi) })
	})
}

// TestCodeScanAllocs: a range select over a narrow fragment allocates
// the candidate list's payload and its two descriptors, nothing else:
// the scan boxes nothing and its scratch comes from the pool.
func TestCodeScanAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	codes := make([]uint64, 4096)
	for i := range codes {
		codes[i] = uint64(rng.Intn(61131))
	}
	for _, w := range []int{2, 4} {
		b := New("d", DenseColumn(1<<16, len(codes)), codeColumn(w, codes))
		lo, hi := &Bound{Value: int64(19940101), Inclusive: true}, &Bound{Value: int64(19950101)}
		if allocs := testing.AllocsPerRun(100, func() { benchSink = b.USelect(lo, hi) }); allocs > 3 {
			t.Errorf("w=%d: USelect allocates %v times, want 3", w, allocs)
		}
	}
}
