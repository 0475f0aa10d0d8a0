package bat

import "unsafe"

// haveAVX2 reports whether this CPU runs AVX2 and the OS saves the YMM
// registers: CPUID leaf 7 for AVX2, leaf 1 for AVX and OSXSAVE, and
// XCR0's SSE and AVX state bits. rejectRange's block kernel needs it;
// without it rejectRange tests the codes a word at a time.
var haveAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// haveVBMI2 reports whether this CPU runs the compress kernels and the
// OS saves their registers: AVX2's checks, then CPUID leaf 1 for
// POPCNT, leaf 7 for AVX512F, AVX512BW, BMI2 and VBMI2, and XCR0's
// opmask and ZMM state bits besides SSE and AVX. FetchAll's and
// SumKept's gathers need it for whole bitmap words, and rejectCodes and
// SelectSum for the term-table kernel; without it gatherKept's loop and
// rejectRange run.
var haveVBMI2 = cpuHasVBMI2()

func cpuHasVBMI2() bool {
	if !cpuHasAVX2() {
		return false
	}
	const popcnt = 1 << 23
	if _, _, ecx, _ := cpuid(1, 0); ecx&popcnt == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return false
	}
	const avx512f, bmi2, avx512bw, vbmi2 = 1 << 16, 1 << 8, 1 << 30, 1 << 6
	_, ebx, ecx, _ := cpuid(7, 0)
	return ebx&(avx512f|bmi2|avx512bw) == avx512f|bmi2|avx512bw && ecx&vbmi2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// rejectBlocks8 ORs into rej[k], for each of the blocks 32-row blocks
// of v, bit j set for each row j of the block whose code c has
// c − lo > span, wrapping at 8 bits.
//
//go:noescape
func rejectBlocks8(rej *uint32, v *uint8, blocks int, lo, span uint8)

// rejectBlocks16 is rejectBlocks8 over 2-byte codes.
//
//go:noescape
func rejectBlocks16(rej *uint32, v *uint16, blocks int, lo, span uint16)

// selectWords is the term-table kernel (selectall_amd64.s): it tests
// the rows of blocks whole blocks of blockRows rows against the wide
// entries of tab over 2-byte codes and the narrow entries after them
// over 1-byte codes, and by exit stores each 64-row word's rejection
// bitmap to out (exit 0) or the kept codes of src, of exit bytes each,
// to out's front; it returns the rows kept. out must hold a bitmap word
// per word, or every row's code. It needs AVX512F, AVX512BW, BMI2 and
// VBMI2.
//
//go:noescape
func selectWords(out, src unsafe.Pointer, tab *wordTerm, wide, narrow, blocks, exit int) int

// compress8to8 writes the codes of words whole 64-row words of src at
// the clear bits of rej, each plus d, to the front of dst, and returns
// how many (concat_amd64.s). dst must hold them all.
//
//go:noescape
func compress8to8(dst *uint8, src *uint8, rej *uint64, words int, d uint8) int

// compress8to16 is compress8to8 from 1-byte to 2-byte codes.
//
//go:noescape
func compress8to16(dst *uint16, src *uint8, rej *uint64, words int, d uint16) int

// compress8to32 is compress8to8 from 1-byte to 4-byte codes.
//
//go:noescape
func compress8to32(dst *uint32, src *uint8, rej *uint64, words int, d uint32) int

// compress16to16 is compress8to8 over 2-byte codes.
//
//go:noescape
func compress16to16(dst *uint16, src *uint16, rej *uint64, words int, d uint16) int

// compress16to32 is compress8to8 from 2-byte to 4-byte codes.
//
//go:noescape
func compress16to32(dst *uint32, src *uint16, rej *uint64, words int, d uint32) int

// compress32to32 is compress8to8 over 4-byte codes.
//
//go:noescape
func compress32to32(dst *uint32, src *uint32, rej *uint64, words int, d uint32) int
