package bat

// haveAVX2 reports whether this CPU runs AVX2 and the OS saves the YMM
// registers: CPUID leaf 7 for AVX2, leaf 1 for AVX and OSXSAVE, and
// XCR0's SSE and AVX state bits. SelectAll's bitmap kernel needs it;
// without it every conjunction runs the chain.
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
