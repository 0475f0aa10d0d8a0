#include "textflag.h"

// func rejectBlocks8(rej *uint32, v *uint8, blocks int, lo, span uint8)
//
// For each block of 32 one-byte codes: d = code − lo in every byte,
// min(d, span) == d exactly when d ≤ span, and the bytes that differ
// are the rejected rows, ORed into the block's bitmap word.
TEXT ·rejectBlocks8(SB), NOSPLIT, $0-26
	MOVQ         rej+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         blocks+16(FP), CX
	VPBROADCASTB lo+24(FP), Y1
	VPBROADCASTB span+25(FP), Y2
	TESTQ        CX, CX
	JZ           done8

loop8:
	VMOVDQU   (SI), Y0
	VPSUBB    Y1, Y0, Y0
	VPMINUB   Y2, Y0, Y3
	VPCMPEQB  Y3, Y0, Y0
	VPMOVMSKB Y0, AX
	NOTL      AX
	ORL       AX, (DI)
	ADDQ      $32, SI
	ADDQ      $4, DI
	DECQ      CX
	JNZ       loop8

done8:
	VZEROUPPER
	RET

// func rejectBlocks16(rej *uint32, v *uint16, blocks int, lo, span uint16)
//
// rejectBlocks8 over two-byte codes: two loads of 16 codes each, the
// same test per word, and the two word masks packed to bytes. The pack
// interleaves the halves' 64-bit quarters as 0, 2, 1, 3; VPERMQ puts
// them back in row order before the byte mask is read.
TEXT ·rejectBlocks16(SB), NOSPLIT, $0-28
	MOVQ         rej+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         blocks+16(FP), CX
	VPBROADCASTW lo+24(FP), Y1
	VPBROADCASTW span+26(FP), Y2
	TESTQ        CX, CX
	JZ           done16

loop16:
	VMOVDQU   (SI), Y0
	VMOVDQU   32(SI), Y4
	VPSUBW    Y1, Y0, Y0
	VPSUBW    Y1, Y4, Y4
	VPMINUW   Y2, Y0, Y3
	VPMINUW   Y2, Y4, Y5
	VPCMPEQW  Y3, Y0, Y0
	VPCMPEQW  Y5, Y4, Y4
	VPACKSSWB Y4, Y0, Y0
	VPERMQ    $0xD8, Y0, Y0
	VPMOVMSKB Y0, AX
	NOTL      AX
	ORL       AX, (DI)
	ADDQ      $64, SI
	ADDQ      $4, DI
	DECQ      CX
	JNZ       loop16

done16:
	VZEROUPPER
	RET

// func rejectWords8(rej *uint64, v *uint8, words int, lo, span uint8)
//
// For each word of 64 one-byte codes: d = code − lo in every byte, the
// unsigned compare d > span sets the rejected rows' bits of an opmask,
// and the mask is ORed into the word's bitmap word.
TEXT ·rejectWords8(SB), NOSPLIT, $0-26
	MOVQ         rej+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         words+16(FP), CX
	VPBROADCASTB lo+24(FP), Z1
	VPBROADCASTB span+25(FP), Z2
	TESTQ        CX, CX
	JZ           donew8

loopw8:
	VMOVDQU64 (SI), Z0
	VPSUBB    Z1, Z0, Z0
	VPCMPUB   $6, Z2, Z0, K1
	KMOVQ     K1, AX
	ORQ       AX, (DI)
	ADDQ      $64, SI
	ADDQ      $8, DI
	DECQ      CX
	JNZ       loopw8

donew8:
	VZEROUPPER
	RET

// func rejectWords16(rej *uint64, v *uint16, words int, lo, span uint16)
//
// rejectWords8 over two-byte codes: two loads of 32 codes each, the
// same compare per word into two 32-bit opmasks, joined rows 0–31 low
// and rows 32–63 high.
TEXT ·rejectWords16(SB), NOSPLIT, $0-28
	MOVQ         rej+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         words+16(FP), CX
	VPBROADCASTW lo+24(FP), Z1
	VPBROADCASTW span+26(FP), Z2
	TESTQ        CX, CX
	JZ           donew16

loopw16:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z3
	VPSUBW    Z1, Z0, Z0
	VPSUBW    Z1, Z3, Z3
	VPCMPUW   $6, Z2, Z0, K1
	VPCMPUW   $6, Z2, Z3, K2
	KUNPCKDQ  K1, K2, K3
	KMOVQ     K3, AX
	ORQ       AX, (DI)
	ADDQ      $128, SI
	ADDQ      $8, DI
	DECQ      CX
	JNZ       loopw16

donew16:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
