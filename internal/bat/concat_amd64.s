#include "textflag.h"
#include "keep_amd64.h"

// The compress kernels write the codes of words whole 64-row words of
// src, at the clear bits of each word's rejection bitmap, plus d, to
// the front of dst, and return how many they wrote. Per word: load the
// codes, widen them to dst's width, add d in every lane, compress the
// kept lanes of each register to its front with the kept bits as the
// opmask, and store only those lanes (mask (1<<popcnt)−1), so nothing
// past the last kept code is written. Registers: DI the next dst code,
// R11 the first, SI the word's codes, DX its bitmap, CX the words
// left, BX the kept bits not yet stored, R10 all ones, Z7 d.
//
// func compressSRCtoDST(dst *uintDST, src *uintSRC, rej *uint64, words int, d uintDST) int

#define PROLOGUE \
	MOVQ dst+0(FP), DI; \
	MOVQ DI, R11;       \
	MOVQ src+8(FP), SI; \
	MOVQ rej+16(FP), DX; \
	MOVQ words+24(FP), CX; \
	MOVQ $-1, R10

// NEXTWORD loads the kept bits of the next word into BX.
#define NEXTWORD \
	MOVQ (DX), BX; \
	NOTQ BX

// EPILOGUE returns the codes written, of 1<<shift bytes each.
#define EPILOGUE(shift) \
	SUBQ R11, DI;         \
	SHRQ $shift, DI;      \
	MOVQ DI, ret+40(FP);  \
	VZEROUPPER;           \
	RET

TEXT ·compress8to8(SB), NOSPLIT, $0-48
	PROLOGUE
	MOVBLZX      d+32(FP), AX
	VPBROADCASTB AX, Z7
	TESTQ        CX, CX
	JZ           done8to8

loop8to8:
	NEXTWORD
	VPADDB (SI), Z7, Z0
	KEEPB(Z0)
	ADDQ   $64, SI
	ADDQ   $8, DX
	DECQ   CX
	JNZ    loop8to8

done8to8:
	EPILOGUE(0)

TEXT ·compress8to16(SB), NOSPLIT, $0-48
	PROLOGUE
	MOVWLZX      d+32(FP), AX
	VPBROADCASTW AX, Z7
	TESTQ        CX, CX
	JZ           done8to16

loop8to16:
	NEXTWORD
	VPMOVZXBW (SI), Z0
	VPMOVZXBW 32(SI), Z1
	VPADDW    Z7, Z0, Z0
	VPADDW    Z7, Z1, Z1
	KEEPW(Z0)
	KEEPW(Z1)
	ADDQ      $64, SI
	ADDQ      $8, DX
	DECQ      CX
	JNZ       loop8to16

done8to16:
	EPILOGUE(1)

TEXT ·compress8to32(SB), NOSPLIT, $0-48
	PROLOGUE
	MOVL         d+32(FP), AX
	VPBROADCASTD AX, Z7
	TESTQ        CX, CX
	JZ           done8to32

loop8to32:
	NEXTWORD
	VPMOVZXBD (SI), Z0
	VPMOVZXBD 16(SI), Z1
	VPMOVZXBD 32(SI), Z2
	VPMOVZXBD 48(SI), Z3
	VPADDD    Z7, Z0, Z0
	VPADDD    Z7, Z1, Z1
	VPADDD    Z7, Z2, Z2
	VPADDD    Z7, Z3, Z3
	KEEPD(Z0)
	KEEPD(Z1)
	KEEPD(Z2)
	KEEPD(Z3)
	ADDQ      $64, SI
	ADDQ      $8, DX
	DECQ      CX
	JNZ       loop8to32

done8to32:
	EPILOGUE(2)

TEXT ·compress16to16(SB), NOSPLIT, $0-48
	PROLOGUE
	MOVWLZX      d+32(FP), AX
	VPBROADCASTW AX, Z7
	TESTQ        CX, CX
	JZ           done16to16

loop16to16:
	NEXTWORD
	VPADDW (SI), Z7, Z0
	VPADDW 64(SI), Z7, Z1
	KEEPW(Z0)
	KEEPW(Z1)
	ADDQ   $128, SI
	ADDQ   $8, DX
	DECQ   CX
	JNZ    loop16to16

done16to16:
	EPILOGUE(1)

TEXT ·compress16to32(SB), NOSPLIT, $0-48
	PROLOGUE
	MOVL         d+32(FP), AX
	VPBROADCASTD AX, Z7
	TESTQ        CX, CX
	JZ           done16to32

loop16to32:
	NEXTWORD
	VPMOVZXWD (SI), Z0
	VPMOVZXWD 32(SI), Z1
	VPMOVZXWD 64(SI), Z2
	VPMOVZXWD 96(SI), Z3
	VPADDD    Z7, Z0, Z0
	VPADDD    Z7, Z1, Z1
	VPADDD    Z7, Z2, Z2
	VPADDD    Z7, Z3, Z3
	KEEPD(Z0)
	KEEPD(Z1)
	KEEPD(Z2)
	KEEPD(Z3)
	ADDQ      $128, SI
	ADDQ      $8, DX
	DECQ      CX
	JNZ       loop16to32

done16to32:
	EPILOGUE(2)

TEXT ·compress32to32(SB), NOSPLIT, $0-48
	PROLOGUE
	MOVL         d+32(FP), AX
	VPBROADCASTD AX, Z7
	TESTQ        CX, CX
	JZ           done32to32

loop32to32:
	NEXTWORD
	VPADDD (SI), Z7, Z0
	VPADDD 64(SI), Z7, Z1
	VPADDD 128(SI), Z7, Z2
	VPADDD 192(SI), Z7, Z3
	KEEPD(Z0)
	KEEPD(Z1)
	KEEPD(Z2)
	KEEPD(Z3)
	ADDQ   $256, SI
	ADDQ   $8, DX
	DECQ   CX
	JNZ    loop32to32

done32to32:
	EPILOGUE(2)
