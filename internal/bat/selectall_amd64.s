#include "textflag.h"
#include "keep_amd64.h"

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

// func selectWords(out, src unsafe.Pointer, tab *wordTerm, wide, narrow, blocks, exit int) int
//
// The term-table kernel, over blocks of four 64-row words. For each
// block it walks the table: first its wide entries, terms over 2-byte
// codes, then its narrow ones, over 1-byte codes. A term's codes for
// the block are loaded (eight registers of 2-byte codes, four of 1-byte
// ones, at the block's offset in its column) and added to −lo in every
// lane, d = code − lo wrapping at the width, and the unsigned compare
// d > span sets the rejected rows' bits of an opmask, ORed into the
// word's accumulator, K3 to K6; no bitmap is read back. Then the exit:
// 0 stores each accumulator as its word's rejection bitmap and counts
// its clear bits; 1, 2 or 4 loads the word's codes of that many bytes
// from src and stores the kept ones to out's front (keep_amd64.h). It
// returns the kept rows either way. Registers: R12 the block's first
// row, CX the blocks left, R13 the exit, DX the table, AX its next
// entry, R9 the terms left, R14 a term's codes for the block (the
// source codes' in an exit), Z8 and Z9 its −lo and span in every lane;
// DI the next bitmap word or code out, R11 the first code out, SI the
// source codes (the kept count for exit 0), BX a word's kept bits.

// TERM loads the next table entry's codes pointer into R14, and its
// −lo and span into every lane of Z8 and Z9.
#define TERM \
	MOVQ         (AX), R14; \
	VPBROADCASTD 8(AX), Z8; \
	VPBROADCASTD 12(AX), Z9

// WIDEADD adds −lo to a word's 64 2-byte codes at off(R14), in lo and hi.
#define WIDEADD(off, lo, hi) \
	VPADDW off(R14), Z8, lo; \
	VPADDW 64+off(R14), Z8, hi

// WIDEREJ ORs the rows of lo and hi above the span into acc.
#define WIDEREJ(lo, hi, acc) \
	VPCMPUW  $6, Z9, lo, K1; \
	VPCMPUW  $6, Z9, hi, K2; \
	KUNPCKDQ K1, K2, K1;     \
	KORQ     K1, acc, acc

// NARROWREJ ORs the rows of reg above the span into acc.
#define NARROWREJ(reg, acc) \
	VPCMPUB $6, Z9, reg, K1; \
	KORQ    K1, acc, acc

// BITMAP stores acc as the bitmap word at off(DI) and adds its clear
// bits to SI.
#define BITMAP(acc, off) \
	KMOVQ   acc, BX;     \
	MOVQ    BX, off(DI); \
	NOTQ    BX;          \
	POPCNTQ BX, BX;      \
	ADDQ    BX, SI

// KEPT puts the kept rows of acc's word in BX.
#define KEPT(acc) \
	KMOVQ acc, BX; \
	NOTQ  BX

// KEEP8, KEEP16 and KEEP32 store the codes of 1, 2 or 4 bytes at
// off(R14) that acc's word keeps.
#define KEEP8(acc, off) \
	KEPT(acc);              \
	VMOVDQU64 off(R14), Z0; \
	KEEPB(Z0)

#define KEEP16(acc, off) \
	KEPT(acc);                 \
	VMOVDQU64 off(R14), Z0;    \
	VMOVDQU64 64+off(R14), Z1; \
	KEEPW(Z0);                 \
	KEEPW(Z1)

#define KEEP32(acc, off) \
	KEPT(acc);                  \
	VMOVDQU64 off(R14), Z0;     \
	VMOVDQU64 64+off(R14), Z1;  \
	VMOVDQU64 128+off(R14), Z2; \
	VMOVDQU64 192+off(R14), Z3; \
	KEEPD(Z0);                  \
	KEEPD(Z1);                  \
	KEEPD(Z2);                  \
	KEEPD(Z3)

TEXT ·selectWords(SB), NOSPLIT, $0-64
	MOVQ  out+0(FP), DI
	MOVQ  DI, R11
	MOVQ  src+8(FP), SI
	MOVQ  tab+16(FP), DX
	MOVQ  blocks+40(FP), CX
	MOVQ  exit+48(FP), R13
	MOVQ  $-1, R10
	XORQ  R12, R12
	TESTQ R13, R13
	JNZ   ready
	XORQ  SI, SI

ready:
	TESTQ CX, CX
	JZ    done

block:
	KXORQ K3, K3, K3
	KXORQ K4, K4, K4
	KXORQ K5, K5, K5
	KXORQ K6, K6, K6
	MOVQ  DX, AX
	MOVQ  wide+24(FP), R9
	TESTQ R9, R9
	JZ    narrowterms

wideterm:
	TERM
	LEAQ (R14)(R12*2), R14
	WIDEADD(0, Z0, Z1)
	WIDEADD(128, Z2, Z3)
	WIDEADD(256, Z4, Z5)
	WIDEADD(384, Z6, Z7)
	WIDEREJ(Z0, Z1, K3)
	WIDEREJ(Z2, Z3, K4)
	WIDEREJ(Z4, Z5, K5)
	WIDEREJ(Z6, Z7, K6)
	ADDQ $16, AX
	DECQ R9
	JNZ  wideterm

narrowterms:
	MOVQ  narrow+32(FP), R9
	TESTQ R9, R9
	JZ    exits

narrowterm:
	TERM
	ADDQ   R12, R14
	VPADDB 0(R14), Z8, Z0
	VPADDB 64(R14), Z8, Z1
	VPADDB 128(R14), Z8, Z2
	VPADDB 192(R14), Z8, Z3
	NARROWREJ(Z0, K3)
	NARROWREJ(Z1, K4)
	NARROWREJ(Z2, K5)
	NARROWREJ(Z3, K6)
	ADDQ   $16, AX
	DECQ   R9
	JNZ    narrowterm

exits:
	CMPQ R13, $2
	JEQ  keep16
	JA   keep32
	CMPQ R13, $1
	JEQ  keep8
	BITMAP(K3, 0)
	BITMAP(K4, 8)
	BITMAP(K5, 16)
	BITMAP(K6, 24)
	ADDQ $32, DI
	JMP  nextblock

keep8:
	LEAQ (SI)(R12*1), R14
	KEEP8(K3, 0)
	KEEP8(K4, 64)
	KEEP8(K5, 128)
	KEEP8(K6, 192)
	JMP  nextblock

keep16:
	LEAQ (SI)(R12*2), R14
	KEEP16(K3, 0)
	KEEP16(K4, 128)
	KEEP16(K5, 256)
	KEEP16(K6, 384)
	JMP  nextblock

keep32:
	LEAQ (SI)(R12*4), R14
	KEEP32(K3, 0)
	KEEP32(K4, 256)
	KEEP32(K5, 512)
	KEEP32(K6, 768)

nextblock:
	ADDQ $256, R12
	DECQ CX
	JNZ  block

done:
	TESTQ R13, R13
	JNZ   wrote
	MOVQ  SI, ret+56(FP)
	VZEROUPPER
	RET

wrote:
	SUBQ R11, DI
	BSFQ R13, CX
	SHRQ CX, DI
	MOVQ DI, ret+56(FP)
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
