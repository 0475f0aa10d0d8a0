// The keep macros store the lanes of one vector register that the low
// bits of BX keep, compressed to DI's front, and advance DI past them;
// nothing past the last kept lane is written. They use K1, K2, R8 and
// R9, and R10 must hold all ones. Shared by the compress kernels
// (concat_amd64.s) and the term-table kernel's compress exit
// (selectall_amd64.s).

// KEEPB stores the lanes of reg's 64 bytes that BX keeps.
#define KEEPB(reg) \
	KMOVQ         BX, K1;        \
	VPCOMPRESSB.Z reg, K1, reg;  \
	POPCNTQ       BX, R8;        \
	BZHIQ         R8, R10, R9;   \
	KMOVQ         R9, K2;        \
	VMOVDQU8      reg, K2, (DI); \
	ADDQ          R8, DI

// KEEPW stores the lanes of reg's 32 words that BX's low 32 bits keep,
// then shifts them out of BX.
#define KEEPW(reg) \
	KMOVD         BX, K1;         \
	VPCOMPRESSW.Z reg, K1, reg;   \
	POPCNTL       BX, R8;         \
	BZHIL         R8, R10, R9;    \
	KMOVD         R9, K2;         \
	VMOVDQU16     reg, K2, (DI);  \
	LEAQ          (DI)(R8*2), DI; \
	SHRQ          $32, BX

// KEEPD stores the lanes of reg's 16 doublewords that BX's low 16 bits
// keep, then shifts them out of BX.
#define KEEPD(reg) \
	KMOVW         BX, K1;         \
	VPCOMPRESSD.Z reg, K1, reg;   \
	MOVWLZX       BX, R8;         \
	POPCNTL       R8, R8;         \
	BZHIL         R8, R10, R9;    \
	KMOVW         R9, K2;         \
	VMOVDQU32     reg, K2, (DI);  \
	LEAQ          (DI)(R8*4), DI; \
	SHRQ          $16, BX
