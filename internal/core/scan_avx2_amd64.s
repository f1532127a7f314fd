//go:build amd64 && !purego

#include "textflag.h"

// FILTER32 filters the 32 anchor candidates at data[w+off:w+off+32] (SI =
// data, CX = w): the '<' lanes whose first two tagname bytes may start a
// keyword go to the survivor bits smask. After '<' the tagname bytes are at
// +1 and +2; after "</", at +2 and +3. Each byte is split into nibbles
// (Y13 = 0x0f) and looked up with VPSHUFB: the first byte in lo1 (Y11,
// shared) and hi1 (Y12 opening, Y10 closing), the second in lo2/hi2 (Y9/Y8
// opening, Y7/Y6 closing). A lane passes when its four lookups AND to
// non-zero (see nibbleTables). The opening result is built in Y1, the
// closing one in Y3, and the '/' lanes (Y2) pick the closing one.
#define FILTER32(off, off1, off2, off3, smask) \
	VMOVDQU   off1(SI)(CX*1), Y0; \
	VPAND     Y13, Y0, Y1;        \
	VPSRLW    $4, Y0, Y2;         \
	VPAND     Y13, Y2, Y2;        \
	VPSHUFB   Y1, Y11, Y1;        \
	VPSHUFB   Y2, Y12, Y2;        \
	VPAND     Y2, Y1, Y1;         \
	VPCMPEQB  Y14, Y0, Y2;        \
	VMOVDQU   off2(SI)(CX*1), Y0; \
	VPAND     Y13, Y0, Y3;        \
	VPSRLW    $4, Y0, Y4;         \
	VPAND     Y13, Y4, Y4;        \
	VPSHUFB   Y3, Y9, Y0;         \
	VPAND     Y0, Y1, Y1;         \
	VPSHUFB   Y4, Y8, Y0;         \
	VPAND     Y0, Y1, Y1;         \
	VPSHUFB   Y3, Y11, Y3;        \
	VPSHUFB   Y4, Y10, Y4;        \
	VPAND     Y4, Y3, Y3;         \
	VMOVDQU   off3(SI)(CX*1), Y0; \
	VPAND     Y13, Y0, Y4;        \
	VPSHUFB   Y4, Y7, Y4;         \
	VPAND     Y4, Y3, Y3;         \
	VPSRLW    $4, Y0, Y0;         \
	VPAND     Y13, Y0, Y0;        \
	VPSHUFB   Y0, Y6, Y0;         \
	VPAND     Y0, Y3, Y3;         \
	VPBLENDVB Y2, Y3, Y1, Y1;     \
	VPCMPEQB  Y5, Y1, Y1;         \
	VMOVDQU   off(SI)(CX*1), Y0;  \
	VPCMPEQB  Y15, Y0, Y0;        \
	VPANDN    Y0, Y1, Y1;         \
	VPMOVMSKB Y1, smask

// STORE1 writes the position of the lowest survivor bit of R12 to out[BX+k]
// and clears that bit. With no bit left it writes garbage past the count,
// which the caller's capacity check leaves room for.
#define STORE1(k) \
	TZCNTQ R12, AX;       \
	ADDQ   CX, AX;        \
	MOVL   AX, k(DI)(BX*4); \
	BLSRQ  R12, R12

// func filterAnchorsAVX2(data []byte, limit int, tab *nibbleTables, out []uint32) (n, next int)
TEXT ·filterAnchorsAVX2(SB), NOSPLIT, $0-80
	MOVQ data_base+0(FP), SI
	MOVQ limit+24(FP), DX
	MOVQ tab+32(FP), AX
	MOVQ out_base+40(FP), DI
	MOVQ out_len+48(FP), R8

	VMOVDQU 0(AX), Y12   // opening hi1
	VMOVDQU 32(AX), Y11  // lo1
	VMOVDQU 64(AX), Y10  // closing hi1
	VMOVDQU 96(AX), Y9   // opening lo2
	VMOVDQU 128(AX), Y8  // opening hi2
	VMOVDQU 160(AX), Y7  // closing lo2
	VMOVDQU 192(AX), Y6  // closing hi2
	MOVQ    $0x3c, AX    // '<'
	MOVQ    AX, X15
	VPBROADCASTB X15, Y15
	MOVQ    $0x2f, AX    // '/'
	MOVQ    AX, X14
	VPBROADCASTB X14, Y14
	MOVQ    $0x0f, AX
	MOVQ    AX, X13
	VPBROADCASTB X13, Y13
	VPXOR   Y5, Y5, Y5

	XORQ BX, BX // survivors written
	XORQ CX, CX // block offset w

loop:
	LEAQ 64(CX), AX
	CMPQ AX, DX
	JGT  done
	LEAQ 64(BX), AX
	CMPQ AX, R8
	JGT  done

	FILTER32(0, 1, 2, 3, R12)
	FILTER32(32, 33, 34, 35, R13)
	SHLQ $32, R13
	ORQ  R13, R12

	// Survivor positions: four unconditional stores cover most blocks.
	POPCNTQ R12, R13
	STORE1(0)
	STORE1(4)
	STORE1(8)
	STORE1(12)
	CMPQ R13, $4
	JHI  more

advance:
	ADDQ R13, BX
	ADDQ $64, CX
	JMP  loop

more:
	LEAQ 4(BX), R14
	LEAQ (BX)(R13*1), R11

moreloop:
	TZCNTQ R12, AX
	ADDQ   CX, AX
	MOVL   AX, (DI)(R14*4)
	BLSRQ  R12, R12
	INCQ   R14
	CMPQ   R14, R11
	JLT    moreloop
	JMP    advance

done:
	VZEROUPPER
	MOVQ BX, n+64(FP)
	MOVQ CX, next+72(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
