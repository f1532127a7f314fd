//go:build amd64 && !purego

#include "textflag.h"

// FILTER32 filters the 32 anchor candidates at data[w+off:w+off+32] (SI =
// data, CX = w): the '<' lanes whose bucket may be non-empty go to the
// survivor bits smask. A lane's
// bucket byte is the byte after the '<', or after "</" the byte after the
// slash; each is tested with two VPSHUFB nibble lookups (Y12/Y11 for
// opening keywords, Y10/Y9 for closing ones) whose AND is non-zero exactly
// when the nibble tables admit the byte.
#define FILTER32(off, off1, off2, smask) \
	VMOVDQU  off(SI)(CX*1), Y0;  \
	VMOVDQU  off1(SI)(CX*1), Y1; \
	VMOVDQU  off2(SI)(CX*1), Y2; \
	VPCMPEQB Y15, Y0, Y0;        \
	VPAND    Y13, Y1, Y3;        \
	VPSRLW   $4, Y1, Y4;         \
	VPAND    Y13, Y4, Y4;        \
	VPSHUFB  Y3, Y12, Y3;        \
	VPSHUFB  Y4, Y11, Y4;        \
	VPAND    Y4, Y3, Y3;         \
	VPAND    Y13, Y2, Y5;        \
	VPSRLW   $4, Y2, Y6;         \
	VPAND    Y13, Y6, Y6;        \
	VPSHUFB  Y5, Y10, Y5;        \
	VPSHUFB  Y6, Y9, Y6;         \
	VPAND    Y6, Y5, Y5;         \
	VPCMPEQB Y14, Y1, Y1;        \
	VPBLENDVB Y1, Y5, Y3, Y3;    \
	VPCMPEQB Y8, Y3, Y3;         \
	VPANDN   Y0, Y3, Y3;         \
	VPMOVMSKB Y3, smask

// STORE1 writes the position of the lowest survivor bit of R12 to out[BX+k]
// and clears that bit. With no bit left it writes garbage past the count,
// which the caller's capacity check leaves room for.
#define STORE1(k) \
	TZCNTQ R12, AX;       \
	ADDQ   CX, AX;        \
	MOVL   AX, k(DI)(BX*4); \
	BLSRQ  R12, R12

// func filterAnchorsAVX2(data []byte, limit int, tab *[128]byte, out []uint32) (n, next int)
TEXT ·filterAnchorsAVX2(SB), NOSPLIT, $0-80
	MOVQ data_base+0(FP), SI
	MOVQ limit+24(FP), DX
	MOVQ tab+32(FP), AX
	MOVQ out_base+40(FP), DI
	MOVQ out_len+48(FP), R8

	VMOVDQU 0(AX), Y12  // opening keywords: low-nibble table
	VMOVDQU 32(AX), Y11 // opening keywords: high-nibble table
	VMOVDQU 64(AX), Y10 // closing keywords: low-nibble table
	VMOVDQU 96(AX), Y9  // closing keywords: high-nibble table
	MOVQ    $0x3c, AX   // '<'
	MOVQ    AX, X15
	VPBROADCASTB X15, Y15
	MOVQ    $0x2f, AX   // '/'
	MOVQ    AX, X14
	VPBROADCASTB X14, Y14
	MOVQ    $0x0f, AX
	MOVQ    AX, X13
	VPBROADCASTB X13, Y13
	VPXOR   Y8, Y8, Y8

	XORQ BX, BX // survivors written
	XORQ CX, CX // block offset w

loop:
	LEAQ 64(CX), AX
	CMPQ AX, DX
	JGT  done
	LEAQ 64(BX), AX
	CMPQ AX, R8
	JGT  done

	FILTER32(0, 1, 2, R12)
	FILTER32(32, 33, 34, R13)
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
