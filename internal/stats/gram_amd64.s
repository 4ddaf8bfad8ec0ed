#include "go_asm.h"
#include "textflag.h"

// Row masks: byte r of the 64 bytes at gramMask<>+64-rows is 0xff when
// r < rows and 0 otherwise. The first 16 bytes widen to 0x00ff words.
DATA gramMask<>+0(SB)/8, $0xffffffffffffffff
DATA gramMask<>+8(SB)/8, $0xffffffffffffffff
DATA gramMask<>+16(SB)/8, $0xffffffffffffffff
DATA gramMask<>+24(SB)/8, $0xffffffffffffffff
DATA gramMask<>+32(SB)/8, $0xffffffffffffffff
DATA gramMask<>+40(SB)/8, $0xffffffffffffffff
DATA gramMask<>+48(SB)/8, $0xffffffffffffffff
DATA gramMask<>+56(SB)/8, $0xffffffffffffffff
DATA gramMask<>+64(SB)/8, $0
DATA gramMask<>+72(SB)/8, $0
DATA gramMask<>+80(SB)/8, $0
DATA gramMask<>+88(SB)/8, $0
DATA gramMask<>+96(SB)/8, $0
DATA gramMask<>+104(SB)/8, $0
DATA gramMask<>+112(SB)/8, $0
DATA gramMask<>+120(SB)/8, $0
GLOBL gramMask<>(SB), RODATA|NOPTR, $128

// func gramAVX2(g, sums []int32, a []int16, cols []uint8, groups, rows int, bytes bool)
//
// Widening: each column's 64 bytes become four registers of 16 words
// (VPMOVZXBW), rows past rows are cleared (VPAND with the row masks), and
// x, then x² (VPMULLW) or its h = x² >> 8 (VPSRLW) and l = x² & 0xff
// (VPAND) are stored as A's columns; the 16 word sums of a column
// (at most 4·255 each) pair up into dwords (VPMADDWD by ones), add
// across the register and are added to sums[j]. Column j of cols starts
// j·BlockRows bytes after column 0. Columns m..mpad-1 of A are zeroed.
//
// Gram: row a of G holds A column a in Y0-Y3 and runs four columns b per
// pass from a &^ 3 to mpad: per column four VPMADDWD and three VPADDD
// leave eight dword partial sums, and a VPHADDD tree plus one fold of
// the upper half leaves the chunk's G[a][b..b+3] in one XMM register,
// which a VPADDD from memory adds to the stored entries.
TEXT ·gramAVX2(SB), NOSPLIT, $0-113
	MOVQ    cols_base+72(FP), SI
	MOVQ    a_base+48(FP), DI
	MOVQ    sums_base+24(FP), DX
	MOVQ    groups+96(FP), CX
	MOVQ    rows+104(FP), AX
	MOVBQZX bytes+112(FP), R10
	MOVQ    CX, R8
	SHLQ    $7, R8                  // groups·128: bytes from x_j to q_j or h_j
	LEAQ    gramMask<>+64(SB), BX
	SUBQ    AX, BX
	VPMOVZXBW (BX), Y12
	VPMOVZXBW 16(BX), Y13
	VPMOVZXBW 32(BX), Y14
	VPMOVZXBW 48(BX), Y15
	VPMOVZXBW gramMask<>(SB), Y10 // 0x00ff in every word
	VPSRLW  $7, Y10, Y11            // 0x0001 in every word

widen:
	VPMOVZXBW (SI), Y0
	VPMOVZXBW 16(SI), Y1
	VPMOVZXBW 32(SI), Y2
	VPMOVZXBW 48(SI), Y3
	VPAND   Y12, Y0, Y0
	VPAND   Y13, Y1, Y1
	VPAND   Y14, Y2, Y2
	VPAND   Y15, Y3, Y3
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VPADDW  Y1, Y0, Y4
	VPADDW  Y3, Y2, Y5
	VPADDW  Y5, Y4, Y4
	VPMADDWD Y11, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDD  X5, X4, X4
	VPSHUFD $0x4e, X4, X5
	VPADDD  X5, X4, X4
	VPSHUFD $0xb1, X4, X5
	VPADDD  X5, X4, X4
	VMOVD   X4, R13
	ADDL    R13, (DX)
	VPMULLW Y0, Y0, Y0
	VPMULLW Y1, Y1, Y1
	VPMULLW Y2, Y2, Y2
	VPMULLW Y3, Y3, Y3
	TESTQ   R10, R10
	JNZ     split
	VMOVDQU Y0, (DI)(R8*1)
	VMOVDQU Y1, 32(DI)(R8*1)
	VMOVDQU Y2, 64(DI)(R8*1)
	VMOVDQU Y3, 96(DI)(R8*1)
	JMP     next

split:
	VPSRLW  $8, Y0, Y4
	VPSRLW  $8, Y1, Y5
	VPSRLW  $8, Y2, Y6
	VPSRLW  $8, Y3, Y7
	VMOVDQU Y4, (DI)(R8*1)
	VMOVDQU Y5, 32(DI)(R8*1)
	VMOVDQU Y6, 64(DI)(R8*1)
	VMOVDQU Y7, 96(DI)(R8*1)
	VPAND   Y10, Y0, Y0
	VPAND   Y10, Y1, Y1
	VPAND   Y10, Y2, Y2
	VPAND   Y10, Y3, Y3
	VMOVDQU Y0, (DI)(R8*2)
	VMOVDQU Y1, 32(DI)(R8*2)
	VMOVDQU Y2, 64(DI)(R8*2)
	VMOVDQU Y3, 96(DI)(R8*2)

next:
	ADDQ $const_BlockRows, SI
	ADDQ $128, DI
	ADDQ $4, DX
	DECQ CX
	JNZ  widen

	// R11 = m, R12 = mpad; zero A's columns m..mpad-1.
	MOVQ  groups+96(FP), R9
	LEAQ  (R9)(R9*1), R11
	TESTQ R10, R10
	JZ    cols
	ADDQ  R9, R11

cols:
	LEAQ   3(R11), R12
	ANDQ   $-4, R12
	MOVQ   a_base+48(FP), SI
	MOVQ   R11, AX
	SHLQ   $7, AX
	ADDQ   SI, AX
	MOVQ   R12, BX
	SUBQ   R11, BX
	VPXOR  Y0, Y0, Y0

zero:
	TESTQ   BX, BX
	JZ      gram
	VMOVDQU Y0, (AX)
	VMOVDQU Y0, 32(AX)
	VMOVDQU Y0, 64(AX)
	VMOVDQU Y0, 96(AX)
	ADDQ    $128, AX
	DECQ    BX
	JMP     zero

gram:
	MOVQ g_base+0(FP), DI
	XORQ AX, AX

row:
	MOVQ    AX, BX
	SHLQ    $7, BX
	ADDQ    SI, BX
	VMOVDQU (BX), Y0
	VMOVDQU 32(BX), Y1
	VMOVDQU 64(BX), Y2
	VMOVDQU 96(BX), Y3
	MOVQ    AX, CX
	ANDQ    $-4, CX                 // first column b of the row
	MOVQ    CX, BX
	SHLQ    $7, BX
	ADDQ    SI, BX                  // A column b
	MOVQ    AX, DX
	IMULQ   R12, DX
	ADDQ    CX, DX
	LEAQ    (DI)(DX*4), DX          // G[a][b]
	MOVQ    R12, R8
	SUBQ    CX, R8
	SHRQ    $2, R8                  // passes of four columns

quad:
	VPMADDWD (BX), Y0, Y4
	VPMADDWD 32(BX), Y1, Y5
	VPMADDWD 64(BX), Y2, Y6
	VPMADDWD 96(BX), Y3, Y7
	VPADDD   Y5, Y4, Y4
	VPADDD   Y7, Y6, Y6
	VPADDD   Y6, Y4, Y4
	VPMADDWD 128(BX), Y0, Y5
	VPMADDWD 160(BX), Y1, Y6
	VPMADDWD 192(BX), Y2, Y7
	VPMADDWD 224(BX), Y3, Y8
	VPADDD   Y6, Y5, Y5
	VPADDD   Y8, Y7, Y7
	VPADDD   Y7, Y5, Y5
	VPMADDWD 256(BX), Y0, Y6
	VPMADDWD 288(BX), Y1, Y7
	VPMADDWD 320(BX), Y2, Y8
	VPMADDWD 352(BX), Y3, Y9
	VPADDD   Y7, Y6, Y6
	VPADDD   Y9, Y8, Y8
	VPADDD   Y8, Y6, Y6
	VPMADDWD 384(BX), Y0, Y7
	VPMADDWD 416(BX), Y1, Y8
	VPMADDWD 448(BX), Y2, Y9
	VPMADDWD 480(BX), Y3, Y10
	VPADDD   Y8, Y7, Y7
	VPADDD   Y10, Y9, Y9
	VPADDD   Y9, Y7, Y7
	VPHADDD  Y5, Y4, Y4
	VPHADDD  Y7, Y6, Y6
	VPHADDD  Y6, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDD   X5, X4, X4
	VPADDD   (DX), X4, X4
	VMOVDQU  X4, (DX)
	ADDQ     $512, BX
	ADDQ     $16, DX
	DECQ     R8
	JNZ      quad
	INCQ     AX
	CMPQ     AX, R11
	JLT      row

	VZEROUPPER
	RET
