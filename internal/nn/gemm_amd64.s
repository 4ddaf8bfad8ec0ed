#include "textflag.h"

// func gemmAVX(m, n, k int, a []float64, ai, ak int, b []float64, ldb int, c []float64, ldc int)
//
// C += A·B for m, k > 0 and n a positive multiple of 16. A tile of C, two
// rows by 16 columns (one row for an odd last row), stays in Y0–Y7 across
// all of k. Term kk loads B[kk][j..j+15] into Y8–Y11, broadcasts A[i][kk]
// and A[i+1][kk] into Y12 and Y13, and runs one VMULPD and one VADDPD per
// accumulator: each lane adds the rounded product to its running value,
// as the scalar MULSD and ADDSD of gemmGo do.
//
// Registers: DI the tile of C, R12 the tile's columns of B's row 0, SI
// A's row i, R13 A's column kk in that row, AX the byte offset of B's row
// kk and CX that of row k; R8, R9, R10 and R11 hold ldc, ai, ak and ldb
// in bytes; BX counts rows left and DX tiles left in a row.
TEXT ·gemmAVX(SB), NOSPLIT, $0-128
	MOVQ  k+16(FP), CX
	MOVQ  a_base+24(FP), SI
	MOVQ  ai+48(FP), R9
	SHLQ  $3, R9
	MOVQ  ak+56(FP), R10
	SHLQ  $3, R10
	MOVQ  ldb+88(FP), R11
	SHLQ  $3, R11
	MOVQ  c_base+96(FP), DI
	MOVQ  ldc+120(FP), R8
	SHLQ  $3, R8
	IMULQ R11, CX
	MOVQ  m+0(FP), BX

pair:
	CMPQ BX, $2
	JLT  last
	MOVQ b_base+64(FP), R12
	MOVQ n+8(FP), DX
	SHRQ $4, DX

pairtile:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD (DI)(R8*1), Y4
	VMOVUPD 32(DI)(R8*1), Y5
	VMOVUPD 64(DI)(R8*1), Y6
	VMOVUPD 96(DI)(R8*1), Y7
	MOVQ    SI, R13
	XORQ    AX, AX

pairterm:
	VMOVUPD      (R12)(AX*1), Y8
	VMOVUPD      32(R12)(AX*1), Y9
	VMOVUPD      64(R12)(AX*1), Y10
	VMOVUPD      96(R12)(AX*1), Y11
	VBROADCASTSD (R13), Y12
	VBROADCASTSD (R13)(R9*1), Y13
	VMULPD       Y12, Y8, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y12, Y9, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y12, Y10, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y12, Y11, Y15
	VADDPD       Y15, Y3, Y3
	VMULPD       Y13, Y8, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       Y13, Y9, Y15
	VADDPD       Y15, Y5, Y5
	VMULPD       Y13, Y10, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y13, Y11, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         R10, R13
	ADDQ         R11, AX
	CMPQ         AX, CX
	JNE          pairterm

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (DI)(R8*1)
	VMOVUPD Y5, 32(DI)(R8*1)
	VMOVUPD Y6, 64(DI)(R8*1)
	VMOVUPD Y7, 96(DI)(R8*1)
	ADDQ    $128, DI
	ADDQ    $128, R12
	DECQ    DX
	JNZ     pairtile

	// Back to column 0, two rows down in C and in A.
	MOVQ n+8(FP), DX
	SHLQ $3, DX
	SUBQ DX, DI
	LEAQ (DI)(R8*2), DI
	LEAQ (SI)(R9*2), SI
	SUBQ $2, BX
	JMP  pair

last:
	TESTQ BX, BX
	JZ    done
	MOVQ  b_base+64(FP), R12
	MOVQ  n+8(FP), DX
	SHRQ  $4, DX

lasttile:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ    SI, R13
	XORQ    AX, AX

lastterm:
	VMOVUPD      (R12)(AX*1), Y8
	VMOVUPD      32(R12)(AX*1), Y9
	VMOVUPD      64(R12)(AX*1), Y10
	VMOVUPD      96(R12)(AX*1), Y11
	VBROADCASTSD (R13), Y12
	VMULPD       Y12, Y8, Y14
	VADDPD       Y14, Y0, Y0
	VMULPD       Y12, Y9, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y12, Y10, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y12, Y11, Y15
	VADDPD       Y15, Y3, Y3
	ADDQ         R10, R13
	ADDQ         R11, AX
	CMPQ         AX, CX
	JNE          lastterm

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R12
	DECQ    DX
	JNZ     lasttile

done:
	VZEROUPPER
	RET
