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

// x² for x = 0..15, in both 128-bit lanes: VPSHUFB looks up per lane.
DATA squares<>+0(SB)/8, $0x3124191009040100
DATA squares<>+8(SB)/8, $0xe1c4a99079645140
DATA squares<>+16(SB)/8, $0x3124191009040100
DATA squares<>+24(SB)/8, $0xe1c4a99079645140
GLOBL squares<>(SB), RODATA|NOPTR, $32

// 1 in every 16-bit word: VPMADDWD by it widens word lanes to dwords.
DATA wordOnes<>+0(SB)/8, $0x0001000100010001
DATA wordOnes<>+8(SB)/8, $0x0001000100010001
DATA wordOnes<>+16(SB)/8, $0x0001000100010001
DATA wordOnes<>+24(SB)/8, $0x0001000100010001
GLOBL wordOnes<>(SB), RODATA|NOPTR, $32

// func gramAVX2(g, sums []int32, a []int16, cols []uint8, groups, rows int)
//
// Widening: each column's 64 bytes become four registers of 16 words
// (VPMOVZXBW), rows past rows are cleared (VPAND with the row masks), and
// x, then x² (VPMULLW) split into h = x² >> 8 (VPSRLW) and l = x² & 0xff
// (VPAND), are stored as A's columns; the 16 word sums of a column
// (at most 4·255 each) pair up into dwords (VPMADDWD by ones), add
// across the register and are added to sums[j]. Column j of cols starts
// j·BlockRows bytes after column 0. Columns m..mpad-1 of A are zeroed.
//
// Gram: row a of G holds A column a in Y0-Y3 and runs four columns b per
// pass from a &^ 3 to mpad: per column four VPMADDWD and three VPADDD
// leave eight dword partial sums, and a VPHADDD tree plus one fold of
// the upper half leaves the chunk's G[a][b..b+3] in one XMM register,
// which a VPADDD from memory adds to the stored entries.
TEXT ·gramAVX2(SB), NOSPLIT, $0-112
	MOVQ    cols_base+72(FP), SI
	MOVQ    a_base+48(FP), DI
	MOVQ    sums_base+24(FP), DX
	MOVQ    groups+96(FP), CX
	MOVQ    rows+104(FP), AX
	MOVQ    CX, R8
	SHLQ    $7, R8                  // groups·128: bytes from x_j to h_j
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
	ADDQ $const_BlockRows, SI
	ADDQ $128, DI
	ADDQ $4, DX
	DECQ CX
	JNZ  widen

	// R11 = m = 3·groups, R12 = mpad; zero A's columns m..mpad-1.
	MOVQ   groups+96(FP), R9
	LEAQ   (R9)(R9*2), R11
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

// func laneGramAVX2(tri, sums []int32, lanes, cols []uint8, groups, rows int)
//
// Staging: a column's rows run in steps of 32 bytes, ceil(rows/32) of
// them; the last step is ANDed with the row mask of its live rows. Step
// s fills the 128 bytes at s·128 of the column's stripe: x, q = x²
// (VPSHUFB through squares<>), and q zero-extended to words (VPMOVZXBW),
// so one pointer and fixed displacements reach all four. VPSADBW's four
// byte sums of x add up to the column's Σx. An odd step count gets one
// more step of zeros, so the products run in double steps of 64 rows.
//
// Products: row a runs its pairs two columns b0, b1 at a time, sharing
// the loads of column a; the last pair of an odd row repeats b0 as b1
// and stores one result. Per pair, Σx_a x_b, Σq_a x_b and Σx_a q_b add
// up in 16-bit lanes (VPMADDUBSW of unsigned x_a, q_a and q_b by signed
// x_b, x_b and x_a). Σq_a x_b and Σx_a q_b widen into dword lanes
// (VPMADDWD by ones) after every four steps; Σx_a x_b, whose lanes reach
// only 8·2·15² = 3,600 over a block, widens once at the end. Σq_a q_b
// adds VPMADDWD's dwords of the 16-bit q every step. Every sum stays in
// a register. A VPHADDD tree and one fold of the upper half reduce a
// pair's four dword registers to one XMM register of its four sums,
// stored at the pair's place in tri.
TEXT ·laneGramAVX2(SB), NOSPLIT, $0-112
	MOVQ    cols_base+72(FP), SI
	MOVQ    lanes_base+48(FP), DI
	MOVQ    sums_base+24(FP), DX
	MOVQ    groups+96(FP), CX
	MOVQ    rows+104(FP), AX
	LEAQ    31(AX), R8
	SHRQ    $5, R8                  // R8 = steps of 32 rows
	MOVQ    R8, R9
	SHLQ    $5, R9
	SUBQ    AX, R9                  // 32·steps - rows: dead rows of the last step
	LEAQ    gramMask<>+32(SB), BX
	ADDQ    R9, BX
	VMOVDQU (BX), Y13               // live rows of the last step
	VMOVDQU squares<>(SB), Y14
	VPXOR   Y15, Y15, Y15

stage:
	VPXOR   Y12, Y12, Y12           // Σx in four qwords
	MOVQ    R8, R10
	XORQ    R11, R11
	TESTQ   R10, R10
	JZ      staged

stagestep:
	VMOVDQU (SI)(R11*1), Y0
	CMPQ    R10, $1
	JNE     live
	VPAND   Y13, Y0, Y0

live:
	VMOVDQU Y0, (DI)(R11*4)
	VPSADBW Y15, Y0, Y1
	VPADDQ  Y1, Y12, Y12
	VPSHUFB Y0, Y14, Y1
	VMOVDQU Y1, 32(DI)(R11*4)
	VPMOVZXBW X1, Y2
	VEXTRACTI128 $1, Y1, X1
	VPMOVZXBW X1, Y3
	VMOVDQU Y2, 64(DI)(R11*4)
	VMOVDQU Y3, 96(DI)(R11*4)
	ADDQ    $32, R11
	DECQ    R10
	JNZ     stagestep
	TESTQ   $1, R8
	JZ      staged
	VMOVDQU Y15, (DI)(R11*4)
	VMOVDQU Y15, 32(DI)(R11*4)
	VMOVDQU Y15, 64(DI)(R11*4)
	VMOVDQU Y15, 96(DI)(R11*4)

staged:
	VEXTRACTI128 $1, Y12, X1
	VPADDQ  X1, X12, X1
	VPSHUFD $0x4e, X1, X2
	VPADDQ  X2, X1, X1
	VMOVD   X1, R9
	MOVL    R9, (DX)
	ADDQ    $const_BlockRows, SI
	ADDQ    $const_laneColBytes, DI
	ADDQ    $4, DX
	DECQ    CX
	JNZ     stage

	INCQ     R8
	SHRQ     $1, R8                 // R8 = double steps of 64 rows
	MOVQ     lanes_base+48(FP), SI  // column a's stripe
	MOVQ     tri_base+0(FP), DX
	MOVQ     groups+96(FP), CX      // groups - a
	LEAQ     wordOnes<>(SB), AX

pairA:
	MOVQ SI, DI                     // column b0's stripe, from b0 = a
	MOVQ CX, BX                     // pairs left in row a

pairB:
	MOVQ  SI, R14                   // column a, at the current step
	MOVQ  DI, R9                    // column b0
	LEAQ  const_laneColBytes(DI), R13 // column b1
	CMPQ  BX, $1
	JNE   two
	MOVQ  DI, R13

two:
	VPXOR Y4, Y4, Y4                // Σx_a x_b0, 16-bit
	VPXOR Y7, Y7, Y7                // Σx_a x_b1, 16-bit
	VPXOR Y10, Y10, Y10             // Σq_a q_b0
	VPXOR Y11, Y11, Y11             // Σq_a q_b1
	VPXOR Y12, Y12, Y12             // Σq_a x_b0
	VPXOR Y13, Y13, Y13             // Σx_a q_b0
	VPXOR Y14, Y14, Y14             // Σq_a x_b1
	VPXOR Y15, Y15, Y15             // Σx_a q_b1
	MOVQ  R8, R10
	TESTQ R10, R10
	JZ    reduce

group:
	VPXOR Y5, Y5, Y5                // Σq_a x_b0, 16-bit
	VPXOR Y6, Y6, Y6                // Σx_a q_b0, 16-bit
	VPXOR Y8, Y8, Y8                // Σq_a x_b1, 16-bit
	VPXOR Y9, Y9, Y9                // Σx_a q_b1, 16-bit
	MOVQ  $2, R12

// PRODUCTS adds one step's products at displacement off of the stripes.
#define PRODUCTS(off) \
	VMOVDQU    off(R14), Y0 \
	VMOVDQU    off+32(R14), Y1 \
	VMOVDQU    off+32(R9), Y2 \
	VPMADDUBSW off(R9), Y0, Y3 \
	VPADDW     Y3, Y4, Y4 \
	VPMADDUBSW off(R9), Y1, Y3 \
	VPADDW     Y3, Y5, Y5 \
	VPMADDUBSW Y0, Y2, Y3 \
	VPADDW     Y3, Y6, Y6 \
	VMOVDQU    off+32(R13), Y2 \
	VPMADDUBSW off(R13), Y0, Y3 \
	VPADDW     Y3, Y7, Y7 \
	VPMADDUBSW off(R13), Y1, Y3 \
	VPADDW     Y3, Y8, Y8 \
	VPMADDUBSW Y0, Y2, Y3 \
	VPADDW     Y3, Y9, Y9 \
	VMOVDQU    off+64(R14), Y0 \
	VMOVDQU    off+96(R14), Y1 \
	VPMADDWD   off+64(R9), Y0, Y2 \
	VPMADDWD   off+96(R9), Y1, Y3 \
	VPADDD     Y2, Y10, Y10 \
	VPADDD     Y3, Y10, Y10 \
	VPMADDWD   off+64(R13), Y0, Y2 \
	VPMADDWD   off+96(R13), Y1, Y3 \
	VPADDD     Y2, Y11, Y11 \
	VPADDD     Y3, Y11, Y11

step:
	PRODUCTS(0)
	PRODUCTS(128)
	ADDQ $256, R14
	ADDQ $256, R9
	ADDQ $256, R13
	DECQ R10
	JZ   widenLanes
	DECQ R12
	JNZ  step

widenLanes:
	VPMADDWD (AX), Y5, Y5
	VPMADDWD (AX), Y6, Y6
	VPMADDWD (AX), Y8, Y8
	VPMADDWD (AX), Y9, Y9
	VPADDD   Y5, Y12, Y12
	VPADDD   Y6, Y13, Y13
	VPADDD   Y8, Y14, Y14
	VPADDD   Y9, Y15, Y15
	TESTQ    R10, R10
	JNZ      group

reduce:
	VPMADDWD     (AX), Y4, Y4
	VPMADDWD     (AX), Y7, Y7
	VPHADDD      Y12, Y4, Y4
	VPHADDD      Y10, Y13, Y13
	VPHADDD      Y13, Y4, Y4
	VEXTRACTI128 $1, Y4, X0
	VPADDD       X0, X4, X4
	VMOVDQU      X4, (DX)
	CMPQ         BX, $1
	JEQ          lastPair
	VPHADDD      Y14, Y7, Y7
	VPHADDD      Y11, Y15, Y15
	VPHADDD      Y15, Y7, Y7
	VEXTRACTI128 $1, Y7, X0
	VPADDD       X0, X7, X7
	VMOVDQU      X7, 16(DX)
	ADDQ         $32, DX
	ADDQ         $(2*const_laneColBytes), DI
	SUBQ         $2, BX
	JNZ          pairB
	JMP          nextA

lastPair:
	ADDQ $16, DX

nextA:
	ADDQ $const_laneColBytes, SI
	DECQ CX
	JNZ  pairA

	VZEROUPPER
	RET
