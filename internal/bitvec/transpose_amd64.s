#include "textflag.h"

// Stage masks, one 32-byte row each. Stages 32, 16, 8 and 4 mask all four
// words of a register. Stage 2 masks words 0 and 1, whose partners are
// words 2 and 3 of the same register; stage 1 masks words 0 and 2, whose
// partners are words 1 and 3.
DATA transposeMask<>+0(SB)/8, $0x00000000ffffffff
DATA transposeMask<>+8(SB)/8, $0x00000000ffffffff
DATA transposeMask<>+16(SB)/8, $0x00000000ffffffff
DATA transposeMask<>+24(SB)/8, $0x00000000ffffffff
DATA transposeMask<>+32(SB)/8, $0x0000ffff0000ffff
DATA transposeMask<>+40(SB)/8, $0x0000ffff0000ffff
DATA transposeMask<>+48(SB)/8, $0x0000ffff0000ffff
DATA transposeMask<>+56(SB)/8, $0x0000ffff0000ffff
DATA transposeMask<>+64(SB)/8, $0x00ff00ff00ff00ff
DATA transposeMask<>+72(SB)/8, $0x00ff00ff00ff00ff
DATA transposeMask<>+80(SB)/8, $0x00ff00ff00ff00ff
DATA transposeMask<>+88(SB)/8, $0x00ff00ff00ff00ff
DATA transposeMask<>+96(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA transposeMask<>+104(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA transposeMask<>+112(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA transposeMask<>+120(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA transposeMask<>+128(SB)/8, $0x3333333333333333
DATA transposeMask<>+136(SB)/8, $0x3333333333333333
DATA transposeMask<>+144(SB)/8, $0
DATA transposeMask<>+152(SB)/8, $0
DATA transposeMask<>+160(SB)/8, $0x5555555555555555
DATA transposeMask<>+168(SB)/8, $0
DATA transposeMask<>+176(SB)/8, $0x5555555555555555
DATA transposeMask<>+184(SB)/8, $0
GLOBL transposeMask<>(SB), RODATA|NOPTR, $192

// SWAP is stage j between registers lo and hi, word for word:
// t = (lo >> j ^ hi) & mask, hi ^= t, lo ^= t << j.
#define SWAP(j, lo, hi, mask, t) \
	VPSRLQ j, lo, t;  \
	VPXOR  hi, t, t;  \
	VPAND  mask, t, t; \
	VPXOR  t, hi, hi; \
	VPSLLQ j, t, t;   \
	VPXOR  t, lo, lo

// INREG is stage j inside register r. perm moves each word's partner
// alongside it, the masked t lands in the low word of each pair, and perm
// moves t back onto the partner: r ^= t << j ^ perm(t).
#define INREG(perm, j, r, mask, p, t) \
	perm   $0x4e, r, p; \
	VPSRLQ j, r, t;     \
	VPXOR  p, t, t;     \
	VPAND  mask, t, t;  \
	VPSLLQ j, t, p;     \
	VPXOR  p, r, r;     \
	perm   $0x4e, t, t; \
	VPXOR  t, r, r

// func transposeAVX2(a *[64]uint64)
//
// Register R_i holds words 4i..4i+3. The stages commute, so they run in
// two passes of eight registers. Pass 1 takes the even registers, then the
// odd ones: R_i pairs with R_(i+8) at stage 32, R_(i+4) at 16 and R_(i+2)
// at 8. Pass 2 takes R_0..R_7, then R_8..R_15: R_i pairs with R_(i+1) at
// stage 4, and stages 2 and 1 pair words of one register.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-8
	MOVQ    a+0(FP), DI
	VMOVDQU transposeMask<>+0(SB), Y13
	VMOVDQU transposeMask<>+32(SB), Y14
	VMOVDQU transposeMask<>+64(SB), Y15
	MOVQ    DI, SI
	MOVQ    $2, CX

pass1:
	VMOVDQU 0(SI), Y0
	VMOVDQU 64(SI), Y1
	VMOVDQU 128(SI), Y2
	VMOVDQU 192(SI), Y3
	VMOVDQU 256(SI), Y4
	VMOVDQU 320(SI), Y5
	VMOVDQU 384(SI), Y6
	VMOVDQU 448(SI), Y7
	SWAP($32, Y0, Y4, Y13, Y8)
	SWAP($32, Y1, Y5, Y13, Y9)
	SWAP($32, Y2, Y6, Y13, Y10)
	SWAP($32, Y3, Y7, Y13, Y11)
	SWAP($16, Y0, Y2, Y14, Y8)
	SWAP($16, Y1, Y3, Y14, Y9)
	SWAP($16, Y4, Y6, Y14, Y10)
	SWAP($16, Y5, Y7, Y14, Y11)
	SWAP($8, Y0, Y1, Y15, Y8)
	SWAP($8, Y2, Y3, Y15, Y9)
	SWAP($8, Y4, Y5, Y15, Y10)
	SWAP($8, Y6, Y7, Y15, Y11)
	VMOVDQU Y0, 0(SI)
	VMOVDQU Y1, 64(SI)
	VMOVDQU Y2, 128(SI)
	VMOVDQU Y3, 192(SI)
	VMOVDQU Y4, 256(SI)
	VMOVDQU Y5, 320(SI)
	VMOVDQU Y6, 384(SI)
	VMOVDQU Y7, 448(SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     pass1

	VMOVDQU transposeMask<>+96(SB), Y13
	VMOVDQU transposeMask<>+128(SB), Y14
	VMOVDQU transposeMask<>+160(SB), Y15
	MOVQ    DI, SI
	MOVQ    $2, CX

pass2:
	VMOVDQU 0(SI), Y0
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VMOVDQU 128(SI), Y4
	VMOVDQU 160(SI), Y5
	VMOVDQU 192(SI), Y6
	VMOVDQU 224(SI), Y7
	SWAP($4, Y0, Y1, Y13, Y8)
	SWAP($4, Y2, Y3, Y13, Y9)
	SWAP($4, Y4, Y5, Y13, Y10)
	SWAP($4, Y6, Y7, Y13, Y11)
	INREG(VPERMQ, $2, Y0, Y14, Y8, Y9)
	INREG(VPERMQ, $2, Y1, Y14, Y10, Y11)
	INREG(VPERMQ, $2, Y2, Y14, Y8, Y9)
	INREG(VPERMQ, $2, Y3, Y14, Y10, Y11)
	INREG(VPERMQ, $2, Y4, Y14, Y8, Y9)
	INREG(VPERMQ, $2, Y5, Y14, Y10, Y11)
	INREG(VPERMQ, $2, Y6, Y14, Y8, Y9)
	INREG(VPERMQ, $2, Y7, Y14, Y10, Y11)
	INREG(VPSHUFD, $1, Y0, Y15, Y8, Y9)
	INREG(VPSHUFD, $1, Y1, Y15, Y10, Y11)
	INREG(VPSHUFD, $1, Y2, Y15, Y8, Y9)
	INREG(VPSHUFD, $1, Y3, Y15, Y10, Y11)
	INREG(VPSHUFD, $1, Y4, Y15, Y8, Y9)
	INREG(VPSHUFD, $1, Y5, Y15, Y10, Y11)
	INREG(VPSHUFD, $1, Y6, Y15, Y8, Y9)
	INREG(VPSHUFD, $1, Y7, Y15, Y10, Y11)
	VMOVDQU Y0, 0(SI)
	VMOVDQU Y1, 32(SI)
	VMOVDQU Y2, 64(SI)
	VMOVDQU Y3, 96(SI)
	VMOVDQU Y4, 128(SI)
	VMOVDQU Y5, 160(SI)
	VMOVDQU Y6, 192(SI)
	VMOVDQU Y7, 224(SI)
	ADDQ    $256, SI
	DECQ    CX
	JNZ     pass2

	VZEROUPPER
	RET
