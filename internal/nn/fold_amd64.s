#include "textflag.h"

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func fold4AVX(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)
//
// Each lane runs y + a0·x0, then adds a1·x1, a2·x2 and a3·x3 in turn:
// one VMULPD and one VADDPD per term, rounded as the scalar MULSD and
// ADDSD round. Elements past the last multiple of four take the same
// steps one at a time.
TEXT ·fold4AVX(SB), NOSPLIT, $0-152
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ x0_base+56(FP), R8
	MOVQ x1_base+80(FP), R9
	MOVQ x2_base+104(FP), R10
	MOVQ x3_base+128(FP), R11
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   tail

lanes:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     lanes

tail:
	CMPQ AX, CX
	JGE  done

scalar:
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R11)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    scalar

done:
	VZEROUPPER
	RET
