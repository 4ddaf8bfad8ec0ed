#include "textflag.h"

// func adamAVX(p, g, m, v []float64, h adamCoef)
//
// Each lane evaluates adamGo's expressions in its order, one VMULPD,
// VADDPD, VDIVPD, VSQRTPD or VSUBPD per operation, each rounded as the
// scalar MULSD, ADDSD, DIVSD, SQRTSD or SUBSD is. Y8–Y15 hold h's fields
// broadcast. Elements past the last multiple of four take the same steps
// one at a time with the scalar VEX forms.
TEXT ·adamAVX(SB), NOSPLIT, $0-160
	MOVQ         p_base+0(FP), DI
	MOVQ         p_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	VBROADCASTSD h_beta1+96(FP), Y8
	VBROADCASTSD h_c1+104(FP), Y9
	VBROADCASTSD h_beta2+112(FP), Y10
	VBROADCASTSD h_c2+120(FP), Y11
	VBROADCASTSD h_lr+128(FP), Y12
	VBROADCASTSD h_bc1+136(FP), Y13
	VBROADCASTSD h_bc2+144(FP), Y14
	VBROADCASTSD h_eps+152(FP), Y15
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           tail

lanes:
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (R8)(AX*8), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y10, Y2
	VMULPD  Y0, Y11, Y3
	VMULPD  Y0, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y2, (R9)(AX*8)
	VDIVPD  Y13, Y1, Y1
	VMULPD  Y1, Y12, Y1
	VDIVPD  Y14, Y2, Y2
	VSQRTPD Y2, Y2
	VADDPD  Y15, Y2, Y2
	VDIVPD  Y2, Y1, Y1
	VMOVUPD (DI)(AX*8), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     lanes

tail:
	CMPQ AX, CX
	JGE  done

scalar:
	VMOVSD  (SI)(AX*8), X0
	VMULSD  (R8)(AX*8), X8, X1
	VMULSD  X0, X9, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (R8)(AX*8)
	VMULSD  (R9)(AX*8), X10, X2
	VMULSD  X0, X11, X3
	VMULSD  X0, X3, X3
	VADDSD  X3, X2, X2
	VMOVSD  X2, (R9)(AX*8)
	VDIVSD  X13, X1, X1
	VMULSD  X1, X12, X1
	VDIVSD  X14, X2, X2
	VSQRTSD X2, X2, X2
	VADDSD  X15, X2, X2
	VDIVSD  X2, X1, X1
	VMOVSD  (DI)(AX*8), X3
	VSUBSD  X1, X3, X3
	VMOVSD  X3, (DI)(AX*8)
	INCQ    AX
	CMPQ    AX, CX
	JLT     scalar

done:
	VZEROUPPER
	RET
