#include "textflag.h"

// The bodies of expSlice, LogSlice and tanhSlice replay package math's
// amd64 code on four lanes: archExp's fused body (exp_amd64.s), archLog
// (log_amd64.s) and math.tanh (tanh.go), one vector instruction per
// scalar instruction, in the same order. Every lane of VMULPD, VADDPD,
// VSUBPD, VDIVPD, VFMADD213PD and VFNMADD231PD rounds as MULSD, ADDSD,
// SUBSD, DIVSD, VFMADD213SD and VFNMADD231SD do, and VCVTPD2DQ rounds as
// CVTSD2SL does under Go's default MXCSR, so each lane returns math's
// bits. A body stops at the first group of four with a lane outside its
// fast range and returns how many elements it wrote; the caller runs
// math on that group and on the tail.

// LANES4 stores the 64-bit value v four times from byte off of vmathc<>,
// one 32-byte row that a vector instruction reads as a memory operand.
#define LANES4(off, v) \
	DATA vmathc<>+(off)(SB)/8, v \
	DATA vmathc<>+(off+8)(SB)/8, v \
	DATA vmathc<>+(off+16)(SB)/8, v \
	DATA vmathc<>+(off+24)(SB)/8, v

// archExp's constants; expT8 to expT3 are its Taylor coefficients 1/n!.
#define expLog2e 0
#define expLn2U 32
#define expLn2L 64
#define expSixteenth 96
#define expT8 128
#define expT7 160
#define expT6 192
#define expT5 224
#define expT4 256
#define expT3 288
#define expBias 320
#define expLo 352
#define expHi 384
LANES4(expLog2e, $1.4426950408889634073599246810018920)
LANES4(expLn2U, $0.69314718055966295651160180568695068359375)
LANES4(expLn2L, $0.28235290563031577122588448175013436025525412068e-12)
LANES4(expSixteenth, $0.0625)
LANES4(expT8, $2.4801587301587301587e-5)
LANES4(expT7, $1.9841269841269841270e-4)
LANES4(expT6, $1.3888888888888888889e-3)
LANES4(expT5, $8.3333333333333333333e-3)
LANES4(expT4, $4.1666666666666666667e-2)
LANES4(expT3, $1.6666666666666666667e-1)
LANES4(expBias, $0x3ff)
LANES4(expLo, $-708.0)
LANES4(expHi, $709.0)

// Shared constants.
#define cHalf 416
#define cOne 448
#define cTwo 480
#define cMax 512
LANES4(cHalf, $0.5)
LANES4(cOne, $1.0)
LANES4(cTwo, $2.0)
LANES4(cMax, $0x7fefffffffffffff) // math.MaxFloat64

// archLog's constants.
#define logHSqrt2 544
#define logLn2Hi 576
#define logLn2Lo 608
#define logL1 640
#define logL2 672
#define logL3 704
#define logL4 736
#define logL5 768
#define logL6 800
#define logL7 832
#define logMant 864
#define logMagic 896
#define logMagicK 928
#define logLo 960
LANES4(logHSqrt2, $7.07106781186547524401e-01)
LANES4(logLn2Hi, $6.93147180369123816490e-01)
LANES4(logLn2Lo, $1.90821492927058770002e-10)
LANES4(logL1, $6.666666666666735130e-01)
LANES4(logL2, $3.999999999940941908e-01)
LANES4(logL3, $2.857142874366239149e-01)
LANES4(logL4, $2.222219843214978396e-01)
LANES4(logL5, $1.818357216161805012e-01)
LANES4(logL6, $1.531383769920937332e-01)
LANES4(logL7, $1.479819860511658591e-01)
LANES4(logMant, $0x000fffffffffffff)
LANES4(logMagic, $0x4338000000000000)  // 1.5·2^52
LANES4(logMagicK, $0x43380000000003fe) // 1.5·2^52 + 0x3fe
LANES4(logLo, $0x0010000000000000)     // the smallest normal float64

// math.tanh's constants.
#define tanhP0 992
#define tanhP1 1024
#define tanhP2 1056
#define tanhQ0 1088
#define tanhQ1 1120
#define tanhQ2 1152
#define tanhExpFrom 1184
#define tanhOneFrom 1216
#define tanhAbs 1248
#define tanhSign 1280
LANES4(tanhP0, $-9.64399179425052238628e-1)
LANES4(tanhP1, $-9.92877231001918586564e1)
LANES4(tanhP2, $-1.61468768441708447952e3)
LANES4(tanhQ0, $1.12811678491632931402e2)
LANES4(tanhQ1, $2.23548839060100448583e3)
LANES4(tanhQ2, $4.84406305325125486048e3)
LANES4(tanhExpFrom, $0.625)
LANES4(tanhOneFrom, $0x404601e678fc457b) // 0.5·MAXLOG
LANES4(tanhAbs, $0x7fffffffffffffff)
LANES4(tanhSign, $0x8000000000000000)
GLOBL vmathc<>(SB), RODATA, $1312

#define K(off) vmathc<>+(off)(SB)

// EXP replaces each lane x of Y0 by exp(x), replaying archExp's fused
// body for x·log2e in int32 range and 2^k a normal float64 (the caller
// keeps x in [−708, 709]). It clobbers Y1 and Y2.
#define EXP \
	VMULPD       K(expLog2e), Y0, Y1 \
	VCVTPD2DQY   Y1, X2 \
	VCVTDQ2PD    X2, Y1 \
	VFNMADD231PD K(expLn2U), Y1, Y0 \
	VFNMADD231PD K(expLn2L), Y1, Y0 \
	VMULPD       K(expSixteenth), Y0, Y0 \
	VMOVUPD      K(expT8), Y1 \
	VFMADD213PD  K(expT7), Y0, Y1 \
	VFMADD213PD  K(expT6), Y0, Y1 \
	VFMADD213PD  K(expT5), Y0, Y1 \
	VFMADD213PD  K(expT4), Y0, Y1 \
	VFMADD213PD  K(expT3), Y0, Y1 \
	VFMADD213PD  K(cHalf), Y0, Y1 \
	VFMADD213PD  K(cOne), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       K(cTwo), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       K(cTwo), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       K(cTwo), Y0, Y1 \
	VMULPD       Y1, Y0, Y0 \
	VADDPD       K(cTwo), Y0, Y1 \
	VFMADD213PD  K(cOne), Y1, Y0 \
	VPMOVSXDQ    X2, Y2 \
	VPADDQ       K(expBias), Y2, Y2 \
	VPSLLQ       $52, Y2, Y2 \
	VMULPD       Y2, Y0, Y0

// LOADCHECK loads the next four elements of src into Y0 and leaves the
// loop unless every lane x has lo <= x <= hi; both comparisons are false
// for NaN.
#define LOADCHECK(lo, hi) \
	VMOVUPD   (SI)(AX*8), Y0 \
	VCMPPD    $0x1d, lo, Y0, Y1 \
	VCMPPD    $0x12, hi, Y0, Y2 \
	VANDPD    Y2, Y1, Y1 \
	VMOVMSKPD Y1, DX \
	CMPQ      DX, $15 \
	JNE       done

// func expAVX2(dst, src []float64) int
//
// Lanes in [−708, 709]: there k = round(x·log2e) lies in [−1021, 1023], so
// archExp takes neither its overflow nor its denormal step.
TEXT ·expAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX

expLoop:
	CMPQ    AX, CX
	JGE     done
	LOADCHECK(K(expLo), K(expHi))
	EXP
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     expLoop

done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func logAVX2(dst, src []float64) int
//
// Lanes in [SmallestNormal, MaxFloat64]: positive, normal and finite, the
// inputs on which archLog runs its main sequence. k is the biased
// exponent minus 0x3fe, converted exactly by adding it to the bits of
// 1.5·2^52 and subtracting 1.5·2^52 + 0x3fe as a float64.
TEXT ·logAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX

logLoop:
	CMPQ AX, CX
	JGE  done
	LOADCHECK(K(logLo), K(cMax))

	// f1, k := math.Frexp(x)
	VANDPD K(logMant), Y0, Y1
	VORPD  K(cHalf), Y1, Y1
	VPSRLQ $52, Y0, Y2
	VPADDQ K(logMagic), Y2, Y2
	VSUBPD K(logMagicK), Y2, Y2

	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }, as CMPSD $5 (not less than)
	// of HSqrt2 against f1
	VMOVUPD K(logHSqrt2), Y3
	VCMPPD  $5, Y1, Y3, Y3
	VANDPD  K(cOne), Y3, Y3
	VSUBPD  Y3, Y2, Y2
	VADDPD  K(cOne), Y3, Y3
	VMULPD  Y3, Y1, Y1

	// f := f1 - 1; s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VSUBPD K(cOne), Y1, Y1
	VADDPD K(cTwo), Y1, Y0
	VDIVPD Y0, Y1, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD K(logL7), Y5, Y6
	VADDPD K(logL5), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD K(logL3), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD K(logL1), Y6, Y6
	VMULPD Y6, Y4, Y4

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD K(logL6), Y5, Y6
	VADDPD K(logL4), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD K(logL2), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4

	// hfsq := 0.5 * f * f
	VMULPD K(cHalf), Y1, Y0
	VMULPD Y1, Y0, Y0

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD  Y0, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMULPD  K(logLn2Lo), Y2, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y0, Y0
	VSUBPD  Y1, Y0, Y0
	VMULPD  K(logLn2Hi), Y2, Y2
	VSUBPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     logLoop

done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src []float64) int
//
// Lanes finite. math.tanh's three branches run on every lane, and each
// lane keeps the one math takes for it: for |x| <= 0.5·MAXLOG below
// 0.625 the rational form, or x itself where x == 0 (which keeps −0);
// from 0.625 on, ±(1 − 2/(Exp(2|x|)+1)) with EXP inlined; above
// 0.5·MAXLOG, ±1. A lane whose branch is not kept may compute anything.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $-4, CX
	XORQ AX, AX

tanhLoop:
	CMPQ      AX, CX
	JGE       done
	VMOVUPD   (SI)(AX*8), Y3
	VANDPD    K(tanhAbs), Y3, Y4
	VCMPPD    $0x12, K(cMax), Y4, Y1
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       done

	// s := Exp(2 * z); z = 1 - 2/(s+1); z gets x's sign.
	VADDPD  Y4, Y4, Y0
	EXP
	VADDPD  K(cOne), Y0, Y0
	VMOVUPD K(cTwo), Y1
	VDIVPD  Y0, Y1, Y1
	VMOVUPD K(cOne), Y0
	VSUBPD  Y1, Y0, Y0
	VANDPD  K(tanhSign), Y3, Y5
	VORPD   Y5, Y0, Y0

	// s := x * x
	// z = x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2)
	VMULPD Y3, Y3, Y6
	VMULPD K(tanhP0), Y6, Y7
	VADDPD K(tanhP1), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD K(tanhP2), Y7, Y7
	VADDPD K(tanhQ0), Y6, Y8
	VMULPD Y6, Y8, Y8
	VADDPD K(tanhQ1), Y8, Y8
	VMULPD Y6, Y8, Y8
	VADDPD K(tanhQ2), Y8, Y8
	VMULPD Y6, Y3, Y9
	VMULPD Y7, Y9, Y9
	VDIVPD Y8, Y9, Y9
	VADDPD Y9, Y3, Y9

	// Keep x where x == 0, the exponential form from 0.625 on and ±1
	// above 0.5·MAXLOG.
	VXORPD    Y10, Y10, Y10
	VCMPPD    $0x00, Y10, Y3, Y10
	VBLENDVPD Y10, Y3, Y9, Y9
	VCMPPD    $0x1d, K(tanhExpFrom), Y4, Y10
	VBLENDVPD Y10, Y0, Y9, Y9
	VORPD     K(cOne), Y5, Y11
	VCMPPD    $0x1e, K(tanhOneFrom), Y4, Y10
	VBLENDVPD Y10, Y11, Y9, Y9
	VMOVUPD   Y9, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       tanhLoop

done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

// func transposeAVX(dst, src []float64, rows, cols int)
//
// For rows and cols positive multiples of 4: each pass reads a 4×4 block
// of src, row r+i at SI + i·cols·8, and writes its transpose to dst, row
// c+j at DX + j·rows·8. VUNPCKLPD and VUNPCKHPD pair the rows' elements
// within each 128-bit half; VPERM2F128 joins the halves.
TEXT ·transposeAVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ rows+48(FP), R8
	MOVQ cols+56(FP), R9
	MOVQ R9, R10
	SHLQ $3, R10
	MOVQ R8, R11
	SHLQ $3, R11
	LEAQ (R10)(R10*2), R12
	LEAQ (R11)(R11*2), R13

blockRow:
	MOVQ SI, BX
	MOVQ DI, DX
	MOVQ R9, CX

block:
	VMOVUPD    (BX), Y0
	VMOVUPD    (BX)(R10*1), Y1
	VMOVUPD    (BX)(R10*2), Y2
	VMOVUPD    (BX)(R12*1), Y3
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	VMOVUPD    Y0, (DX)
	VMOVUPD    Y1, (DX)(R11*1)
	VMOVUPD    Y2, (DX)(R11*2)
	VMOVUPD    Y3, (DX)(R13*1)
	ADDQ       $32, BX
	LEAQ       (DX)(R11*4), DX
	SUBQ       $4, CX
	JNZ        block
	LEAQ       (SI)(R10*4), SI
	ADDQ       $32, DI
	SUBQ       $4, R8
	JNZ        blockRow
	VZEROUPPER
	RET
