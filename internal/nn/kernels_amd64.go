package nn

import (
	"math"

	"repro/internal/cpuid"
)

// fusedExpProbe is an argument on which archExp's fused and unfused bodies
// differ in the last bit: math.Exp returns fusedExpBits for it only when
// it runs the fused body.
var fusedExpProbe = 4.797774573974394

const fusedExpBits = 0x405e4f612b554661

func init() {
	if cpuid.AVX() {
		gemmAsm = gemmAVX
		adamAsm = adamAVX
		transposeAsm = transposeAVX
	}
	if cpuid.AVX2() {
		logAsm = logAVX2
	}
	// The exp and tanh bodies replay archExp's fused body, which math.Exp
	// runs only where internal/cpu reports AVX and FMA; GODEBUG can turn
	// either off after the CPU says yes, so ask math.Exp itself.
	if cpuid.AVX2() && cpuid.FMA() && math.Float64bits(math.Exp(fusedExpProbe)) == fusedExpBits {
		expAsm = expAVX2
		tanhAsm = tanhAVX2
	}
}

// gemmAVX is gemm on four AVX lanes for m, k > 0 and n a positive
// multiple of 16: VMULPD then VADDPD per term, no FMA and no sums across
// lanes, so every lane rounds exactly as gemmGo does. gemm checks the
// shape and the operands' lengths.
//
//go:noescape
func gemmAVX(m, n, k int, a []float64, ai, ak int, b []float64, ldb int, c []float64, ldc int)

// adamAVX is adamStep on four AVX lanes, each evaluating adamGo's
// expressions in its order with no FMA. adamStep checks the lengths.
//
//go:noescape
func adamAVX(p, g, m, v []float64, h adamCoef)

// expAVX2, logAVX2 and tanhAVX2 are the vector bodies of expSlice,
// LogSlice and tanhSlice (vmath_amd64.s). dst must be at least as long as
// src.
//
//go:noescape
func expAVX2(dst, src []float64) int

//go:noescape
func logAVX2(dst, src []float64) int

//go:noescape
func tanhAVX2(dst, src []float64) int

// transposeAVX is transpose in 4×4 blocks for rows and cols positive
// multiples of 4; transpose checks the shape and the lengths.
//
//go:noescape
func transposeAVX(dst, src []float64, rows, cols int)
