package nn

import "repro/internal/cpuid"

func init() {
	if cpuid.AVX() {
		gemmAsm = gemmAVX
		adamAsm = adamAVX
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
