package nn

import "repro/internal/cpuid"

func init() {
	if cpuid.AVX() {
		fold4Asm = fold4AVX
	}
}

// fold4AVX is fold4 on four AVX lanes: VMULPD then VADDPD per term, no
// FMA and no sums across lanes, so every lane rounds exactly as fold4Go
// does. It reads len(y) elements of each x; fold4 checks their lengths.
//
//go:noescape
func fold4AVX(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)
