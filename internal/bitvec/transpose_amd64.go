package bitvec

import "repro/internal/cpuid"

func init() {
	if cpuid.AVX2() {
		transposeAsm = transposeAVX2
	}
}

// transposeAVX2 is Transpose64 on AVX2 (transpose_amd64.s): the stages of
// transpose64Go on four words per YMM register, in another order.
//
//go:noescape
func transposeAVX2(a *[64]uint64)
