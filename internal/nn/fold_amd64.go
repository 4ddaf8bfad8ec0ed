package nn

func init() {
	if hasAVX() {
		fold4Asm = fold4AVX
	}
}

// hasAVX reports whether the CPU has AVX and the OS saves the YMM
// registers across context switches: CPUID.1 sets OSXSAVE and AVX, and
// XCR0 enables both the SSE and the AVX state.
func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}

// cpuid1ECX returns ECX of CPUID leaf 1.
func cpuid1ECX() uint32

// xgetbv0 returns the low word of XCR0. Call it only when OSXSAVE is set.
func xgetbv0() uint32

// fold4AVX is fold4 on four AVX lanes: VMULPD then VADDPD per term, no
// FMA and no sums across lanes, so every lane rounds exactly as fold4Go
// does. It reads len(y) elements of each x; fold4 checks their lengths.
//
//go:noescape
func fold4AVX(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)
