package cpuid

// init probes the CPU: CPUID leaf 1 must set OSXSAVE and AVX, and XCR0
// must enable both the SSE and the YMM state. AVX2 further needs leaf 7,
// sub-leaf 0, to set EBX bit 5.
func init() {
	const osxsave, avxBit = 1 << 27, 1 << 28
	const avx2Bit = 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avxBit) != osxsave|avxBit || xgetbv0()&6 != 6 {
		return
	}
	avx = true
	if maxLeaf >= 7 {
		_, ebx7, _, _ := cpuid(7, 0)
		avx2 = ebx7&avx2Bit != 0
	}
}

// cpuid runs CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0. Call it only when OSXSAVE is set.
func xgetbv0() uint32
