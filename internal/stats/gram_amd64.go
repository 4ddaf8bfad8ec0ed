package stats

import "repro/internal/cpuid"

func init() {
	if cpuid.AVX2() {
		gramAsm = gramAVX2
	}
}

// gramAVX2 is gramAsm on AVX2 (gram_amd64.s). It reads groups columns of
// 64 bytes, BlockRows bytes apart, from cols, writes m·64 words of a,
// mpad·64 with the zeroed pad columns, and adds into m·mpad dwords of g
// and groups dwords of sums; gram checks their lengths.
//
//go:noescape
func gramAVX2(g, sums []int32, a []int16, cols []uint8, groups, rows int, bytes bool)
