package stats

import "repro/internal/cpuid"

func init() {
	if cpuid.AVX2() {
		gramAsm = gramAVX2
		laneGramAsm = laneGramAVX2
	}
}

// gramAVX2 is gramAsm on AVX2 (gram_amd64.s). It reads groups columns of
// 64 bytes, BlockRows bytes apart, from cols, writes m·64 words of a,
// mpad·64 with the zeroed pad columns, and adds into m·mpad dwords of g
// and groups dwords of sums; gram checks their lengths.
//
//go:noescape
func gramAVX2(g, sums []int32, a []int16, cols []uint8, groups, rows int)

// laneGramAVX2 is laneGramAsm on AVX2 (gram_amd64.s). It reads the first
// rows rows, rounded up to a multiple of 32, of groups columns BlockRows
// bytes apart from cols, writes those rows, rounded up to a multiple of
// 64, of each column's stripe of lanes, and writes laneTriLen(groups)
// dwords of tri and groups dwords of sums; laneGram checks their lengths.
//
//go:noescape
func laneGramAVX2(tri, sums []int32, lanes, cols []uint8, groups, rows int)
