package nn

import "math"

// expAsm, logAsm and tanhAsm are the vector bodies of expSlice, LogSlice
// and tanhSlice, set at init where this GOARCH has them and the CPU can
// run them. A body writes f(src[i]) to dst[i] for the groups of four from
// the start of src while every element of a group lies in its fast range,
// and returns how many it wrote: it stops at the first group with an
// element outside the range, or with fewer than four left. While one is
// nil, its slice function runs package math on every element; tests set
// them to nil to force that.
var expAsm, logAsm, tanhAsm func(dst, src []float64) int

// expSlice writes math.Exp(src[i]) to dst[i] for every i, with the bits
// math.Exp returns. dst must be at least as long as src; it may be src.
func expSlice(dst, src []float64) { mapSlice(dst, src, expAsm, math.Exp) }

// LogSlice writes math.Log(src[i]) to dst[i] for every i, with the bits
// math.Log returns. dst must be at least as long as src; it may be src.
func LogSlice(dst, src []float64) { mapSlice(dst, src, logAsm, math.Log) }

// tanhSlice writes math.Tanh(src[i]) to dst[i] for every i, with the bits
// math.Tanh returns. dst must be at least as long as src; it may be src.
func tanhSlice(dst, src []float64) { mapSlice(dst, src, tanhAsm, math.Tanh) }

// mapSlice writes f(src[i]) to dst[i], running body over the groups it
// takes and f over each group it leaves and over the tail.
func mapSlice(dst, src []float64, body func(dst, src []float64) int, f func(float64) float64) {
	dst = dst[:len(src)]
	for i := 0; i < len(src); {
		if body != nil {
			i += body(dst[i:], src[i:])
		}
		for end := min(i+4, len(src)); i < end; i++ {
			dst[i] = f(src[i])
		}
	}
}
