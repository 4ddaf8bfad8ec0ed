// Package cpuid reports which x86 vector extensions both the CPU and the
// operating system support. Packages with an assembly body ask it once,
// at init, and fall back to their Go body when it says no. On every
// GOARCH but amd64 it reports nothing.
package cpuid

var avx, avx2, fma bool

// AVX reports whether the CPU has AVX and the OS saves the YMM registers
// across context switches.
func AVX() bool { return avx }

// AVX2 reports whether AVX is usable and the CPU also has AVX2.
func AVX2() bool { return avx2 }

// FMA reports whether AVX is usable and the CPU also has FMA3. It mirrors
// the condition under which math.Exp on amd64 runs its fused body, which
// GODEBUG=cpu.fma=off can still switch off.
func FMA() bool { return fma }
