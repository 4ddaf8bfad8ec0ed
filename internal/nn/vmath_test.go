package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

// vmathFuncs lists each slice function with its vector body and package
// math's function, the reference it must match.
var vmathFuncs = []struct {
	name  string
	slice func(dst, src []float64)
	body  *func(dst, src []float64) int
	ref   func(float64) float64
}{
	{"exp", expSlice, &expAsm, math.Exp},
	{"log", LogSlice, &logAsm, math.Log},
	{"tanh", tanhSlice, &tanhAsm, math.Tanh},
}

// vmathSpecials returns the inputs at which package math or a vector
// body changes course, with both neighbours of each and all of them
// negated: ±0, subnormals, ±Inf, NaN, MaxFloat64, the ends of every fast
// range, archExp's overflow and underflow thresholds, the f1 = √2/2 test
// of archLog at several exponents, math.tanh's branch points, and the
// argument on which archExp's fused and unfused bodies differ.
func vmathSpecials() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	hsqrt2 := math.Float64frombits(0x3fe6a09e667f3bcd)
	base := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 0x1p-1022,
		math.Inf(1), math.NaN(), math.MaxFloat64, 1, 0.5, 2,
		-708, 709, 7.09782712893384e+02, -7.45133219101941108420e+02, 0x1p-28,
		4.797774573974394, 0.625, halfMaxLog,
	}
	// f1 = √2/2 takes archLog's branch, not pure-Go log's; of the
	// exponents from −1021 to 1024, only 2^32 rounds differently there.
	for _, e := range []int{-1021, -1, 0, 1, 2, 32, 1024} {
		base = append(base, math.Ldexp(hsqrt2, e))
	}
	var xs []float64
	for _, x := range base {
		for _, y := range []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))} {
			xs = append(xs, y, -y)
		}
	}
	return xs
}

// drawVMath returns a seeded input for the named function: a random bit
// pattern, a scaled normal deviate, a value spread over [−750, 750] or a
// few ulps from a special value, with positive values favoured for log.
func drawVMath(name string, specials []float64, rng *prng.Source) float64 {
	var x float64
	switch rng.Intn(4) {
	case 0:
		x = math.Float64frombits(rng.Uint64())
	case 1:
		x = rng.NormFloat64() * math.Ldexp(1, rng.Intn(24)-12)
	case 2:
		x = (2*rng.Float64() - 1) * 750
	default:
		x = specials[rng.Intn(len(specials))]
		x = math.Float64frombits(math.Float64bits(x) + uint64(rng.Intn(9)) - 4)
	}
	if name == "log" && rng.Intn(8) != 0 {
		x = math.Abs(x)
	}
	return x
}

// checkVMath runs slice on src out of place, with a guard element past
// the end of dst, and in place, and requires the bits of ref on every
// element; a NaN matches any NaN.
func checkVMath(t testing.TB, name string, slice func(dst, src []float64), ref func(float64) float64, src []float64) {
	t.Helper()
	const guard = 0x7ff4_0000_dead_beef
	dst := make([]float64, len(src)+1)
	dst[len(src)] = math.Float64frombits(guard)
	slice(dst, src)
	inPlace := append([]float64(nil), src...)
	slice(inPlace, inPlace)
	for i, x := range src {
		want := ref(x)
		for _, got := range []float64{dst[i], inPlace[i]} {
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s(%v = %#x) at %d of %d: %v (%#x), package math %v (%#x)", name, x, math.Float64bits(x),
					i, len(src), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	if math.Float64bits(dst[len(src)]) != guard {
		t.Fatalf("%s of %d elements wrote past its destination", name, len(src))
	}
}

// TestVectorMathBodies checks expSlice, LogSlice and tanhSlice against
// math.Exp, math.Log and math.Tanh bit for bit, out of place and in place:
// every slice of the special values at offsets 0–3 with lengths 0–9, so
// tails and groups that fall back to math run; each special value and
// neighbour as a whole group of four, so a body that takes it must get
// it right; and 2^20 seeded inputs per function. Where math.Exp runs its
// unfused body (GODEBUG=cpu.fma=off), the exp and tanh bodies must stand
// down and the log body must still match.
func TestVectorMathBodies(t *testing.T) {
	specials := vmathSpecials()
	for _, f := range vmathFuncs {
		t.Run(f.name, func(t *testing.T) {
			if *f.body == nil {
				t.Logf("%s has no vector body here; it runs package math", f.name)
			}
			for off := 0; off < 4; off++ {
				for n := 0; n <= 9; n++ {
					for start := off; start+n <= len(specials); start += 4 {
						checkVMath(t, f.name, f.slice, f.ref, specials[start:][:n])
					}
				}
			}
			for _, x := range specials {
				checkVMath(t, f.name, f.slice, f.ref, []float64{x, x, x, x})
				checkVMath(t, f.name, f.slice, f.ref, []float64{1, x, 1, 1, x})
			}
			rng := prng.New(11)
			buf := make([]float64, 4096+3)
			for pass := 0; pass < 256; pass++ {
				for i := range buf {
					buf[i] = drawVMath(f.name, specials, rng)
				}
				checkVMath(t, f.name, f.slice, f.ref, buf[pass%4:][:4096])
			}
		})
	}
}

// FuzzVectorMath checks expSlice, LogSlice and tanhSlice against package
// math, as TestVectorMathBodies does, on raw float64 bit patterns (eight
// little-endian bytes each) read from an offset of 0–3 values, for a
// length of up to the number of values.
func FuzzVectorMath(f *testing.F) {
	var seed []byte
	for _, x := range vmathSpecials() {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed, byte(0), byte(255))
	f.Add(seed[8*3:], byte(1), byte(9))
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x3fe6a09e667f3bcd), byte(0), byte(1))
	f.Fuzz(func(t *testing.T, data []byte, off, n byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		xs = xs[min(int(off)%4, len(xs)):]
		xs = xs[:min(int(n), len(xs))]
		for _, fn := range vmathFuncs {
			checkVMath(t, fn.name, fn.slice, fn.ref, xs)
		}
	})
}

// TestTransposeBodies checks transpose with its assembly body against
// its loop for every shape up to 13 × 13, the 1 × n and n × 1 shapes up
// to 130, and the network's layouts of 64 and 128; only shapes whose
// sides are multiples of 4 reach the assembly body. The elements past the
// matrix must stay untouched.
func TestTransposeBodies(t *testing.T) {
	asm := transposeAsm
	if asm == nil {
		t.Skip("transpose has no assembly body on this CPU")
	}
	defer func() { transposeAsm = asm }()
	var shapes [][2]int
	for r := 0; r <= 13; r++ {
		for c := 0; c <= 13; c++ {
			shapes = append(shapes, [2]int{r, c})
		}
	}
	for n := 1; n <= 130; n++ {
		shapes = append(shapes, [2]int{1, n}, [2]int{n, 1})
	}
	shapes = append(shapes, [2]int{64, 64}, [2]int{128, 64}, [2]int{64, 128}, [2]int{4, 128}, [2]int{128, 4}, [2]int{64, 60})
	rng := prng.New(5)
	const guard = 3
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		src := make([]float64, rows*cols+guard)
		for i := range src {
			src[i] = drawOperand(rng)
		}
		var out [2][]float64
		for b, body := range []func(dst, src []float64, rows, cols int){nil, asm} {
			transposeAsm = body
			out[b] = make([]float64, rows*cols+guard)
			for i := range out[b] {
				out[b][i] = float64(-i)
			}
			transpose(out[b], src, rows, cols)
		}
		requireSameBits(t, fmt.Sprintf("%d×%d transpose", rows, cols), out[0], out[1])
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if math.Float64bits(out[1][c*rows+r]) != math.Float64bits(src[r*cols+c]) {
					t.Fatalf("%d×%d transpose: element (%d, %d) misplaced", rows, cols, r, c)
				}
			}
		}
	}
}

// BenchmarkVectorMath times each slice function on 4,096 inputs of the
// kind the network feeds it (softmax exponents l − max, probabilities
// from 1e-12 to 1, hidden pre-activations) under package math and under
// its vector body, and reports nanoseconds per element.
func BenchmarkVectorMath(b *testing.B) {
	const n = 4096
	rng := prng.New(1)
	src := make([]float64, n)
	dst := make([]float64, n)
	for _, f := range vmathFuncs {
		for i := range src {
			switch f.name {
			case "exp":
				src[i] = -30 * rng.Float64()
			case "log":
				src[i] = math.Max(rng.Float64(), 1e-12)
			default:
				src[i] = 2 * rng.NormFloat64()
			}
		}
		body := *f.body
		for _, v := range []struct {
			name string
			body func(dst, src []float64) int
		}{{"math", nil}, {"vector", body}} {
			if v.name == "vector" && body == nil {
				continue
			}
			b.Run(f.name+"/"+v.name, func(b *testing.B) {
				*f.body = v.body
				defer func() { *f.body = body }()
				for i := 0; i < b.N; i++ {
					f.slice(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/elem")
			})
		}
	}
}

// BenchmarkTranspose times transpose under each body on the network's
// layouts: a 64-unit layer's sample-major copy (64 × 64), the policy
// output (128 × 64) and its gradient (64 × 128). It reports nanoseconds
// per element.
func BenchmarkTranspose(b *testing.B) {
	asm := transposeAsm
	defer func() { transposeAsm = asm }()
	for _, s := range [][2]int{{64, 64}, {128, 64}, {64, 128}} {
		rows, cols := s[0], s[1]
		src := make([]float64, rows*cols)
		dst := make([]float64, rows*cols)
		for i := range src {
			src[i] = float64(i)
		}
		for _, v := range []struct {
			name string
			body func(dst, src []float64, rows, cols int)
		}{{"go", nil}, {"asm", asm}} {
			if v.name == "asm" && asm == nil {
				continue
			}
			b.Run(fmt.Sprintf("%dx%d/%s", rows, cols, v.name), func(b *testing.B) {
				transposeAsm = v.body
				for i := 0; i < b.N; i++ {
					transpose(dst, src, rows, cols)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows*cols*b.N), "ns/elem")
			})
		}
	}
}
