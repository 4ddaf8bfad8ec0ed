package nn

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// extremes mixes ±0, subnormals, ±Inf and the largest and smallest
// normal values: operands on which a reordered or fused operation would
// round, overflow or produce NaN differently.
var extremes = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022 - 0x1p-1074, -0x1p-1030, // largest subnormal, another
	math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022,
	1, -1, 0.5,
}

// drawOperand returns an element of extremes or a normal deviate, with
// even odds.
func drawOperand(rng *prng.Source) float64 {
	if rng.Intn(2) == 0 {
		return extremes[rng.Intn(len(extremes))]
	}
	return rng.NormFloat64()
}

// TestGemmBodies checks gemm with its assembly body against gemmGo bit
// for bit: 1–5 rows, so both tile heights and the odd last row run; 0–70
// columns, so every 16-column strip and every Go tail after it runs;
// seven values of k per shape, which cover 1–70 as the shapes vary; A
// read row-major (the forward pass and the weight gradient) and
// column-major (the input gradient); operands drawn from extremes and
// normal deviates. The elements past each row of C must stay untouched.
func TestGemmBodies(t *testing.T) {
	if gemmAsm == nil {
		t.Skip("gemm has no assembly body on this CPU")
	}
	rng := prng.New(1)
	pool := make([]float64, 1<<14)
	for i := range pool {
		pool[i] = drawOperand(rng)
	}
	// from returns n operands that start at a random place in the pool.
	from := func(n int) []float64 {
		off := rng.Intn(len(pool) - n + 1)
		return pool[off:][:n]
	}
	const guard = 3
	for m := 1; m <= 5; m++ {
		for n := 0; n <= 70; n++ {
			for j := 0; j < 7; j++ {
				k := 1 + (m+n+10*j)%70
				ldb, ldc := n+k%3, n+guard
				b := from((k-1)*ldb + n)
				for _, stride := range [][2]int{{k, 1}, {1, m}} {
					ai, ak := stride[0], stride[1]
					a := from(m * k)
					c := from(m * ldc)
					want := append([]float64(nil), c...)
					got := append([]float64(nil), c...)
					gemmGo(m, n, k, a, ai, ak, b, ldb, want, ldc)
					gemm(m, n, k, a, ai, ak, b, ldb, got, ldc)
					requireSameBits(t, "C", want, got)
					for i := 0; i < m; i++ {
						requireSameBits(t, "guard", c[i*ldc+n:(i+1)*ldc], got[i*ldc+n:(i+1)*ldc])
					}
				}
			}
		}
	}
}

// TestGemmRejectsShortOperands requires gemm to panic, under whichever
// body the probe selected, when an operand is one element too short for
// the shape or a row stride is shorter than a row.
func TestGemmRejectsShortOperands(t *testing.T) {
	const m, n, k = 3, 32, 5
	run := func(a, b, c []float64, ldb, ldc int) { gemm(m, n, k, a, k, 1, b, ldb, c, ldc) }
	a, b, c := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	run(a, b, c, n, n) // the exact lengths pass
	for name, call := range map[string]func(){
		"short a":  func() { run(a[:m*k-1], b, c, n, n) },
		"short b":  func() { run(a, b[:k*n-1], c, n, n) },
		"short c":  func() { run(a, b, c[:m*n-1], n, n) },
		"ldb < n":  func() { run(a, b, c, n-1, n) },
		"ldc < n":  func() { run(a, b, c, n, n-1) },
		"negative": func() { gemm(m, n, k, a, -1, 1, b, n, c, n) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: gemm did not panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkGemm times gemm under each body on the three products of a
// training minibatch through discovery's output layer (64 inputs, 128
// outputs, 64 samples) and reports nanoseconds per multiply-add.
func BenchmarkGemm(b *testing.B) {
	const in, out, n = 64, 128, 64
	rng := prng.New(1)
	fill := func(size int) []float64 {
		v := make([]float64, size)
		for i := range v {
			v[i] = 1e-3 * rng.NormFloat64()
		}
		return v
	}
	w, x, y := fill(out*in), fill(in*n), fill(out*n)
	for _, p := range []struct {
		name    string
		m, n, k int
		a       []float64
		ai, ak  int
		b       []float64
		ldb     int
		c       []float64
		ldc     int
	}{
		{"forward", out, n, in, w, in, 1, x, n, y, n},
		{"input-gradient", in, n, out, w, 1, in, y, n, x, n},
		{"weight-gradient", out, in, n, y, n, 1, x, in, w, in},
	} {
		forEachBody(func(body string) {
			b.Run(p.name+"/"+body, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					gemm(p.m, p.n, p.k, p.a, p.ai, p.ak, p.b, p.ldb, p.c, p.ldc)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(p.m*p.n*p.k*b.N), "ns/MAC")
			})
		})
	}
}
