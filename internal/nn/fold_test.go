package nn

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// TestFold4Bodies checks fold4's assembly body against its Go body bit
// for bit, over every length from 0 to 67 (so every tail after the
// four-lane loop) and operands that mix ±0, subnormals, ±Inf, the
// extremes and ordinary values. Elements past len(y) must stay untouched.
func TestFold4Bodies(t *testing.T) {
	if fold4Asm == nil {
		t.Skip("fold4 has no assembly body on this CPU")
	}
	specials := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022 - 0x1p-1074, -0x1p-1030, // largest subnormal, another
		math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, 0x1p-1022,
		1, -1, 0.5,
	}
	rng := prng.New(1)
	draw := func() float64 {
		if rng.Intn(2) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = draw()
		}
		return v
	}
	const guard = 5
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 40; trial++ {
			y := fill(n + guard)
			x0, x1, x2, x3 := fill(n), fill(n), fill(n), fill(n)
			a0, a1, a2, a3 := draw(), draw(), draw(), draw()
			want := append([]float64(nil), y...)
			got := append([]float64(nil), y...)
			fold4Go(want[:n], a0, a1, a2, a3, x0, x1, x2, x3)
			fold4Asm(got[:n], a0, a1, a2, a3, x0, x1, x2, x3)
			requireSameBits(t, "y", want, got)
		}
	}
}

func TestFold4RejectsShortOperands(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fold4 with an operand shorter than y did not panic")
		}
	}()
	y, x := make([]float64, 8), make([]float64, 8)
	fold4(y, 1, 1, 1, 1, x, x, x[:7], x)
}

// BenchmarkFold4 times fold4 under each body at discovery's minibatch
// length of 64 and reports nanoseconds per multiply-add.
func BenchmarkFold4(b *testing.B) {
	const n = 64
	rng := prng.New(1)
	var x [4][]float64
	for j := range x {
		x[j] = make([]float64, n)
		for k := range x[j] {
			x[j][k] = rng.NormFloat64()
		}
	}
	y := make([]float64, n)
	forEachFold4Body(func(body string) {
		b.Run(body, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fold4(y, 1e-3, -1e-3, 2e-3, -2e-3, x[0], x[1], x[2], x[3])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*n*b.N), "ns/MAC")
		})
	})
}
