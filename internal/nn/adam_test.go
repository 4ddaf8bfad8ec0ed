package nn

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// TestAdamBodies checks Adam.Step under adamStep's assembly body against
// the Go body over five steps, so that both bias corrections change, on
// tensors of 0–67 values (every tail after the four-lane loop). The
// gradients are drawn from extremes, whose ±0, subnormals and ±MaxFloat64
// (its square overflows) meet normal deviates. Parameters and moments
// must keep identical bits, except that where the Go body gives NaN the
// assembly body must give NaN.
func TestAdamBodies(t *testing.T) {
	asm := adamAsm
	if asm == nil {
		t.Skip("Adam has no assembly body on this CPU")
	}
	defer func() { adamAsm = asm }()
	rng := prng.New(3)
	sameOrNaN := func(what string, want, got []float64) {
		t.Helper()
		for i := range want {
			if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
				continue
			}
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s[%d] = %v (%#x), Go body %v (%#x)", what, i,
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			val := make([]float64, n)
			for i := range val {
				val[i] = rng.NormFloat64()
			}
			goP := Param{Val: append([]float64(nil), val...), Grad: make([]float64, n)}
			asmP := Param{Val: append([]float64(nil), val...), Grad: make([]float64, n)}
			goOpt, asmOpt := NewAdam([]Param{goP}, 1e-2), NewAdam([]Param{asmP}, 1e-2)
			for step := 0; step < 5; step++ {
				for i := range goP.Grad {
					g := drawOperand(rng)
					goP.Grad[i], asmP.Grad[i] = g, g
				}
				adamAsm = nil
				goOpt.Step()
				adamAsm = asm
				asmOpt.Step()
				sameOrNaN("m", goOpt.m[0], asmOpt.m[0])
				sameOrNaN("v", goOpt.v[0], asmOpt.v[0])
				sameOrNaN("p", goP.Val, asmP.Val)
			}
		}
	}
}

// BenchmarkAdamStep times Adam.Step under each body on discovery's policy
// network and reports nanoseconds per parameter.
func BenchmarkAdamStep(b *testing.B) {
	m := NewMLP([]int{128, 64, 64, 128}, Tanh, prng.New(1))
	params := m.Params()
	rng := prng.New(2)
	count := 0
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 1e-3 * rng.NormFloat64()
		}
		count += len(p.Grad)
	}
	opt := NewAdam(params, 1e-3)
	forEachBody(func(body string) {
		b.Run(body, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(count*b.N), "ns/param")
		})
	})
}
