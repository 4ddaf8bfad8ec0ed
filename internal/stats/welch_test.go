package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func momentsOf(xs []float64) *Moments {
	var m Moments
	for _, x := range xs {
		m.Add(x)
	}
	return &m
}

func TestMomentsMeanVariance(t *testing.T) {
	m := momentsOf([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := m.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic sample is 32/7.
	if got := m.Variance(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
}

func TestMomentsEmptyAndSingle(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Variance() != 0 || m.N() != 0 {
		t.Error("empty Moments not zero")
	}
	m.Add(3)
	if m.Mean() != 3 || m.Variance() != 0 {
		t.Error("single-observation Moments wrong")
	}
}

// tameValues rescales quick-generated float64s into a range where the
// intermediate products of Welford/Welch arithmetic cannot overflow;
// overflow of ±1e308 inputs is not a property we care to defend.
func tameValues(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Remainder(x, 1e6)
		if math.IsNaN(out[i]) {
			out[i] = 0
		}
	}
	return out
}

func TestMomentsMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		a, b = tameValues(a), tameValues(b)
		if len(a) == 0 && len(b) == 0 {
			return true
		}
		var merged Moments
		ma := momentsOf(a)
		mb := momentsOf(b)
		merged.Merge(ma)
		merged.Merge(mb)
		all := momentsOf(append(append([]float64{}, a...), b...))
		return merged.N() == all.N() &&
			math.Abs(merged.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(merged.Variance()-all.Variance()) < 1e-6*(1+all.Variance())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelchIdenticalPopulations(t *testing.T) {
	src := prng.New(1)
	var a, b Moments
	for i := 0; i < 5000; i++ {
		a.Add(src.NormFloat64())
		b.Add(src.NormFloat64())
	}
	if tt := Welch(&a, &b); tt > 4.5 {
		t.Errorf("identical populations gave t = %v > 4.5", tt)
	}
}

func TestWelchShiftedPopulations(t *testing.T) {
	src := prng.New(2)
	var a, b Moments
	for i := 0; i < 5000; i++ {
		a.Add(src.NormFloat64())
		b.Add(src.NormFloat64() + 1)
	}
	if tt := Welch(&a, &b); tt < 4.5 {
		t.Errorf("unit-shifted populations gave t = %v < 4.5", tt)
	}
}

func TestWelchKnownValue(t *testing.T) {
	// Hand-checkable case: a = {0,2} (mean 1, var 2), b = {10,14} (mean 12,
	// var 8). t = |1-12| / sqrt(2/2 + 8/2) = 11 / sqrt(5).
	a := momentsOf([]float64{0, 2})
	b := momentsOf([]float64{10, 14})
	want := 11 / math.Sqrt(5)
	if got := Welch(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("Welch = %v, want %v", got, want)
	}
}

func TestWelchDegenerate(t *testing.T) {
	constA := momentsOf([]float64{5, 5, 5})
	constB := momentsOf([]float64{5, 5, 5})
	if got := Welch(constA, constB); got != 0 {
		t.Errorf("equal constants gave t = %v, want 0", got)
	}
	constC := momentsOf([]float64{7, 7, 7})
	if got := Welch(constA, constC); got != tCap {
		t.Errorf("distinct constants gave t = %v, want cap %v", got, tCap)
	}
	tiny := momentsOf([]float64{1})
	if got := Welch(constA, tiny); got != 0 {
		t.Errorf("n<2 sample gave t = %v, want 0", got)
	}
}

func TestWelchSymmetric(t *testing.T) {
	f := func(a, b []float64) bool {
		a, b = tameValues(a), tameValues(b)
		if len(a) < 2 || len(b) < 2 {
			return true
		}
		ma, mb := momentsOf(a), momentsOf(b)
		ta, tb := Welch(ma, mb), Welch(mb, ma)
		return math.Abs(ta-tb) < 1e-9*(1+ta)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMomentsAdd(b *testing.B) {
	var m Moments
	for i := 0; i < b.N; i++ {
		m.Add(float64(i % 97))
	}
}
