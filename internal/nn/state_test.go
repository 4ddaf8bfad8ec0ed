package nn

import (
	"testing"

	"repro/internal/prng"
)

func TestParamValuesRoundTrip(t *testing.T) {
	m := NewMLP([]int{3, 4, 2}, ReLU, prng.New(1))
	vals := ParamValues(m.Params())

	// Deep copy: mutating the snapshot must not touch the network.
	before := m.Params()[0].Val[0]
	vals[0][0] += 10
	if m.Params()[0].Val[0] != before {
		t.Fatal("ParamValues aliases the network parameters")
	}
	vals[0][0] -= 10

	other := NewMLP([]int{3, 4, 2}, ReLU, prng.New(2))
	if err := SetParamValues(other.Params(), vals); err != nil {
		t.Fatal(err)
	}
	in := []float64{0.3, -0.7, 1.1}
	a, b := m.Forward(in), other.Forward(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("output %d differs after SetParamValues: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSetParamValuesRejectsShapeMismatch(t *testing.T) {
	m := NewMLP([]int{3, 4, 2}, ReLU, prng.New(1))
	vals := ParamValues(m.Params())

	short := vals[:len(vals)-1]
	if err := SetParamValues(m.Params(), short); err == nil {
		t.Error("SetParamValues accepted wrong parameter count")
	}

	bad := ParamValues(m.Params())
	bad[1] = bad[1][:len(bad[1])-1]
	snapshot := ParamValues(m.Params())
	if err := SetParamValues(m.Params(), bad); err == nil {
		t.Error("SetParamValues accepted wrong slice length")
	}
	// Two-phase validation: the failed call must not have partially
	// written anything.
	after := ParamValues(m.Params())
	for i := range snapshot {
		for j := range snapshot[i] {
			if snapshot[i][j] != after[i][j] {
				t.Fatalf("param %d[%d] mutated by rejected SetParamValues", i, j)
			}
		}
	}
}

// TestAdamStateRestoreRoundTrip: an optimizer restored from a snapshot
// must take bit-identical steps to the original from that point on.
func TestAdamStateRestoreRoundTrip(t *testing.T) {
	train := func(m *MLP, opt *Adam, steps int) {
		in := []float64{0.5, -1, 2}
		for s := 0; s < steps; s++ {
			out := m.Forward(in)
			grad := make([]float64, len(out))
			for i := range grad {
				grad[i] = out[i] - 1
			}
			ZeroGrad(m.Params())
			backward(m, in, grad)
			opt.Step()
		}
	}

	a := NewMLP([]int{3, 4, 2}, Tanh, prng.New(9))
	aOpt := NewAdam(a.Params(), 1e-2)
	train(a, aOpt, 5)

	weights := ParamValues(a.Params())
	optState := aOpt.State()

	// Mutating the snapshot must not touch the optimizer (deep copy).
	optState.M[0][0] += 1
	if aOpt.State().M[0][0] == optState.M[0][0] {
		t.Fatal("Adam.State aliases the optimizer moments")
	}
	optState.M[0][0] -= 1

	train(a, aOpt, 5)
	want := ParamValues(a.Params())

	b := NewMLP([]int{3, 4, 2}, Tanh, prng.New(1234))
	bOpt := NewAdam(b.Params(), 1e-2)
	if err := SetParamValues(b.Params(), weights); err != nil {
		t.Fatal(err)
	}
	if err := bOpt.Restore(optState); err != nil {
		t.Fatal(err)
	}
	train(b, bOpt, 5)
	got := ParamValues(b.Params())
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("param %d[%d]: restored training diverged: %v vs %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestAdamRestoreRejectsShapeMismatch(t *testing.T) {
	m := NewMLP([]int{3, 4, 2}, ReLU, prng.New(1))
	opt := NewAdam(m.Params(), 1e-3)
	st := opt.State()
	st.M = st.M[:len(st.M)-1]
	if err := opt.Restore(st); err == nil {
		t.Error("Restore accepted wrong moment count")
	}
}
