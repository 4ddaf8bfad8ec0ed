package nn

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// refForward and refBackward are the scalar dense-layer loops that the
// blocked and sparse kernels replace. They stay as the reference the fast
// paths must match bit for bit.
func refForward(l *Linear, x, y []float64) {
	for o := 0; o < l.Out; o++ {
		s := l.B.Val[o]
		row := l.W.Val[o*l.In : (o+1)*l.In]
		for i, xv := range x {
			s += row[i] * xv
		}
		y[o] = s
	}
}

func refBackward(l *Linear, x, gy, gx []float64) {
	for o := 0; o < l.Out; o++ {
		g := gy[o]
		l.B.Grad[o] += g
		row := l.W.Grad[o*l.In : (o+1)*l.In]
		wrow := l.W.Val[o*l.In : (o+1)*l.In]
		for i, xv := range x {
			row[i] += g * xv
			if gx != nil {
				gx[i] += g * wrow[i]
			}
		}
	}
}

// refMLP drives the reference kernels over an MLP's layers. Its Backward
// re-runs the forward pass, as the MLP did before it kept its activations.
type refMLP struct {
	*MLP
}

func (r refMLP) Forward(x []float64) []float64 {
	in := x
	for k, l := range r.layers {
		refForward(l, in, r.outs[k])
		if k < len(r.layers)-1 {
			for i := range r.outs[k] {
				r.outs[k][i] = r.act.apply(r.outs[k][i])
			}
		}
		in = r.outs[k]
	}
	return r.outs[len(r.outs)-1]
}

func (r refMLP) Backward(x, gradOut []float64) {
	r.Forward(x)
	gy := gradOut
	for k := len(r.layers) - 1; k >= 0; k-- {
		in := x
		if k > 0 {
			in = r.outs[k-1]
		}
		var gx []float64
		if k > 0 {
			gx = make([]float64, r.layers[k].In)
		}
		refBackward(r.layers[k], in, gy, gx)
		if k > 0 {
			for i := range gx {
				gx[i] *= r.act.derivFromOut(r.outs[k-1][i])
			}
			gy = gx
		}
	}
}

// forEachBody runs f under the Go bodies of gemm, adamStep and
// transpose and package math's exp, log and tanh, and then, where the
// init probe selected them, under their assembly bodies. It restores the
// probe's choice when f returns or fails.
func forEachBody(f func(body string)) {
	gemmA, adamA, transposeA := gemmAsm, adamAsm, transposeAsm
	expA, logA, tanhA := expAsm, logAsm, tanhAsm
	restore := func() {
		gemmAsm, adamAsm, transposeAsm = gemmA, adamA, transposeA
		expAsm, logAsm, tanhAsm = expA, logA, tanhA
	}
	defer restore()
	gemmAsm, adamAsm, transposeAsm = nil, nil, nil
	expAsm, logAsm, tanhAsm = nil, nil, nil
	f("go")
	if gemmA != nil || adamA != nil || transposeA != nil || expA != nil || logA != nil || tanhA != nil {
		restore()
		f("asm")
	}
}

// refAdamStep is the scalar Adam loop that adamStep's bodies replace,
// kept as the reference they must match bit for bit.
func refAdamStep(a *Adam) {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad {
			m[j] = a.beta1*m[j] + (1-a.beta1)*g
			v[j] = a.beta2*v[j] + (1-a.beta2)*g*g
			p.Val[j] -= a.lr * (m[j] / bc1) / (math.Sqrt(v[j]/bc2) + a.eps)
		}
	}
}

// kernelInput fills x with one of the input kinds the network must handle
// exactly: sparse binary, real-valued, all zero, or a mix containing −0.
func kernelInput(x []float64, kind int, rng *prng.Source) {
	negZero := math.Copysign(0, -1)
	for i := range x {
		switch kind {
		case 0: // discovery's 0/1 bit-selection vectors, about 3% ones
			x[i] = 0
			if rng.Float64() < 0.03 {
				x[i] = 1
			}
		case 1:
			x[i] = rng.NormFloat64()
		case 2:
			x[i] = 0
		default:
			switch rng.Intn(4) {
			case 0:
				x[i] = negZero
			case 1:
				x[i] = 0
			case 2:
				x[i] = 1
			default:
				x[i] = rng.NormFloat64()
			}
		}
	}
}

// requireSameBits fails unless want and got are identical float64 bit
// patterns, which also tells +0 from −0.
func requireSameBits(t *testing.T, what string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzMLPKernels checks that Forward, ForwardBatch, BackwardBatch and
// Adam.Step reproduce the scalar reference bit for bit under the Go and
// the assembly bodies: the outputs of every pass, the gradients
// accumulated over two minibatches of 1–70 samples between Adam steps,
// with one workspace throughout, and the parameters after each step. The
// minibatches cover both sides of every 16-sample strip of the assembly
// body, and layer widths are not restricted to multiples of 16.
func FuzzMLPKernels(f *testing.F) {
	f.Add(uint64(1), byte(128), byte(65), byte(66), byte(128), byte(3), byte(0), byte(0), byte(8), byte(0))
	f.Add(uint64(2), byte(7), byte(6), byte(7), byte(3), byte(2), byte(1), byte(1), byte(3), byte(0))
	f.Add(uint64(3), byte(13), byte(7), byte(8), byte(1), byte(3), byte(2), byte(0), byte(5), byte(0))
	f.Add(uint64(4), byte(1), byte(2), byte(3), byte(1), byte(1), byte(3), byte(1), byte(2), byte(0))
	// Discovery's policy network, [128, 64, 64, 128], and minibatch of 64.
	f.Add(uint64(5), byte(127), byte(63), byte(63), byte(127), byte(2), byte(0), byte(0), byte(63), byte(69))
	// Widths and minibatches one past and one short of a 16-sample strip.
	f.Add(uint64(6), byte(36), byte(16), byte(30), byte(32), byte(2), byte(3), byte(1), byte(16), byte(30))
	f.Fuzz(func(t *testing.T, seed uint64, inSel, hidden1Sel, hidden2Sel, outSel, depthSel, kindSel, actSel, batchSel, batch2Sel byte) {
		sizes := []int{1 + int(inSel)%130}
		for _, sel := range []byte{hidden1Sel, hidden2Sel}[:int(depthSel)%3] {
			sizes = append(sizes, 1+int(sel)%67)
		}
		sizes = append(sizes, 1+int(outSel)%131)
		act := Activation(actSel % 2)
		batches := []int{1 + int(batchSel)%70, 1 + int(batch2Sel)%70}

		forEachBody(func(body string) {
			m := NewMLP(sizes, act, prng.New(seed))
			ref := refMLP{NewMLP(sizes, act, prng.New(seed))}
			mOpt := NewAdam(m.Params(), 1e-2)
			refOpt := NewAdam(ref.Params(), 1e-2)
			rng := prng.New(seed ^ 0x5eed)
			var ws Workspace
			out := m.OutSize()

			for step := 0; step < 3; step++ {
				ZeroGrad(m.Params())
				ZeroGrad(ref.Params())
				for _, n := range batches {
					xs := make([][]float64, n)
					for s := range xs {
						xs[s] = make([]float64, m.InSize())
						kernelInput(xs[s], (int(kindSel)+s)%4, rng)
					}
					gradOut := make([]float64, out*n)
					for i := range gradOut {
						gradOut[i] = rng.NormFloat64()
						if rng.Intn(8) == 0 {
							gradOut[i] = 0
						}
					}
					batchOut := m.ForwardBatch(&ws, xs)
					for s, x := range xs {
						want := ref.Forward(x)
						requireSameBits(t, body+" output", want, m.Forward(x))
						requireSameBits(t, body+" batch output", want, batchOut[s*out:][:out])
					}
					m.BackwardBatch(&ws, gradOut)
					for s, x := range xs {
						ref.Backward(x, gradOut[s*out:][:out])
					}
					for pi, p := range ref.Params() {
						requireSameBits(t, body+" grad", p.Grad, m.Params()[pi].Grad)
					}
				}
				ClipGradNorm(m.Params(), 0.5)
				ClipGradNorm(ref.Params(), 0.5)
				mOpt.Step()
				refAdamStep(refOpt)
				for pi, p := range ref.Params() {
					requireSameBits(t, body+" param", p.Val, m.Params()[pi].Val)
				}
			}
		})
	})
}
