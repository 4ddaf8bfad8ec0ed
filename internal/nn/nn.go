// Package nn is a minimal neural-network library sufficient for the PPO
// agent: dense layers with manual backpropagation, tanh/ReLU activations,
// softmax utilities for categorical policies, Xavier initialization, and
// the Adam optimizer. Everything is float64 and allocation-conscious.
//
// The dense kernels are fast paths that return the same bits as the
// textbook scalar loops. Each layer computes four output rows per pass:
// every row's sum still adds its terms in input order, but the four sums
// are independent dependency chains, and the input gradient folds four
// rows per pass in output order. The first layer is sparse: policy
// observations are 0/1 bit-selection vectors, mostly zeros, so Forward
// collects the nonzero inputs once and the first layer's forward pass and
// weight gradient visit only those. A skipped term is w·0 = ±0, which
// leaves every sum here unchanged because no sum is ever −0 (DESIGN.md,
// "Exact fast paths in the policy network"). Forward keeps what the
// backward pass needs, so BackwardLast backpropagates without a second
// forward pass.
package nn

import (
	"fmt"
	"math"

	"repro/internal/prng"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	Val  []float64
	Grad []float64
}

// Activation selects the nonlinearity between hidden layers.
type Activation int

const (
	// Tanh is the default activation (matches Stable-Baselines3's
	// MlpPolicy, which the paper uses).
	Tanh Activation = iota
	// ReLU is provided for ablations.
	ReLU
)

func (a Activation) apply(x float64) float64 {
	if a == ReLU {
		if x < 0 {
			return 0
		}
		return x
	}
	return math.Tanh(x)
}

// derivFromOut computes the activation derivative from the activation
// output value (both tanh and ReLU allow this).
func (a Activation) derivFromOut(y float64) float64 {
	if a == ReLU {
		if y > 0 {
			return 1
		}
		return 0
	}
	return 1 - y*y
}

// Linear is a dense layer y = W x + b with W stored row-major (Out x In).
type Linear struct {
	In, Out int
	W, B    Param
}

// NewLinear creates a dense layer with Xavier/Glorot-uniform weights.
func NewLinear(in, out int, rng *prng.Source) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   Param{Val: make([]float64, in*out), Grad: make([]float64, in*out)},
		B:   Param{Val: make([]float64, out), Grad: make([]float64, out)},
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W.Val {
		l.W.Val[i] = (2*rng.Float64() - 1) * limit
	}
	return l
}

// ScaleWeights multiplies all weights by f. PPO policy heads are
// conventionally initialized small (orthogonal gain 0.01) so the initial
// policy is near-uniform; scaling Xavier weights achieves the same effect.
func (l *Linear) ScaleWeights(f float64) {
	for i := range l.W.Val {
		l.W.Val[i] *= f
	}
}

// rowBlock is the number of output rows the dense kernels compute per
// pass over the input.
const rowBlock = 4

// forward writes y = W x + b. Each output's sum starts at its bias and
// adds W[o][i]·x[i] in input order.
func (l *Linear) forward(x, y []float64) {
	in := l.In
	x = x[:in]
	w := l.W.Val
	o := 0
	for ; o+rowBlock <= l.Out; o += rowBlock {
		r0 := w[o*in:][:in]
		r1 := w[(o+1)*in:][:in]
		r2 := w[(o+2)*in:][:in]
		r3 := w[(o+3)*in:][:in]
		s0, s1, s2, s3 := l.B.Val[o], l.B.Val[o+1], l.B.Val[o+2], l.B.Val[o+3]
		for i, xv := range x {
			s0 += r0[i] * xv
			s1 += r1[i] * xv
			s2 += r2[i] * xv
			s3 += r3[i] * xv
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < l.Out; o++ {
		row := w[o*in:][:in]
		s := l.B.Val[o]
		for i, xv := range x {
			s += row[i] * xv
		}
		y[o] = s
	}
}

// forwardSparse is forward for an input whose nonzero entries are
// x[idx[j]] = val[j], in ascending index order. It adds the same nonzero
// terms in the same order as forward and skips the ±0 ones, which cannot
// change a sum that starts at a bias (see the package comment).
func (l *Linear) forwardSparse(idx []int, val, y []float64) {
	in := l.In
	val = val[:len(idx)]
	w := l.W.Val
	o := 0
	for ; o+rowBlock <= l.Out; o += rowBlock {
		r0 := w[o*in:][:in]
		r1 := w[(o+1)*in:][:in]
		r2 := w[(o+2)*in:][:in]
		r3 := w[(o+3)*in:][:in]
		s0, s1, s2, s3 := l.B.Val[o], l.B.Val[o+1], l.B.Val[o+2], l.B.Val[o+3]
		for j, i := range idx {
			xv := val[j]
			s0 += r0[i] * xv
			s1 += r1[i] * xv
			s2 += r2[i] * xv
			s3 += r3[i] * xv
		}
		y[o], y[o+1], y[o+2], y[o+3] = s0, s1, s2, s3
	}
	for ; o < l.Out; o++ {
		row := w[o*in:][:in]
		s := l.B.Val[o]
		for j, i := range idx {
			s += row[i] * val[j]
		}
		y[o] = s
	}
}

// backward accumulates parameter gradients given the layer input x and the
// upstream gradient gy, and adds the input gradient into gx. gx[i] gains
// gy[o]·W[o][i] in output order.
func (l *Linear) backward(x, gy, gx []float64) {
	in := l.In
	x = x[:in]
	for o, g := range gy {
		l.B.Grad[o] += g
		row := l.W.Grad[o*in:][:in]
		for i, xv := range x {
			row[i] += g * xv
		}
	}
	w := l.W.Val
	gx = gx[:in]
	o := 0
	for ; o+rowBlock <= l.Out; o += rowBlock {
		r0 := w[o*in:][:in]
		r1 := w[(o+1)*in:][:in]
		r2 := w[(o+2)*in:][:in]
		r3 := w[(o+3)*in:][:in]
		g0, g1, g2, g3 := gy[o], gy[o+1], gy[o+2], gy[o+3]
		for i, s := range gx {
			s += g0 * r0[i]
			s += g1 * r1[i]
			s += g2 * r2[i]
			s += g3 * r3[i]
			gx[i] = s
		}
	}
	for ; o < l.Out; o++ {
		row := w[o*in:][:in]
		g := gy[o]
		for i := range gx {
			gx[i] += g * row[i]
		}
	}
}

// backwardSparse accumulates the parameter gradients of a layer whose
// input is the sparse vector (idx, val) of forwardSparse. It computes no
// input gradient: it serves the first layer only.
func (l *Linear) backwardSparse(idx []int, val, gy []float64) {
	in := l.In
	val = val[:len(idx)]
	for o, g := range gy {
		l.B.Grad[o] += g
		row := l.W.Grad[o*in:][:in]
		for j, i := range idx {
			row[i] += g * val[j]
		}
	}
}

// MLP is a multi-layer perceptron: hidden dense layers with a shared
// activation, then a linear output layer.
type MLP struct {
	layers []*Linear
	act    Activation
	// The last Forward's input as a sparse vector: x[nzIdx[j]] = nzVal[j]
	// for its nonzero entries, in index order.
	nzIdx []int
	nzVal []float64
	// scratch buffers sized per layer, reused across calls.
	outs  [][]float64 // outs[k] = post-activation output of layer k (pre-activation for last)
	grads [][]float64
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes =
// [128, 64, 64, 10] gives two hidden layers of 64 units and a 10-unit
// linear output.
func NewMLP(sizes []int, act Activation, rng *prng.Source) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{act: act}
	for i := 0; i+1 < len(sizes); i++ {
		m.layers = append(m.layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	m.nzIdx = make([]int, 0, sizes[0])
	m.nzVal = make([]float64, 0, sizes[0])
	m.outs = make([][]float64, len(m.layers))
	m.grads = make([][]float64, len(m.layers))
	for i, l := range m.layers {
		m.outs[i] = make([]float64, l.Out)
		m.grads[i] = make([]float64, l.In)
	}
	return m
}

// OutputLayer returns the final linear layer (for head-specific init).
func (m *MLP) OutputLayer() *Linear { return m.layers[len(m.layers)-1] }

// InSize returns the expected input width.
func (m *MLP) InSize() int { return m.layers[0].In }

// OutSize returns the output width.
func (m *MLP) OutSize() int { return m.layers[len(m.layers)-1].Out }

// Forward evaluates the network and returns its output slice, which is
// owned by the MLP and overwritten by the next call. The MLP keeps what
// BackwardLast needs: the input's nonzero entries (copied, so the caller
// may reuse x) and every layer's output.
func (m *MLP) Forward(x []float64) []float64 {
	if len(x) != m.InSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.InSize()))
	}
	m.nzIdx, m.nzVal = m.nzIdx[:0], m.nzVal[:0]
	for i, v := range x {
		if v != 0 {
			m.nzIdx = append(m.nzIdx, i)
			m.nzVal = append(m.nzVal, v)
		}
	}
	m.layers[0].forwardSparse(m.nzIdx, m.nzVal, m.outs[0])
	for k, l := range m.layers {
		if k > 0 {
			l.forward(m.outs[k-1], m.outs[k])
		}
		if k < len(m.layers)-1 {
			for i, v := range m.outs[k] {
				m.outs[k][i] = m.act.apply(v)
			}
		}
	}
	return m.outs[len(m.outs)-1]
}

// Backward accumulates parameter gradients for input x and upstream output
// gradient gradOut. It runs Forward(x) first, so it does not require a
// preceding Forward call with the same x.
func (m *MLP) Backward(x, gradOut []float64) {
	m.Forward(x)
	m.BackwardLast(gradOut)
}

// BackwardLast accumulates parameter gradients for upstream output
// gradient gradOut at the input of the most recent Forward call. The
// weights must not have changed since that call.
func (m *MLP) BackwardLast(gradOut []float64) {
	gy := gradOut
	for k := len(m.layers) - 1; k > 0; k-- {
		gx := m.grads[k]
		for i := range gx {
			gx[i] = 0
		}
		m.layers[k].backward(m.outs[k-1], gy, gx)
		// Chain through the activation of the previous layer.
		for i, y := range m.outs[k-1] {
			gx[i] *= m.act.derivFromOut(y)
		}
		gy = gx
	}
	m.layers[0].backwardSparse(m.nzIdx, m.nzVal, gy)
}

// Params returns all trainable parameters.
func (m *MLP) Params() []Param {
	var ps []Param
	for _, l := range m.layers {
		ps = append(ps, l.W, l.B)
	}
	return ps
}

// ParamValues deep-copies the current parameter values, one slice per
// Param, for inclusion in a checkpoint. Gradients are transient (zeroed
// at the start of every update) and are deliberately not captured.
func ParamValues(params []Param) [][]float64 {
	vals := make([][]float64, len(params))
	for i, p := range params {
		vals[i] = append([]float64(nil), p.Val...)
	}
	return vals
}

// SetParamValues copies previously captured values back into the live
// parameter slices, validating shapes so a checkpoint from a different
// architecture cannot be silently applied.
func SetParamValues(params []Param, vals [][]float64) error {
	if len(vals) != len(params) {
		return fmt.Errorf("nn: restoring %d tensors into network with %d", len(vals), len(params))
	}
	for i, p := range params {
		if len(vals[i]) != len(p.Val) {
			return fmt.Errorf("nn: tensor %d has %d values, want %d", i, len(vals[i]), len(p.Val))
		}
	}
	for i, p := range params {
		copy(p.Val, vals[i])
	}
	return nil
}

// ZeroGrad clears all gradient accumulators.
func ZeroGrad(params []Param) {
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, returning the pre-clip norm (PPO uses max_grad_norm = 0.5).
func ClipGradNorm(params []Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		f := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= f
			}
		}
	}
	return norm
}

// Adam implements the Adam optimizer (Kingma & Ba) over a parameter set.
type Adam struct {
	params []Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   [][]float64
}

// NewAdam creates an Adam optimizer with standard hyperparameters
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([][]float64, len(params))
	a.v = make([][]float64, len(params))
	for i, p := range params {
		a.m[i] = make([]float64, len(p.Val))
		a.v[i] = make([]float64, len(p.Val))
	}
	return a
}

// SetLR updates the learning rate (for schedules).
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// AdamState is a serializable snapshot of the optimizer moments. The
// hyperparameters (lr, betas, eps) are configuration, not state: they are
// re-derived from the run config on restore.
type AdamState struct {
	T    int
	M, V [][]float64
}

// State deep-copies the optimizer's step count and moment estimates.
func (a *Adam) State() AdamState {
	st := AdamState{T: a.t, M: make([][]float64, len(a.m)), V: make([][]float64, len(a.v))}
	for i := range a.m {
		st.M[i] = append([]float64(nil), a.m[i]...)
		st.V[i] = append([]float64(nil), a.v[i]...)
	}
	return st
}

// Restore copies a snapshot back into the optimizer, validating shapes.
func (a *Adam) Restore(st AdamState) error {
	if len(st.M) != len(a.m) || len(st.V) != len(a.v) {
		return fmt.Errorf("nn: adam snapshot has %d/%d moment tensors, want %d", len(st.M), len(st.V), len(a.m))
	}
	for i := range a.m {
		if len(st.M[i]) != len(a.m[i]) || len(st.V[i]) != len(a.v[i]) {
			return fmt.Errorf("nn: adam moment tensor %d has %d/%d values, want %d", i, len(st.M[i]), len(st.V[i]), len(a.m[i]))
		}
	}
	a.t = st.T
	for i := range a.m {
		copy(a.m[i], st.M[i])
		copy(a.v[i], st.V[i])
	}
	return nil
}

// Step applies one Adam update from the accumulated gradients and then
// leaves the gradients untouched (call ZeroGrad before the next
// accumulation).
func (a *Adam) Step() {
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

// Softmax writes softmax(logits) into probs (allocating if probs is nil)
// and returns it, using the max-subtraction trick for stability.
func Softmax(logits, probs []float64) []float64 {
	if probs == nil {
		probs = make([]float64, len(logits))
	}
	maxL := math.Inf(-1)
	for _, l := range logits {
		if l > maxL {
			maxL = l
		}
	}
	var sum float64
	for i, l := range logits {
		probs[i] = math.Exp(l - maxL)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// SampleCategorical draws an index from the probability vector.
func SampleCategorical(probs []float64, rng *prng.Source) int {
	u := rng.Float64()
	var c float64
	for i, p := range probs {
		c += p
		if u < c {
			return i
		}
	}
	return len(probs) - 1
}

// Argmax returns the index of the largest element.
func Argmax(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range xs {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// LogProb returns log probs[i] with a floor to avoid -Inf.
func LogProb(probs []float64, i int) float64 {
	p := probs[i]
	if p < 1e-12 {
		p = 1e-12
	}
	return math.Log(p)
}

// Entropy returns the Shannon entropy of the distribution in nats.
func Entropy(probs []float64) float64 {
	var h float64
	for _, p := range probs {
		if p > 1e-12 {
			h -= p * math.Log(p)
		}
	}
	return h
}
