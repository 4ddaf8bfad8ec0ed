// Package nn is a minimal neural-network library sufficient for the PPO
// agent: dense layers with manual backpropagation, tanh/ReLU activations,
// softmax utilities for categorical policies, Xavier initialization, and
// the Adam optimizer. Everything is float64 and allocation-conscious.
//
// An MLP runs one sample at a time (Forward, for acting) or a minibatch
// layer by layer (ForwardBatch and BackwardBatch, for training), and both
// return the same bits as the textbook scalar loops. Forward computes
// four output rows per pass: every row's sum still adds its terms in
// input order, but the four sums are independent dependency chains. The
// minibatch pass keeps activations unit-major (unit × sample) in a
// Workspace the caller owns, and every dense product goes through gemm,
// which adds A·B to C one term after the other: the forward pass adds W·x
// to the biases, the input gradient is Wᵀ·gy with W read through swapped
// strides, and the weight gradient adds gy·xᵀ, read from a sample-major
// copy of x. Each element so gains the same terms in the same order as it
// would one sample at a time. Adam evaluates the same expressions for
// every element whichever body runs it. On amd64 CPUs with AVX, gemm
// keeps two-row, 16-column tiles of C in vector registers and Adam runs
// four elements at a time, on lanes that round exactly as the Go bodies
// do. The tanh activation, Softmax's exponentials and LogSlice run four
// elements at a time too, on AVX2 lanes that replay package math's amd64
// instruction sequences and so return math's bits, and the layout
// transposes move 4×4 blocks.
//
// The first layer is sparse: policy observations are 0/1 bit-selection
// vectors, mostly zeros, so both passes collect the nonzero inputs once
// and the first layer's forward pass and weight gradient visit only
// those. A skipped term is w·0 = ±0, which leaves every sum here
// unchanged because no sum is ever −0 (DESIGN.md, "Exact fast paths in
// the policy network").
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

// applyAll replaces every element of y by its activation.
func (a Activation) applyAll(y []float64) {
	if a == Tanh {
		tanhSlice(y, y)
		return
	}
	for i, v := range y {
		y[i] = a.apply(v)
	}
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

// forwardBatch is forward for n samples, with x (In × n) and y (Out × n)
// unit-major: y = W·x, where each output starts at its bias and adds
// W[o][i]·x[i] in input order.
func (l *Linear) forwardBatch(x, y []float64, n int) {
	for o, b := range l.B.Val {
		yo := y[o*n:][:n]
		for s := range yo {
			yo[s] = b
		}
	}
	gemm(l.Out, n, l.In, l.W.Val, l.In, 1, x, n, y, n)
}

// backwardBatch accumulates the parameter gradients of n samples, given
// the layer input x (In × n) and the upstream gradient gy (Out × n), and
// writes the input gradient to gx (In × n), all unit-major; xt is scratch
// for a sample-major copy of x (n × In). Every element gains its terms in
// the order n one-sample passes would add them: a bias gradient in sample
// order; W.Grad += gy·xᵀ in sample order; gx = Wᵀ·gy from +0 in output
// order, reading W with its rows and columns swapped in place of a
// transposed copy.
func (l *Linear) backwardBatch(x, gy, gx, xt []float64, n int) {
	in := l.In
	for o := 0; o < l.Out; o++ {
		for _, g := range gy[o*n:][:n] {
			l.B.Grad[o] += g
		}
	}
	xt = xt[:n*in]
	transpose(xt, x, in, n)
	gemm(l.Out, in, n, gy, n, 1, xt, in, l.W.Grad, in)
	gx = gx[:in*n]
	clear(gx)
	gemm(in, n, l.Out, l.W.Val, 1, in, gy, n, gx, n)
}

// MLP is a multi-layer perceptron: hidden dense layers with a shared
// activation, then a linear output layer.
type MLP struct {
	layers []*Linear
	act    Activation
	// Forward's scratch: its input's nonzero entries, x[nzIdx[j]] =
	// nzVal[j] in index order, and every layer's output.
	nzIdx []int
	nzVal []float64
	outs  [][]float64
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
	for i, l := range m.layers {
		m.outs[i] = make([]float64, l.Out)
	}
	return m
}

// OutputLayer returns the final linear layer (for head-specific init).
func (m *MLP) OutputLayer() *Linear { return m.layers[len(m.layers)-1] }

// InSize returns the expected input width.
func (m *MLP) InSize() int { return m.layers[0].In }

// OutSize returns the output width.
func (m *MLP) OutSize() int { return m.layers[len(m.layers)-1].Out }

// checkInput panics unless x has the network's input width.
func (m *MLP) checkInput(x []float64) {
	if len(x) != m.InSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.InSize()))
	}
}

// appendNonzero appends x's nonzero entries to idx and val, in index
// order.
func appendNonzero(idx []int, val, x []float64) ([]int, []float64) {
	for i, v := range x {
		if v != 0 {
			idx = append(idx, i)
			val = append(val, v)
		}
	}
	return idx, val
}

// Forward evaluates the network on one sample and returns its output
// slice, which is owned by the MLP and overwritten by the next call.
func (m *MLP) Forward(x []float64) []float64 {
	m.checkInput(x)
	m.nzIdx, m.nzVal = appendNonzero(m.nzIdx[:0], m.nzVal[:0], x)
	m.layers[0].forwardSparse(m.nzIdx, m.nzVal, m.outs[0])
	for k, l := range m.layers {
		if k > 0 {
			l.forward(m.outs[k-1], m.outs[k])
		}
		if k < len(m.layers)-1 {
			m.act.applyAll(m.outs[k])
		}
	}
	return m.outs[len(m.outs)-1]
}

// Workspace holds one minibatch pass: its inputs' nonzero entries, every
// layer's output and the backward pass's gradients, unit-major (row u
// holds unit u of every sample). It grows to the largest network and
// minibatch it serves, so one workspace serves several networks, as long
// as each BackwardBatch follows the ForwardBatch of its own network. The
// zero value is ready to use.
type Workspace struct {
	net   *MLP // the network of the last ForwardBatch
	n     int  // its sample count
	nzIdx []int
	nzVal []float64
	nzOff []int        // sample s owns nzIdx[nzOff[s]:nzOff[s+1]]
	outs  [][]float64  // outs[k]: layer k's output, Out × n
	grads [2][]float64 // input gradients, In × n, alternating by layer
	out   []float64    // the network's output, sample-major
	cols  []float64    // a layer's input sample-major, or one sample's first-layer units
}

// nonzero returns sample s's nonzero inputs.
func (ws *Workspace) nonzero(s int) ([]int, []float64) {
	lo, hi := ws.nzOff[s], ws.nzOff[s+1]
	return ws.nzIdx[lo:hi], ws.nzVal[lo:hi]
}

// resize returns buf with length n, reallocating only when it is too
// short.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// transposeAsm is transpose's assembly body for rows and cols positive
// multiples of 4, set at init where this GOARCH has one and the CPU can
// run it. While it is nil, and for other shapes, transpose runs its loop;
// tests set it to nil to force that.
var transposeAsm func(dst, src []float64, rows, cols int)

// transpose writes the rows × cols matrix src to dst as cols × rows, both
// row-major. It only moves values, so both bodies write the same bits.
func transpose(dst, src []float64, rows, cols int) {
	dst, src = dst[:rows*cols], src[:rows*cols]
	if transposeAsm != nil && rows > 0 && cols > 0 && rows%4 == 0 && cols%4 == 0 {
		transposeAsm(dst, src, rows, cols)
		return
	}
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols:][:cols] {
			dst[c*rows+r] = v
		}
	}
}

// ForwardBatch evaluates the network on every sample of xs and returns
// the outputs sample after sample: out[s*OutSize():][:OutSize()] holds
// the bits Forward(xs[s]) returns. The output and everything
// BackwardBatch needs stay in ws until its next ForwardBatch; xs may be
// reused at once.
func (m *MLP) ForwardBatch(ws *Workspace, xs [][]float64) []float64 {
	n := len(xs)
	ws.net, ws.n = m, n
	ws.nzIdx, ws.nzVal, ws.nzOff = ws.nzIdx[:0], ws.nzVal[:0], append(ws.nzOff[:0], 0)
	for _, x := range xs {
		m.checkInput(x)
		ws.nzIdx, ws.nzVal = appendNonzero(ws.nzIdx, ws.nzVal, x)
		ws.nzOff = append(ws.nzOff, len(ws.nzIdx))
	}
	cols := m.layers[0].Out
	for _, l := range m.layers[1:] {
		cols = max(cols, l.In*n)
	}
	ws.cols = resize(ws.cols, cols)
	for len(ws.outs) < len(m.layers) {
		ws.outs = append(ws.outs, nil)
	}
	for k, l := range m.layers {
		y := resize(ws.outs[k], l.Out*n)
		ws.outs[k] = y
		if k == 0 {
			col := ws.cols[:l.Out]
			for s := 0; s < n; s++ {
				idx, val := ws.nonzero(s)
				l.forwardSparse(idx, val, col)
				for o, v := range col {
					y[o*n+s] = v
				}
			}
		} else {
			l.forwardBatch(ws.outs[k-1], y, n)
		}
		if k < len(m.layers)-1 {
			m.act.applyAll(y)
		}
	}
	ws.out = resize(ws.out, m.OutSize()*n)
	transpose(ws.out, ws.outs[len(m.layers)-1], m.OutSize(), n)
	return ws.out
}

// BackwardBatch accumulates parameter gradients for the samples of the
// last ForwardBatch in ws, which must have run this network with the
// weights unchanged since. gradOut holds the output gradients sample
// after sample, as ForwardBatch returns outputs. Every gradient element
// gains the bits that one-sample backward passes in sample order would
// add.
func (m *MLP) BackwardBatch(ws *Workspace, gradOut []float64) {
	if ws.net != m {
		panic("nn: BackwardBatch without a ForwardBatch of this network")
	}
	n, last := ws.n, len(m.layers)-1
	if len(gradOut) != m.OutSize()*n {
		panic(fmt.Sprintf("nn: output gradient of %d values, want %d", len(gradOut), m.OutSize()*n))
	}
	// The last layer's unit-major output is not needed again: it takes
	// the output gradient in its layout.
	gy := ws.outs[last]
	transpose(gy, gradOut, n, m.OutSize())
	for k := last; k > 0; k-- {
		l := m.layers[k]
		x := ws.outs[k-1]
		gx := resize(ws.grads[k%2], l.In*n)
		ws.grads[k%2] = gx
		l.backwardBatch(x, gy, gx, ws.cols, n)
		// Chain through the activation of the previous layer.
		for i, y := range x {
			gx[i] *= m.act.derivFromOut(y)
		}
		gy = gx
	}
	first := m.layers[0]
	col := ws.cols[:first.Out]
	for s := 0; s < n; s++ {
		for o := range col {
			col[o] = gy[o*n+s]
		}
		idx, val := ws.nonzero(s)
		first.backwardSparse(idx, val, col)
	}
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
	h := adamCoef{
		beta1: a.beta1, c1: 1 - a.beta1,
		beta2: a.beta2, c2: 1 - a.beta2,
		lr:  a.lr,
		bc1: 1 - math.Pow(a.beta1, float64(a.t)),
		bc2: 1 - math.Pow(a.beta2, float64(a.t)),
		eps: a.eps,
	}
	for i, p := range a.params {
		adamStep(p.Val, p.Grad, a.m[i], a.v[i], h)
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
	for i, l := range logits {
		probs[i] = l - maxL
	}
	expSlice(probs, probs[:len(logits)])
	var sum float64
	for _, p := range probs[:len(logits)] {
		sum += p
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
