package stats

import "fmt"

// MaxTestOrder is the highest t-test order the entry points accept. An
// order-d test reads the power sums Σx^k up to k = 2d, so an
// accumulator's storage grows with d without bound. Precision ends long
// before memory does: the centered moments are recovered from float64
// raw power sums by cancellation. On a one-bit fault at GIFT-64 rounds 5 and 25 and
// AES-128 round 3, at 512 and 2,048 samples, orders 1 to 16 returned
// finite statistics below the cap and order 17 returned the cap in all
// six cases.
const MaxTestOrder = 16

// Accumulator folds grouped differential rows into running raw power
// sums from which Welch t statistics of every order 1..MaxOrder can be
// derived, without materializing a Samples x Groups trace matrix.
//
// Per column j it keeps Σ x_j^k for k = 1..max(2, 2*MaxOrder); for
// MaxOrder >= 2 it additionally keeps, per column pair i < j, the joint
// sums Σ x_i x_j, Σ x_i² x_j, Σ x_i x_j² and Σ x_i² x_j². The centered
// populations of the matrix-based tests (FirstOrder, SecondOrder,
// HigherOrder) are recovered from these sums algebraically, so streaming
// results agree with the matrix results to floating-point accuracy.
//
// Because group values are small integers, all sums needed for orders
// 1 and 2 are exactly representable in float64, which makes Merge an
// exact operation there; campaigns sharded across workers therefore
// reproduce the single-threaded statistics as long as shard boundaries
// and the merge order are fixed (see internal/evaluate.RunSharded).
type Accumulator struct {
	groups   int
	maxOrder int
	powers   int // power sums kept per column: Σ x^k, k = 1..powers
	n        int
	pow      []float64 // pow[j*powers+k-1] = Σ x_j^k
	cross    []float64 // 4 sums per pair i<j (see pairBase); nil for order 1
	frozen   *refMoments
}

// refMoments holds the moments T reads of a frozen reference (see
// Freeze): m1[j] of column j, and m2 of each pair i <= j in T's order.
type refMoments struct {
	m1, m2 []meanVar
}

type meanVar struct{ mean, variance float64 }

// NewAccumulator returns an empty accumulator for rows of the given
// column count supporting t-test orders 1..maxOrder.
func NewAccumulator(groups, maxOrder int) *Accumulator {
	if groups < 1 {
		panic(fmt.Sprintf("stats: NewAccumulator requires groups >= 1, got %d", groups))
	}
	if maxOrder < 1 {
		panic(fmt.Sprintf("stats: NewAccumulator requires maxOrder >= 1, got %d", maxOrder))
	}
	powers := 2 * maxOrder
	if powers < 2 {
		powers = 2
	}
	a := &Accumulator{
		groups:   groups,
		maxOrder: maxOrder,
		powers:   powers,
		pow:      make([]float64, groups*powers),
	}
	if maxOrder >= 2 {
		a.cross = make([]float64, 4*groups*(groups-1)/2)
	}
	return a
}

// Groups returns the column count.
func (a *Accumulator) Groups() int { return a.groups }

// MaxOrder returns the highest supported t-test order.
func (a *Accumulator) MaxOrder() int { return a.maxOrder }

// N returns the number of accumulated rows.
func (a *Accumulator) N() int { return a.n }

// RawSums returns copies of the raw power sums and (for maxOrder >= 2,
// else nil) the pairwise cross sums. Two accumulators fed the same rows
// in the same order have byte-identical raw sums, which is what the
// batch-versus-scalar equivalence tests assert.
func (a *Accumulator) RawSums() (pow, cross []float64) {
	pow = append([]float64(nil), a.pow...)
	if a.cross != nil {
		cross = append([]float64(nil), a.cross...)
	}
	return pow, cross
}

// Freeze makes a a read-only reference population: it computes the
// order-1 and order-2 moments that T reads of its reference once, so
// every later T and MaxT against a computes only its own side. Add,
// AddBlock, Merge and Reset panic on a frozen accumulator. The cached
// moments come from the same functions on the same sums, so T returns
// the same bits as against an unfrozen copy; orders >= 3 compute the
// reference's moments per call as before.
func (a *Accumulator) Freeze() {
	if a.frozen != nil {
		return
	}
	f := &refMoments{m1: make([]meanVar, a.groups)}
	for j := range f.m1 {
		f.m1[j].mean, f.m1[j].variance = a.moments1(j)
	}
	if a.maxOrder >= 2 {
		f.m2 = make([]meanVar, 0, a.groups*(a.groups+1)/2)
		for i := 0; i < a.groups; i++ {
			for j := i; j < a.groups; j++ {
				m, v := a.moments2(i, j)
				f.m2 = append(f.m2, meanVar{m, v})
			}
		}
	}
	a.frozen = f
}

// mutable panics when a is frozen.
func (a *Accumulator) mutable() {
	if a.frozen != nil {
		panic("stats: a frozen reference accumulator is read-only")
	}
}

// Add folds one row of group values into the running sums.
func (a *Accumulator) Add(row []float64) {
	a.mutable()
	if len(row) != a.groups {
		panic(fmt.Sprintf("stats: row has %d columns, accumulator has %d", len(row), a.groups))
	}
	for j, x := range row {
		base := j * a.powers
		p := x
		for k := 0; k < a.powers; k++ {
			a.pow[base+k] += p
			p *= x
		}
	}
	if a.cross != nil {
		c := 0
		for i := 0; i < a.groups; i++ {
			xi := row[i]
			xi2 := xi * xi
			for j := i + 1; j < a.groups; j++ {
				xj := row[j]
				xij := xi * xj
				a.cross[c] += xij
				a.cross[c+1] += xi2 * xj
				a.cross[c+2] += xij * xj
				a.cross[c+3] += xij * xij
				c += 4
			}
		}
	}
	a.n++
}

// Reset empties the accumulator for reuse, keeping its shape.
func (a *Accumulator) Reset() {
	a.mutable()
	a.n = 0
	clear(a.pow)
	clear(a.cross)
}

// Merge combines another accumulator (same shape) into a. Merging shard
// accumulators in a fixed order reproduces the serial accumulation
// deterministically.
func (a *Accumulator) Merge(o *Accumulator) {
	a.mutable()
	if a.groups != o.groups || a.maxOrder != o.maxOrder {
		panic(fmt.Sprintf("stats: merging accumulator (%d groups, order %d) into (%d groups, order %d)",
			o.groups, o.maxOrder, a.groups, a.maxOrder))
	}
	a.n += o.n
	for i, v := range o.pow {
		a.pow[i] += v
	}
	for i, v := range o.cross {
		a.cross[i] += v
	}
}

// s returns Σ x_j^k.
func (a *Accumulator) s(j, k int) float64 { return a.pow[j*a.powers+k-1] }

// pairBase returns the offset of pair (i, j), i < j, into cross.
func (a *Accumulator) pairBase(i, j int) int {
	return 4 * (i*(2*a.groups-i-1)/2 + (j - i - 1))
}

// clampVar turns the tiny negative values that cancellation can produce
// into the exact zero the degenerate-case handling of Welch expects.
func clampVar(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// moments1 returns mean and unbiased variance of column j.
func (a *Accumulator) moments1(j int) (mean, variance float64) {
	n := float64(a.n)
	s1, s2 := a.s(j, 1), a.s(j, 2)
	mean = s1 / n
	if a.n < 2 {
		return mean, 0
	}
	return mean, clampVar((s2 - s1*s1/n) / (n - 1))
}

// moments2 returns mean and unbiased variance of the second-order
// population (x_i - μ_i)(x_j - μ_j), i <= j, each column centered by its
// own full-population mean exactly as SecondOrder does.
func (a *Accumulator) moments2(i, j int) (mean, variance float64) {
	n := float64(a.n)
	si, sj := a.s(i, 1), a.s(j, 1)
	sii, sjj := a.s(i, 2), a.s(j, 2)
	var sij, siij, sijj, siijj float64
	if i == j {
		sij, siij, sijj, siijj = sii, a.s(i, 3), a.s(i, 3), a.s(i, 4)
	} else {
		c := a.pairBase(i, j)
		sij, siij, sijj, siijj = a.cross[c], a.cross[c+1], a.cross[c+2], a.cross[c+3]
	}
	mi, mj := si/n, sj/n
	sumY := sij - si*sj/n
	sumY2 := siijj - 2*mj*siij - 2*mi*sijj +
		mj*mj*sii + mi*mi*sjj + 4*mi*mj*sij -
		2*mi*mj*mj*si - 2*mi*mi*mj*sj + n*mi*mi*mj*mj
	mean = sumY / n
	if a.n < 2 {
		return mean, 0
	}
	return mean, clampVar((sumY2 - sumY*sumY/n) / (n - 1))
}

// centeredSum returns Σ (x_j - μ_j)^m via binomial expansion over the
// raw power sums (m <= powers).
func (a *Accumulator) centeredSum(j, m int) float64 {
	n := float64(a.n)
	mu := a.s(j, 1) / n
	total := 0.0
	c := 1.0 // C(m, k)
	for k := 0; k <= m; k++ {
		sk := n // S_0
		if k > 0 {
			sk = a.s(j, k)
		}
		total += c * sk * signedPow(-mu, m-k)
		c = c * float64(m-k) / float64(k+1)
	}
	return total
}

func signedPow(x float64, d int) float64 {
	p := 1.0
	for i := 0; i < d; i++ {
		p *= x
	}
	return p
}

// momentsPow returns mean and unbiased variance of the univariate
// order-d population (x_j - μ_j)^d used by HigherOrder (d >= 3).
func (a *Accumulator) momentsPow(j, d int) (mean, variance float64) {
	n := float64(a.n)
	sumY := a.centeredSum(j, d)
	sumY2 := a.centeredSum(j, 2*d)
	mean = sumY / n
	if a.n < 2 {
		return mean, 0
	}
	return mean, clampVar((sumY2 - sumY*sumY/n) / (n - 1))
}

// refMoments1 returns the order-1 moments of column j of a reference:
// Freeze's copy when a is frozen.
func (a *Accumulator) refMoments1(j int) (mean, variance float64) {
	if f := a.frozen; f != nil {
		return f.m1[j].mean, f.m1[j].variance
	}
	return a.moments1(j)
}

// refMoments2 is refMoments1 for the order-2 population of pair i <= j,
// the c-th pair in T's order.
func (a *Accumulator) refMoments2(i, j, c int) (mean, variance float64) {
	if f := a.frozen; f != nil {
		return f.m2[c].mean, f.m2[c].variance
	}
	return a.moments2(i, j)
}

func (a *Accumulator) compat(ref *Accumulator, order int) {
	if ref.groups != a.groups {
		panic(fmt.Sprintf("stats: column mismatch %d vs %d", a.groups, ref.groups))
	}
	if order > a.maxOrder || order > ref.maxOrder {
		panic(fmt.Sprintf("stats: order %d exceeds accumulator capacity (%d, %d)",
			order, a.maxOrder, ref.maxOrder))
	}
}

// T runs the order-d Welch t-test sweep between a and the reference
// accumulator and returns the maximum statistic, matching FirstOrder,
// SecondOrder or HigherOrder on the equivalent trace matrices.
func (a *Accumulator) T(order int, ref *Accumulator) TTestResult {
	if order < 1 {
		panic(fmt.Sprintf("stats: T requires order >= 1, got %d", order))
	}
	a.compat(ref, order)
	best := TTestResult{Order: order}
	switch {
	case order == 1:
		for j := 0; j < a.groups; j++ {
			ma, va := a.moments1(j)
			mb, vb := ref.refMoments1(j)
			if t := WelchFromMoments(a.n, ma, va, ref.n, mb, vb); t > best.T {
				best.T, best.PosI, best.PosJ = t, j, j
			}
		}
	case order == 2:
		c := 0
		for i := 0; i < a.groups; i++ {
			for j := i; j < a.groups; j++ {
				ma, va := a.moments2(i, j)
				mb, vb := ref.refMoments2(i, j, c)
				if t := WelchFromMoments(a.n, ma, va, ref.n, mb, vb); t > best.T {
					best.T, best.PosI, best.PosJ = t, i, j
				}
				c++
			}
		}
	default:
		for j := 0; j < a.groups; j++ {
			ma, va := a.momentsPow(j, order)
			mb, vb := ref.momentsPow(j, order)
			if t := WelchFromMoments(a.n, ma, va, ref.n, mb, vb); t > best.T {
				best.T, best.PosI, best.PosJ = t, j, j
			}
		}
	}
	return best
}

// MaxT sweeps orders 1..g and returns the best (largest-T) result, the
// streaming counterpart of MaxUpToOrder.
func (a *Accumulator) MaxT(g int, ref *Accumulator) TTestResult {
	if g < 1 {
		panic(fmt.Sprintf("stats: MaxT requires g >= 1, got %d", g))
	}
	best := a.T(1, ref)
	for d := 2; d <= g; d++ {
		if r := a.T(d, ref); r.T > best.T {
			best = r
		}
	}
	return best
}
