// Package stats implements the statistical machinery behind ExploreFault's
// exploitability oracle: Welch's t-test between a fault-induced state
// differential population and a uniform random reference population, plus
// the higher-order (moment-based) preprocessing used to expose multivariate
// leakage (ALAFA-style, as in Table I of the paper).
package stats

import "math"

// Moments accumulates streaming first and second moments of a sample.
// The zero value is an empty accumulator. Welford's algorithm keeps the
// variance numerically stable for the large sample counts used during
// training.
type Moments struct {
	n    int
	mean float64
	m2   float64 // sum of squared deviations from the running mean
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of observations.
func (m *Moments) N() int { return m.n }

// Mean returns the sample mean (0 for an empty sample).
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Merge combines another accumulator into m (parallel Welford merge).
func (m *Moments) Merge(o *Moments) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	m.n = n
}

// tCap bounds the reported statistic. A fault that makes some differential
// group constant produces a zero-variance population whose t statistic is
// formally infinite; capping keeps rewards and logs finite while staying
// far above any plausible threshold.
const tCap = 1e6

// Welch returns the absolute value of Welch's two-sample t statistic
// between the two accumulated samples. Degenerate cases (tiny samples,
// both variances zero) are resolved conservatively: equal means give 0,
// distinct means with no variance give the cap.
func Welch(a, b *Moments) float64 {
	return WelchFromMoments(a.n, a.mean, a.Variance(), b.n, b.mean, b.Variance())
}

// WelchFromMoments computes the same capped |t| statistic as Welch from
// summary moments (sample size, mean, unbiased variance) instead of
// Moments values. The streaming Accumulator derives its per-order
// populations this way without materializing them.
func WelchFromMoments(na int, meanA, varA float64, nb int, meanB, varB float64) float64 {
	if na < 2 || nb < 2 {
		return 0
	}
	num := meanA - meanB
	den := varA/float64(na) + varB/float64(nb)
	if den <= 0 {
		if num == 0 {
			return 0
		}
		return tCap
	}
	t := math.Abs(num) / math.Sqrt(den)
	if t > tCap {
		return tCap
	}
	return t
}

// DefaultThreshold is the leakage-classification threshold θ from the
// paper: |t| > 4.5 rejects the same-population null hypothesis with
// confidence > 99.999% for the sample sizes in use, where the t
// distribution is effectively normal and P(|Z| > 4.5) ≈ 6.8·10⁻⁶.
const DefaultThreshold = 4.5
