package evaluate

import (
	"sync"

	"repro/internal/prng"
	"repro/internal/stats"
)

// CanonicalRefSeed seeds every engine's uniform-reference stream, so
// engines of the same shape (samples, grouping, order) share a single
// precomputed reference accumulator.
const CanonicalRefSeed uint64 = 0x5ca1ab1e0ddba11

type refKey struct {
	samples   int
	groupBits int
	groups    int
	maxOrder  int
	seed      uint64
}

type refEntry struct {
	once sync.Once
	acc  *stats.Accumulator
}

var (
	refMu    sync.Mutex
	refTable = map[refKey]*refEntry{}
)

// Reference returns the accumulated moments of a samples x groups uniform
// random population — the t-test's null hypothesis — computing each
// distinct (samples, groupBits, groups, maxOrder, seed) shape exactly once
// per process under a sync.Once guard. The returned accumulator is shared
// and frozen (stats.Accumulator.Freeze) before it is published: its
// order-1 and order-2 moments are computed once per shape, its reads (T,
// MaxT) are safe concurrently, and a call that would change it panics.
func Reference(samples, groupBits, groups, maxOrder int, seed uint64) *stats.Accumulator {
	key := refKey{samples, groupBits, groups, maxOrder, seed}
	refMu.Lock()
	e, ok := refTable[key]
	if !ok {
		e = &refEntry{}
		refTable[key] = e
	}
	refMu.Unlock()
	e.once.Do(func() {
		rng := prng.New(splitmix(seed ^ 0xc0ffee))
		maxVal := 1<<uint(groupBits) - 1
		acc := stats.NewAccumulator(groups, maxOrder)
		row := make([]float64, groups)
		for i := 0; i < samples; i++ {
			for j := range row {
				row[j] = float64(rng.Intn(maxVal + 1))
			}
			acc.Add(row)
		}
		acc.Freeze()
		e.acc = acc
	})
	return e.acc
}
