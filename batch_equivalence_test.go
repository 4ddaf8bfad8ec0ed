package explorefault_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	explorefault "repro"
	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/evaluate"
	"repro/internal/fault"
	"repro/internal/prng"
	"repro/internal/stats"
)

// floatBits renders a float64 slice as raw bit patterns so comparisons
// catch any drift, however small.
func floatBits(xs []float64) string {
	s := ""
	for _, x := range xs {
		s += fmt.Sprintf("%016x", math.Float64bits(x))
	}
	return s
}

// accFingerprint compresses the raw power and cross sums of a merged
// accumulator set into a comparable string.
func accFingerprint(accs []*stats.Accumulator) string {
	s := ""
	for _, a := range accs {
		pow, cross := a.RawSums()
		s += fmt.Sprintf("n=%d|%s|%s;", a.N(), floatBits(pow), floatBits(cross))
	}
	return s
}

// TestBatchScalarEquivalence is the golden-vector table of the batch
// engine: for every registered cipher and a grid of (pattern, mode)
// choices it asserts that the batch path and the scalar reference path
// produce bit-identical trace matrices (captured point states) and
// bit-identical merged accumulator sums for worker counts 1 and 4.
// Ciphers without a batch kernel exercise the dispatch fallback.
func TestBatchScalarEquivalence(t *testing.T) {
	const samples = 300
	keyRng := prng.New(0xbadc)
	for _, name := range explorefault.Ciphers() {
		info, err := ciphers.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		key := make([]byte, info.KeyBytes)
		keyRng.Fill(key)
		c, err := info.New(key)
		if err != nil {
			t.Fatal(err)
		}
		stateBits := 8 * info.BlockBytes
		round := info.Rounds - 5
		if round < 1 {
			round = 1
		}
		points := fault.PointsWindow(c, round, fault.DefaultLag, fault.DefaultWindow)
		ng := stateBits / info.GroupBits
		patterns := map[string]bitvec.Vector{
			"bit":    bitvec.FromBits(stateBits, stateBits/2),
			"group":  explorefault.PatternFromGroups(stateBits, info.GroupBits, 1),
			"spread": explorefault.PatternFromGroups(stateBits, info.GroupBits, 0, ng/2, ng-1),
		}
		for _, mode := range []fault.Mode{fault.RandomMask, fault.FlipAll} {
			for pname, pat := range patterns {
				t.Run(fmt.Sprintf("%s/%v/%s", name, mode, pname), func(t *testing.T) {
					mk := func(noBatch bool) fault.Campaign {
						return fault.Campaign{
							Cipher:    c,
							Pattern:   pat,
							Round:     round,
							Mode:      mode,
							Samples:   samples,
							Points:    points,
							GroupBits: info.GroupBits,
							NoBatch:   noBatch,
						}
					}

					// Trace matrices: identical grouped differentials per
					// (sample, point), i.e. identical captured states.
					scalarCp, batchCp := mk(true), mk(false)
					wantRes, err := scalarCp.Collect(prng.New(42))
					if err != nil {
						t.Fatal(err)
					}
					gotRes, err := batchCp.Collect(prng.New(42))
					if err != nil {
						t.Fatal(err)
					}
					for pi := range wantRes.Matrices {
						for s := range wantRes.Matrices[pi] {
							if floatBits(gotRes.Matrices[pi][s]) != floatBits(wantRes.Matrices[pi][s]) {
								t.Fatalf("point %d sample %d: batch differential diverges from scalar", pi, s)
							}
						}
					}

					// Merged accumulators: bit-identical power sums for
					// every (path, worker-count) combination.
					want := ""
					for _, noBatch := range []bool{true, false} {
						cp := mk(noBatch)
						if err := cp.Validate(); err != nil {
							t.Fatal(err)
						}
						for _, workers := range []int{1, 4} {
							accs, err := evaluate.RunSharded(context.Background(), samples, workers, len(points), cp.Groups(), 2, 99,
								func(rng *prng.Source, shard, n int, shardAccs []*stats.Accumulator) error {
									return cp.CollectInto(rng, n, shardAccs)
								})
							if err != nil {
								t.Fatal(err)
							}
							fp := accFingerprint(accs)
							if want == "" {
								want = fp
							} else if fp != want {
								t.Errorf("noBatch=%v workers=%d: accumulator sums diverge from scalar/workers=1", noBatch, workers)
							}
						}
					}
				})
			}
		}
	}
}

// TestBatchScalarEquivalenceModels extends the golden-vector table along
// the fault-model axis: every registered cipher × typed fault model must
// produce bit-identical trace matrices and merged accumulator sums on the
// batch and scalar paths for worker counts 1 and 4. This covers both
// halves of the kernels' injection op: the XOR-only hot path (XorFlip) and
// the (AND, XOR) lanes of the other models.
func TestBatchScalarEquivalenceModels(t *testing.T) {
	const samples = 200
	keyRng := prng.New(0xfade)
	for _, name := range explorefault.Ciphers() {
		info, err := ciphers.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		key := make([]byte, info.KeyBytes)
		keyRng.Fill(key)
		c, err := info.New(key)
		if err != nil {
			t.Fatal(err)
		}
		stateBits := 8 * info.BlockBytes
		round := info.Rounds - 5
		if round < 1 {
			round = 1
		}
		points := fault.PointsWindow(c, round, fault.DefaultLag, fault.DefaultWindow)
		ng := stateBits / info.GroupBits
		pat := explorefault.PatternFromGroups(stateBits, info.GroupBits, 0, ng/2, ng-1)
		for _, model := range fault.Models() {
			t.Run(fmt.Sprintf("%s/%s", name, model), func(t *testing.T) {
				mk := func(noBatch bool) fault.Campaign {
					return fault.Campaign{
						Cipher:    c,
						Pattern:   pat,
						Round:     round,
						Model:     model,
						Samples:   samples,
						Points:    points,
						GroupBits: info.GroupBits,
						NoBatch:   noBatch,
					}
				}

				scalarCp, batchCp := mk(true), mk(false)
				wantRes, err := scalarCp.Collect(prng.New(77))
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := batchCp.Collect(prng.New(77))
				if err != nil {
					t.Fatal(err)
				}
				for pi := range wantRes.Matrices {
					for s := range wantRes.Matrices[pi] {
						if floatBits(gotRes.Matrices[pi][s]) != floatBits(wantRes.Matrices[pi][s]) {
							t.Fatalf("point %d sample %d: batch differential diverges from scalar", pi, s)
						}
					}
				}

				want := ""
				for _, noBatch := range []bool{true, false} {
					cp := mk(noBatch)
					if err := cp.Validate(); err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4} {
						accs, err := evaluate.RunSharded(context.Background(), samples, workers, len(points), cp.Groups(), 2, 99,
							func(rng *prng.Source, shard, n int, shardAccs []*stats.Accumulator) error {
								return cp.CollectInto(rng, n, shardAccs)
							})
						if err != nil {
							t.Fatal(err)
						}
						fp := accFingerprint(accs)
						if want == "" {
							want = fp
						} else if fp != want {
							t.Errorf("noBatch=%v workers=%d: accumulator sums diverge from scalar/workers=1", noBatch, workers)
						}
					}
				}
			})
		}
	}
}

// TestProtectedBatchScalarEquivalence: the countermeasure oracle must
// return bit-identical statistics (and muted counts, which feed the PRNG
// stream) on the batch and scalar paths for any worker count. The oracle
// encrypts one trace per kernel call, so this runs the per-trace fork
// steps of every kernel family: AES's word blocks, GIFT's and PRESENT's
// nibble states and SIMON's and SPECK's word pairs.
func TestProtectedBatchScalarEquivalence(t *testing.T) {
	for _, name := range []string{"aes128", "gift64", "present80", "speck64", "simon32"} {
		info, err := ciphers.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		stateBits := 8 * info.BlockBytes
		round := info.Rounds - 5
		// The same single bit in both branches survives duplication often
		// enough to exercise both the match and the mute paths.
		pattern := explorefault.PatternFromBits(2*stateBits, 12, stateBits+12)
		var want uint64
		first := true
		for _, noBatch := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				res, err := explorefault.AssessProtected(pattern, explorefault.AssessConfig{
					Cipher:  name,
					Round:   round,
					Samples: 320,
					Workers: workers,
					NoBatch: noBatch,
					Seed:    17,
				})
				if err != nil {
					t.Fatal(err)
				}
				bits := math.Float64bits(res.T)
				if first {
					want, first = bits, false
					continue
				}
				if bits != want {
					t.Errorf("%s noBatch=%v workers=%d: T bits %x != scalar bits %x",
						name, noBatch, workers, bits, want)
				}
			}
		}
	}
}
