// bench_test.go regenerates every table and figure of the paper's
// evaluation as Go benchmarks (one per experiment, quick budgets) and
// asserts the *shape* of each result — who wins, by roughly what factor,
// where the crossovers fall. Absolute numbers differ from the paper's
// (their testbed: 32-core CPU + A5000 GPU + PyTorch; ours: a from-scratch
// Go stack, often on one core), and EXPERIMENTS.md records both sides.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Full-budget variants of the same experiments: go run ./cmd/tables.
package explorefault_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	explorefault "repro"
	"repro/internal/ciphers"
	"repro/internal/ciphers/gift"
	"repro/internal/evaluate"
	"repro/internal/expfault"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/prng"
	"repro/internal/stats"
)

func benchOptions(print bool) harness.Options {
	opt := harness.Options{Seed: 2023, Quick: true}
	if print {
		opt.Out = os.Stdout
	}
	return opt
}

func BenchmarkTableI_HigherOrderTTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.TableI(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		// Shape: order 1 misses both models, order 2 catches both.
		if res.ByteFirst >= 4.5 || res.DiagonalFirst >= 4.5 {
			b.Fatalf("first-order t unexpectedly above threshold: byte %.2f diag %.2f",
				res.ByteFirst, res.DiagonalFirst)
		}
		if res.ByteSecond <= 4.5 || res.DiagonalSecond <= 4.5 {
			b.Fatalf("second-order t missed the leak: byte %.2f diag %.2f",
				res.ByteSecond, res.DiagonalSecond)
		}
	}
}

func BenchmarkTableII_TrainingRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.TableII(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		// Shape: end-of-episode reward trains far faster; the paper
		// reports 115x (T=128 evaluations saved per episode), our
		// floor here is an order of magnitude.
		if res.Improvement < 10 {
			b.Fatalf("end-of-episode speedup only %.1fx, want >= 10x", res.Improvement)
		}
	}
}

func BenchmarkFig3_RewardShaping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure3(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		// Shape: the exponential reward grows the exploitable pattern
		// beyond the linear reward's plateau (paper: 17 vs 3).
		if res.ExpFinalBits < res.LinearFinalBits {
			b.Fatalf("exponential reward (%d bits) did not beat linear (%d bits)",
				res.ExpFinalBits, res.LinearFinalBits)
		}
		if res.ExpFinalBits < 4 {
			b.Fatalf("exponential reward only reached %d bits", res.ExpFinalBits)
		}
	}
}

func BenchmarkTableIII_ModelCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.TableIII(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		// Shape: AES yields bit, byte and diagonal models; GIFT yields
		// bit and nibble models (Table III's ExploreFault row).
		for _, want := range []string{"bit", "byte", "diagonal"} {
			if !res.AES[want] {
				b.Fatalf("AES discovery missing %s model (found %v)", want, res.AES)
			}
		}
		for _, want := range []string{"bit", "nibble"} {
			if !res.GIFT[want] {
				b.Fatalf("GIFT discovery missing %s model (found %v)", want, res.GIFT)
			}
		}
	}
}

func BenchmarkFig4_TrainingProgress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure4(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Buckets) == 0 {
			b.Fatal("no training buckets")
		}
		// Shape: early training discovers single-bit models, and
		// multi-bit (diagonal-contained) models appear as training
		// proceeds.
		var single, multi, diag int
		for _, bu := range res.Buckets {
			single += bu.SingleBit
			multi += bu.MultiBit
			diag += bu.DiagonalContained
		}
		if single == 0 {
			b.Fatal("no single-bit models discovered during training")
		}
		if multi == 0 {
			b.Fatal("no multi-bit models discovered during training")
		}
		if diag == 0 {
			b.Fatal("no diagonal-contained models discovered during training")
		}
	}
}

func BenchmarkFig5_RandomFaultSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Figure5(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		// Shape: every discovered model's t distribution sits entirely
		// above the 4.5 threshold.
		for _, row := range res.Rows {
			if !row.AllAboveThreshold {
				b.Fatalf("model %q dipped below the threshold (min t %.2f)", row.Model, row.MinT)
			}
		}
	}
}

func BenchmarkTableIV_ProtectedAES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.TableIV(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		// Shape: the agent evades the duplication countermeasure by
		// selecting at least one identical bit in both branches.
		if !res.ConvergedLeaky {
			b.Fatal("protected session found no exploitable two-branch pattern")
		}
		if res.MatchingBits < 1 {
			b.Fatalf("no matching bit across branches (b1 %v, b2 %v)", res.Branch1, res.Branch2)
		}
		if res.EpisodeLength != 256 {
			b.Fatalf("episode length %d, want 256", res.EpisodeLength)
		}
	}
}

func BenchmarkTableV_GIFTModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.TableV(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no GIFT models discovered in the first window")
		}
		// Shape: both single-nibble-sized and multi-nibble models show
		// up in the first window, as in Table V.
		multi := false
		for _, row := range res.Rows {
			if row.Nibbles >= 2 {
				multi = true
			}
		}
		if !multi {
			b.Fatal("no multi-nibble models in the first window")
		}
	}
}

func BenchmarkAESKeyRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := explorefault.VerifyKeyRecovery(explorefault.Pattern{}, explorefault.VerifyConfig{
			Cipher: "aes128", Seed: 2023 + uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Correct || res.RecoveredBits != 128 {
			b.Fatalf("AES PQ failed: %d bits, correct=%v", res.RecoveredBits, res.Correct)
		}
	}
}

func BenchmarkGIFTKeyRecovery(b *testing.B) {
	pattern := explorefault.PatternFromGroups(64, 4, 8, 9, 10, 11, 12, 14)
	for i := 0; i < b.N; i++ {
		res, err := explorefault.VerifyKeyRecovery(pattern, explorefault.VerifyConfig{
			Cipher: "gift64", Round: 25, Pairs: 512, Seed: 2023 + uint64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Correct {
			b.Fatalf("GIFT DFA returned wrong bits: %s", res.Notes)
		}
		if res.RecoveredBits < 32 {
			b.Fatalf("GIFT DFA recovered only %d bits (%s)", res.RecoveredBits, res.Notes)
		}
	}
}

func BenchmarkKeyRecoveryTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.KeyRecovery(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		if !res.AES.Correct || !res.GIFTSingle.Correct || !res.GIFTNewModel.Correct {
			b.Fatal("a key-recovery verification failed")
		}
	}
}

func BenchmarkAblationGrouping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.AblationGrouping(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		// Shape: each cipher's native granularity detects its canonical
		// fault model.
		if res.AESByte[8] < 4.5 {
			b.Fatalf("byte grouping missed the AES byte fault (t %.1f)", res.AESByte[8])
		}
		if res.GIFTNibble[4] < 4.5 {
			b.Fatalf("nibble grouping missed the GIFT nibble fault (t %.1f)", res.GIFTNibble[4])
		}
	}
}

func BenchmarkAblationAgent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.AblationAgent(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		if res.PPOBestBits < 1 {
			b.Fatal("PPO never found an exploitable pattern")
		}
	}
}

func BenchmarkAblationObservation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.AblationObservation(benchOptions(i == 0 && b.N == 1))
		if err != nil {
			b.Fatal(err)
		}
		// Shape: the lag-2 window is what separates one diagonal
		// (exploitable) from two diagonals (not); at lag 1 both look
		// exploitable through trivial zero bytes.
		if !res.OneDiagonal[2] {
			b.Fatal("one diagonal not exploitable at lag 2")
		}
		if res.TwoDiagonals[2] {
			b.Fatal("two diagonals exploitable at lag 2; the window is too permissive")
		}
		if !res.TwoDiagonals[1] {
			b.Fatal("two diagonals not exploitable at lag 1; expected the trivial zero-byte leak")
		}
	}
}

// BenchmarkCampaignCollect contrasts the legacy matrix-materializing
// campaign against the streaming sharded engine at the paper's offline
// sample count (2048 plaintexts, GIFT-64 round 25, full default window).
func BenchmarkCampaignCollect(b *testing.B) {
	key := make([]byte, 16)
	prng.New(2023).Fill(key)
	c, err := ciphers.New("gift64", key)
	if err != nil {
		b.Fatal(err)
	}
	pattern := explorefault.PatternFromGroups(64, 4, 5)
	campaign := func() fault.Campaign {
		return fault.Campaign{
			Cipher:  c,
			Pattern: pattern,
			Round:   25,
			Samples: 2048,
		}
	}

	b.Run("matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp := campaign()
			if _, err := cp.Collect(prng.New(uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("stream-w%d", workers), func(b *testing.B) {
			cp := campaign()
			if err := cp.Validate(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_, err := evaluate.RunSharded(context.Background(), cp.Samples, workers, len(cp.Points),
					cp.Groups(), 2, uint64(i),
					func(rng *prng.Source, shard, n int, accs []*stats.Accumulator) error {
						return cp.CollectInto(rng, n, accs)
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// The ISSUE acceptance pairs: the same campaign on the scalar
	// reference path and on each cipher's batch kernel (T-table rounds
	// for AES, bitsliced lanes for GIFT/PRESENT, packed-word lanes for
	// SIMON/SPECK, shared-prefix forking for all). Both sides of a pair
	// produce bit-identical accumulators; the batch bar is >= 2.5x for
	// AES and >= 10x for the bitsliced/lane-packed ciphers.
	for _, cc := range []struct {
		cipher  string
		round   int
		pattern explorefault.Pattern
	}{
		{"aes128", 8, explorefault.PatternFromGroups(128, 8, 2, 7, 8, 13)},
		{"present80", 28, explorefault.PatternFromGroups(64, 4, 5)},
		{"simon32", 29, explorefault.PatternFromGroups(32, 4, 5)},
		{"simon64", 41, explorefault.PatternFromGroups(64, 4, 5)},
		{"speck64", 24, explorefault.PatternFromGroups(64, 4, 5)},
	} {
		info, err := ciphers.Lookup(cc.cipher)
		if err != nil {
			b.Fatal(err)
		}
		ckey := make([]byte, info.KeyBytes)
		prng.New(2023).Fill(ckey)
		cipher, err := ciphers.New(cc.cipher, ckey)
		if err != nil {
			b.Fatal(err)
		}
		for _, sub := range []struct {
			name    string
			noBatch bool
		}{
			{fmt.Sprintf("%s-r%d-scalar", cc.cipher, cc.round), true},
			{fmt.Sprintf("%s-r%d-batch", cc.cipher, cc.round), false},
		} {
			b.Run(sub.name, func(b *testing.B) {
				cp := fault.Campaign{
					Cipher:  cipher,
					Pattern: cc.pattern,
					Round:   cc.round,
					Samples: 2048,
					NoBatch: sub.noBatch,
				}
				if err := cp.Validate(); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < b.N; i++ {
					_, err := evaluate.RunSharded(context.Background(), cp.Samples, 1, len(cp.Points),
						cp.Groups(), 2, uint64(i),
						func(rng *prng.Source, shard, n int, accs []*stats.Accumulator) error {
							return cp.CollectInto(rng, n, accs)
						})
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCampaignFaultModels measures the streaming campaign under each
// typed fault model on the same GIFT-64 round-25 nibble pattern. The xor
// subbenchmark is the regression guard for the generalized injection op:
// it runs the XOR-only hot path of EncryptForksOps and must stay within
// the comparison gate of the pre-zoo engine (BENCH_pr5's stream-w1).
// Stuck-at and random-value models pay for their extra AND lanes and
// per-trace value draws; the benchmark records how much.
func BenchmarkCampaignFaultModels(b *testing.B) {
	key := make([]byte, 16)
	prng.New(2023).Fill(key)
	c, err := ciphers.New("gift64", key)
	if err != nil {
		b.Fatal(err)
	}
	pattern := explorefault.PatternFromGroups(64, 4, 5)
	for _, model := range fault.Models() {
		// Underscored names: benchjson treats a trailing -<digits> as the
		// GOMAXPROCS suffix, which would merge stuck-at-0 and stuck-at-1.
		b.Run(strings.ReplaceAll(model.String(), "-", "_"), func(b *testing.B) {
			cp := fault.Campaign{
				Cipher:  c,
				Pattern: pattern,
				Round:   25,
				Model:   model,
				Samples: 2048,
			}
			if err := cp.Validate(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				_, err := evaluate.RunSharded(context.Background(), cp.Samples, 1, len(cp.Points),
					cp.Groups(), 2, uint64(i),
					func(rng *prng.Source, shard, n int, accs []*stats.Accumulator) error {
						return cp.CollectInto(rng, n, accs)
					})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchForkPoints maps the campaign's default observation window onto the
// batch API for direct kernel benchmarking.
func benchForkPoints(c ciphers.Cipher, round int) []ciphers.BatchPoint {
	var out []ciphers.BatchPoint
	for _, p := range fault.PointsWindow(c, round, fault.DefaultLag, fault.DefaultWindow) {
		switch p.Kind {
		case fault.RoundInput:
			out = append(out, ciphers.BatchPoint{Round: p.Round})
		case fault.PostSub:
			out = append(out, ciphers.BatchPoint{Round: p.Round, PostSub: true})
		default:
			out = append(out, ciphers.BatchPoint{})
		}
	}
	return out
}

// benchEncryptForks measures one shard's worth (256 traces) of paired
// clean/faulty encryption with the default observation window captured,
// through either the scalar reference path or the cipher's batch kernel.
func benchEncryptForks(b *testing.B, name string, round int, batch bool) {
	rng := prng.New(2023)
	info, err := ciphers.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	key := make([]byte, info.KeyBytes)
	rng.Fill(key)
	c, err := ciphers.New(name, key)
	if err != nil {
		b.Fatal(err)
	}
	var kern ciphers.BatchKernel
	if batch {
		be, ok := c.(ciphers.BatchEncrypter)
		if !ok {
			b.Skipf("%s has no batch kernel", name)
		}
		kern = be.NewBatchKernel()
	}
	const traces = 256
	bb := c.BlockBytes()
	points := benchForkPoints(c, round)
	np := len(points)
	pts := make([]byte, traces*bb)
	mask := make([]byte, traces*bb)
	rng.Fill(pts)
	rng.Fill(mask)
	masks := [][]byte{nil, mask}
	states := [][]byte{make([]byte, traces*np*bb), make([]byte, traces*np*bb)}
	cts := [][]byte{nil, nil}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if batch {
			kern.EncryptForksOps(round, points, traces, pts, masks, nil, states, cts)
		} else {
			ciphers.ScalarForksOps(c, round, points, traces, pts, masks, nil, states, cts)
		}
	}
}

var benchEncryptCases = []struct {
	name  string
	round int
}{
	{"aes128", 8},
	{"gift64", 25},
	{"gift128", 36},
	{"present80", 28},
	{"simon32", 29},
	{"simon64", 41},
	{"speck32", 19},
	{"speck64", 24},
}

// BenchmarkEncryptScalar is the reference path: one full Encrypt with a
// Trace per (trace, branch) pair.
func BenchmarkEncryptScalar(b *testing.B) {
	for _, tc := range benchEncryptCases {
		b.Run(tc.name, func(b *testing.B) { benchEncryptForks(b, tc.name, tc.round, false) })
	}
}

// BenchmarkEncryptBatch is the batch kernel on the same workload:
// T-table words for AES, bitsliced lanes for GIFT, shared-prefix forking
// for both.
func BenchmarkEncryptBatch(b *testing.B) {
	for _, tc := range benchEncryptCases {
		b.Run(tc.name, func(b *testing.B) { benchEncryptForks(b, tc.name, tc.round, true) })
	}
}

// BenchmarkOracleEvaluate measures the assessment path end-to-end the way
// the RL loop drives it: serial vs parallel campaigns, and cold vs warm
// oracle cache. The ISSUE acceptance bar is >= 2x for parallel-cold over
// serial-cold on 4 cores; warm-cache is orders of magnitude beyond both.
func BenchmarkOracleEvaluate(b *testing.B) {
	pattern := explorefault.PatternFromGroups(64, 4, 5)

	makeOracle := func(workers int) explore.Oracle {
		rng := prng.New(2023)
		key := make([]byte, 16)
		rng.Fill(key)
		c, err := ciphers.New("gift64", key)
		if err != nil {
			b.Fatal(err)
		}
		e, err := evaluate.New(c, evaluate.Config{
			Samples: 2048,
			Workers: workers,
			Seed:    rng.Split().Uint64(),
		})
		if err != nil {
			b.Fatal(err)
		}
		return &explore.AssessorOracle{Engine: e, Round: 25}
	}

	b.Run("serial-cold", func(b *testing.B) {
		oracle := makeOracle(1)
		for i := 0; i < b.N; i++ {
			if _, err := oracle.Evaluate(context.Background(), &pattern, fault.XorFlip); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-cold", func(b *testing.B) {
		oracle := makeOracle(0)
		for i := 0; i < b.N; i++ {
			if _, err := oracle.Evaluate(context.Background(), &pattern, fault.XorFlip); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-warm", func(b *testing.B) {
		oracle := explore.NewCachedOracle(makeOracle(0), 0)
		if _, err := oracle.Evaluate(context.Background(), &pattern, fault.XorFlip); err != nil {
			b.Fatal(err) // populate the cache
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := oracle.Evaluate(context.Background(), &pattern, fault.XorFlip); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDFARecovery measures the end-to-end GIFT DFA key-recovery
// attacks with batched collection and guess evaluation (templates and
// online pairs through the bitsliced fork kernel, guesses through the
// precomputed log-likelihood tables) against the per-pair scalar
// reference the attacks shipped with. Both paths are bit-identical
// (TestGIFTDFABatchMatchesScalar); the pair quantifies the speedup the
// ISSUE asks to report.
func BenchmarkDFARecovery(b *testing.B) {
	rng := prng.New(2023)
	key := make([]byte, 16)
	rng.Fill(key)
	c64, err := gift.New64(key)
	if err != nil {
		b.Fatal(err)
	}
	c128, err := gift.New128(key)
	if err != nil {
		b.Fatal(err)
	}
	pat64 := explorefault.PatternFromGroups(64, 4, 8, 9, 10, 11, 12, 14)
	pat128 := explorefault.PatternFromGroups(128, 4, 5)
	for _, sub := range []struct {
		name    string
		noBatch bool
	}{{"batch", false}, {"scalar", true}} {
		cfg := expfault.GIFTDFAConfig{Pairs: 64, TemplateSamples: 1024, NoBatch: sub.noBatch}
		b.Run("gift64-"+sub.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := expfault.GIFTDFA(c64, &pat64, cfg, rng.Split()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("gift128-"+sub.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := expfault.GIFT128DFA(c128, &pat128, cfg, rng.Split()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweep measures the exhaustive campaign engine: one full
// round's worth of single-position cells per cipher, reporting cells/sec
// so the atlas throughput is tracked across PRs alongside the campaign
// and kernel benchmarks it is built from.
func BenchmarkSweep(b *testing.B) {
	for _, cc := range []struct {
		cipher string
		round  int
	}{
		{"aes128", 8},
		{"gift64", 25},
		{"speck64", 24},
	} {
		b.Run(cc.cipher, func(b *testing.B) {
			cfg := explorefault.SweepConfig{
				Cipher:  cc.cipher,
				Rounds:  []int{cc.round},
				Samples: 256,
				Seed:    7,
			}
			var cells int
			for i := 0; i < b.N; i++ {
				atlas, err := explorefault.Sweep(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				cells = atlas.Summary.Cells
			}
			b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
		})
	}
}
