package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	explorefault "repro"
	"repro/internal/ciphers"
	"repro/internal/evaluate"
	"repro/internal/fault"
	"repro/internal/prng"
	"repro/internal/rl"
	"repro/internal/rl/ppo"
	"repro/internal/stats"
)

// Replays time one layer at a time by calling its public functions on the
// workload's shape, outside the program's own loops. They run only in the
// traced run. Each replays replayReps times and reports the median.
const (
	replayReps   = 5
	replayTraces = 512 // the workloads' samples per assessment
	replayBlock  = 64  // the campaign's trace block
	// replayTolerance is the relative gap between a replay and its
	// in-situ counterpart beyond which the run flags a disagreement.
	replayTolerance = 0.2
)

// campaignReplay is the per-layer cost of collecting one trace and
// testing one cell.
type campaignReplay struct {
	drawNs, kernelNs, accumulateNs float64 // per trace
	ttestUs                        float64 // per cell
}

// replayCampaign re-runs a campaign's inner loop layer by layer — PRNG
// Fill plus Injector.Draw, the batch fork kernel, XOR diff plus grouping
// plus Accumulator.Add, and the MaxT t-test against the shared reference —
// at every given injection round with the cipher's default observation
// window, averaging over rounds. Like the workloads' campaigns it runs
// one replay per core at once, so each sees the same contention.
func replayCampaign(name string, pattern explorefault.Pattern, rounds []int, seed uint64) (campaignReplay, error) {
	info, err := ciphers.Lookup(name)
	if err != nil {
		return campaignReplay{}, err
	}
	key := make([]byte, info.KeyBytes)
	prng.New(seed).Fill(key)
	c, err := info.New(key)
	if err != nil {
		return campaignReplay{}, err
	}
	be, ok := c.(ciphers.BatchEncrypter)
	if !ok {
		return campaignReplay{}, fmt.Errorf("%s has no batch kernel", name)
	}
	par := runtime.GOMAXPROCS(0)
	var draw, kernel, accumulate, ttest []float64
	for rep := 0; rep < replayReps; rep++ {
		phases := make([][4]time.Duration, par)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := prng.New(seed ^ uint64(0x7e9a+rep*par+w))
				phases[w] = replayWorker(c, be.NewBatchKernel(), pattern, rounds, rng)
			}(w)
		}
		wg.Wait()
		var sum [4]time.Duration
		for _, p := range phases {
			for i := range sum {
				sum[i] += p[i]
			}
		}
		traces := float64(par * replayTraces * len(rounds))
		draw = append(draw, float64(sum[0].Nanoseconds())/traces)
		kernel = append(kernel, float64(sum[1].Nanoseconds())/traces)
		accumulate = append(accumulate, float64(sum[2].Nanoseconds())/traces)
		ttest = append(ttest, float64(sum[3].Nanoseconds())/1e3/float64(par*len(rounds)))
	}
	return campaignReplay{median(draw), median(kernel), median(accumulate), median(ttest)}, nil
}

// replayWorker replays replayTraces traces and one t-test cell at every
// round and returns the time spent in draw, kernel, accumulate and t-test.
func replayWorker(c ciphers.Cipher, kern ciphers.BatchKernel, pattern explorefault.Pattern, rounds []int, rng *prng.Source) [4]time.Duration {
	bb := c.BlockBytes()
	groupBits := c.GroupBits()
	groups := 8 * bb / groupBits
	inj := fault.NewInjector(pattern, fault.XorFlip, fault.RandomMask)
	ref := evaluate.Reference(replayTraces, groupBits, groups, 2, evaluate.CanonicalRefSeed)
	pts := make([]byte, replayBlock*bb)
	xor := make([]byte, replayBlock*bb)
	diff := make([]byte, bb)
	row := make([]float64, groups)
	var d [4]time.Duration
	for _, round := range rounds {
		points := fault.PointsWindow(c, round, fault.DefaultLag, fault.DefaultWindow)
		np := len(points)
		bpts := make([]ciphers.BatchPoint, np)
		for i, p := range points {
			bpts[i] = batchPoint(p)
		}
		clean := make([]byte, replayBlock*np*bb)
		faulty := make([]byte, replayBlock*np*bb)
		accs := make([]*stats.Accumulator, np)
		for i := range accs {
			accs[i] = stats.NewAccumulator(groups, 2)
		}
		for base := 0; base < replayTraces; base += replayBlock {
			t0 := time.Now()
			for i := 0; i < replayBlock; i++ {
				rng.Fill(pts[i*bb : (i+1)*bb])
				inj.Draw(xor[i*bb:(i+1)*bb], nil, rng)
			}
			t1 := time.Now()
			ciphers.EncryptForksOps(c, kern, round, bpts, replayBlock, pts,
				[][]byte{nil, xor}, [][]byte{nil, nil}, [][]byte{clean, faulty}, [][]byte{nil, nil})
			t2 := time.Now()
			for i := 0; i < replayBlock; i++ {
				for pi := 0; pi < np; pi++ {
					off := (i*np + pi) * bb
					for j := 0; j < bb; j++ {
						diff[j] = clean[off+j] ^ faulty[off+j]
					}
					groupValues(row, diff, groupBits)
					accs[pi].Add(row)
				}
			}
			t3 := time.Now()
			d[0] += t1.Sub(t0)
			d[1] += t2.Sub(t1)
			d[2] += t3.Sub(t2)
		}
		t0 := time.Now()
		var best float64
		for _, acc := range accs {
			best = max(best, acc.MaxT(2, ref).T)
		}
		d[3] += time.Since(t0)
		sink.Add(uint64(best))
	}
	return d
}

// sink keeps replayed results live so the compiler cannot drop the calls.
var sink atomic.Uint64

func batchPoint(p fault.Point) ciphers.BatchPoint {
	switch p.Kind {
	case fault.RoundInput:
		return ciphers.BatchPoint{Round: p.Round}
	case fault.PostSub:
		return ciphers.BatchPoint{Round: p.Round, PostSub: true}
	default:
		return ciphers.BatchPoint{}
	}
}

// groupValues splits a state difference into the t-test's group values,
// as the campaign does before Accumulator.Add.
func groupValues(out []float64, state []byte, groupBits int) {
	per := 8 / groupBits
	mask := byte(0xff >> (8 - groupBits))
	for i := range out {
		out[i] = float64(state[i/per] >> (uint(groupBits) * uint(i%per)) & mask)
	}
}

// record stores a campaign replay in the layer metrics and checks it
// against the in-situ collect cost.
func (cr campaignReplay) record(lm map[string]float64, res *result) {
	lm["fault.draw_ns_per_trace"] = cr.drawNs
	lm["ciphers.kernel_ns_per_trace"] = cr.kernelNs
	lm["stats.accumulate_ns_per_trace"] = cr.accumulateNs
	lm["stats.ttest_us_per_cell"] = cr.ttestUs
	replayed := cr.drawNs + cr.kernelNs + cr.accumulateNs
	agree(res, "campaign replay (draw+kernel+accumulate ns/trace)", replayed, lm["fault.collect_ns_per_trace"])
	if replayed > 0 {
		res.notes = append(res.notes, fmt.Sprintf(
			"campaign layer shares of replayed collect: draw %.1f%%, kernel %.1f%%, accumulate %.1f%%",
			100*cr.drawNs/replayed, 100*cr.kernelNs/replayed, 100*cr.accumulateNs/replayed))
	}
}

// agree prints a replayed figure beside its in-situ counterpart and flags
// a gap beyond replayTolerance.
func agree(res *result, what string, replayed, inSitu float64) {
	verdict := "agree"
	if inSitu <= 0 || math.Abs(replayed/inSitu-1) > replayTolerance {
		verdict = "DISAGREE"
	}
	res.notes = append(res.notes, fmt.Sprintf("%s: replay %.4g vs in-situ %.4g (ratio %.3f) %s",
		what, replayed, inSitu, replayed/inSitu, verdict))
}

// replayPPO times ppo.Agent.Act and Update on discovery's shape: obs and
// action width stateBits, the default [64,64] MLP, Discover's 4 epochs,
// learning rate and entropy coefficient, and a batch of envs episodes of
// stateBits steps. It returns the median Act time in microseconds and
// the median Update time in seconds.
func replayPPO(stateBits, envs int, seed uint64) (actUs, updateS float64) {
	rng := prng.New(seed ^ 0x990)
	agent := ppo.New(stateBits, stateBits, ppo.Config{
		LearningRate:     1e-3,
		Epochs:           4,
		EntropyCoef:      1e-3,
		ExplorationFloor: 1 / float64(stateBits),
		BootstrapSpike:   8,
	}, rng.Split())
	var acts, updates []float64
	for rep := 0; rep < 3; rep++ {
		var b rl.Batch
		start := time.Now()
		for e := 0; e < envs; e++ {
			obs := make([]float64, stateBits)
			for step := 0; step < stateBits; step++ {
				a, logp, v := agent.Act(obs)
				b.Obs = append(b.Obs, append([]float64(nil), obs...))
				b.Actions = append(b.Actions, a)
				b.LogProbs = append(b.LogProbs, logp)
				b.Values = append(b.Values, v)
				done := step == stateBits-1
				reward := 0.0
				if done {
					reward = rng.Float64()
				}
				b.Rewards = append(b.Rewards, reward)
				b.Dones = append(b.Dones, done)
				obs[a] = 1
			}
		}
		acts = append(acts, time.Since(start).Seconds()*1e6/float64(envs*stateBits))
		b.ComputeGAE(1, 0.95)
		start = time.Now()
		agent.Update(&b)
		updates = append(updates, time.Since(start).Seconds())
	}
	return median(acts), median(updates)
}
