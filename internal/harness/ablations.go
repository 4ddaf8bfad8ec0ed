package harness

import (
	"context"
	"fmt"

	explorefault "repro"
	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/evaluate"
	"repro/internal/explore"
	"repro/internal/prng"
	"repro/internal/report"
	"repro/internal/rl"
	"repro/internal/rl/ppo"
	"repro/internal/rl/reinforce"
)

// AblationGroupingResult contrasts differential grouping granularities
// (DESIGN.md decision 4).
type AblationGroupingResult struct {
	// T[granularity] for the AES byte fault at round 8, max order 2.
	AESByte map[int]float64
	// T[granularity] for the GIFT nibble fault at round 25.
	GIFTNibble map[int]float64
}

// AblationGrouping measures how the grouping granularity (bit / nibble /
// byte) changes the observed leakage statistic. AES's cross-byte linear
// pattern needs byte grouping plus order 2; GIFT's nibble bias is visible
// at nibble granularity already.
func AblationGrouping(opt Options) (*AblationGroupingResult, error) {
	samples := opt.pick(1024, 4096)
	res := &AblationGroupingResult{
		AESByte:    map[int]float64{},
		GIFTNibble: map[int]float64{},
	}
	rng := prng.New(opt.Seed)

	aesKey := make([]byte, 16)
	rng.Fill(aesKey)
	aesCipher, err := ciphers.New("aes128", aesKey)
	if err != nil {
		return nil, err
	}
	aesPattern := explorefault.PatternFromGroups(128, 8, 0)
	for _, gb := range []int{1, 4, 8} {
		a, err := evaluate.New(aesCipher, evaluate.Config{Samples: samples, GroupBits: gb, Seed: rng.Split().Uint64()})
		if err != nil {
			return nil, err
		}
		r, err := a.Assess(context.Background(), &aesPattern, 8)
		if err != nil {
			return nil, err
		}
		res.AESByte[gb] = r.T
	}

	giftKey := make([]byte, 16)
	rng.Fill(giftKey)
	giftCipher, err := ciphers.New("gift64", giftKey)
	if err != nil {
		return nil, err
	}
	giftPattern := explorefault.PatternFromGroups(64, 4, 5)
	for _, gb := range []int{1, 4} {
		a, err := evaluate.New(giftCipher, evaluate.Config{Samples: samples, GroupBits: gb, Seed: rng.Split().Uint64()})
		if err != nil {
			return nil, err
		}
		r, err := a.Assess(context.Background(), &giftPattern, 25)
		if err != nil {
			return nil, err
		}
		res.GIFTNibble[gb] = r.T
	}

	tb := report.NewTable("Ablation: differential grouping granularity (max t, order <= 2)",
		"Scenario", "bit groups", "nibble groups", "byte groups")
	tb.AddRow("AES byte fault @ r8",
		fmt.Sprintf("%.1f", res.AESByte[1]),
		fmt.Sprintf("%.1f", res.AESByte[4]),
		fmt.Sprintf("%.1f", res.AESByte[8]))
	tb.AddRow("GIFT nibble fault @ r25",
		fmt.Sprintf("%.1f", res.GIFTNibble[1]),
		fmt.Sprintf("%.1f", res.GIFTNibble[4]),
		"n/a")
	tb.Render(opt.out())
	return res, nil
}

// AblationAgentResult compares PPO against REINFORCE on the same
// fault-pattern MDP (DESIGN.md decision 5).
type AblationAgentResult struct {
	PPOLeakyRate, ReinforceLeakyRate float64
	PPOBestBits, ReinforceBestBits   int
}

// AblationAgent trains both agents on identical GIFT-64 environments for
// the same episode budget and compares the late-training exploitable
// fraction and the best exploitable pattern size.
func AblationAgent(opt Options) (*AblationAgentResult, error) {
	episodes := opt.pick(200, 600)
	samples := opt.pick(128, 256)
	res := &AblationAgentResult{}

	run := func(usePPO bool) (float64, int, error) {
		root := prng.New(opt.Seed)
		const numEnvs = 4
		var envs []rl.Env
		var raw []*explore.Env
		for i := 0; i < numEnvs; i++ {
			key := make([]byte, 16)
			root.Fill(key)
			c, err := ciphers.New("gift64", key)
			if err != nil {
				return 0, 0, err
			}
			e, err := evaluate.New(c, evaluate.Config{
				Samples: samples, StopAtThreshold: true, Seed: root.Split().Uint64(),
			})
			if err != nil {
				return 0, 0, err
			}
			env := explore.NewEnv(&explore.AssessorOracle{Engine: e, Round: 25},
				explore.EnvConfig{})
			envs = append(envs, env)
			raw = append(raw, env)
		}
		var agent rl.Agent
		if usePPO {
			agent = ppo.New(64, 64, ppo.Config{
				LearningRate: 1e-3, Epochs: 4, EntropyCoef: 1e-3,
				BootstrapSpike: 8, ExplorationFloor: 1.0 / 64,
			}, root.Split())
		} else {
			agent = reinforce.New(64, 64, reinforce.Config{
				LearningRate: 1e-3, EntropyCoef: 1e-3,
			}, root.Split())
		}
		runner := rl.NewRunner(envs, agent)
		runner.Gamma = 1.0
		var leakyLate, totalLate float64
		bestBits := 0
		done := 0
		for done < episodes {
			batch, eps, err := runner.CollectEpisodes(1)
			if err != nil {
				return 0, 0, err
			}
			for _, ep := range eps {
				info := raw[ep.EnvIndex].LastEpisode()
				if info.Leaky && info.Distinct > bestBits {
					bestBits = info.Distinct
				}
				if done+len(eps) > episodes/2 { // late half
					totalLate++
					if info.Leaky {
						leakyLate++
					}
				}
			}
			done += len(eps)
			agent.Update(batch)
		}
		if totalLate == 0 {
			return 0, bestBits, nil
		}
		return leakyLate / totalLate, bestBits, nil
	}

	var err error
	if res.PPOLeakyRate, res.PPOBestBits, err = run(true); err != nil {
		return nil, err
	}
	if res.ReinforceLeakyRate, res.ReinforceBestBits, err = run(false); err != nil {
		return nil, err
	}

	tb := report.NewTable("Ablation: PPO vs REINFORCE on GIFT-64 (same envs, same budget)",
		"Agent", "late exploitable fraction", "best exploitable bits")
	tb.AddRow("PPO", fmt.Sprintf("%.2f", res.PPOLeakyRate), res.PPOBestBits)
	tb.AddRow("REINFORCE", fmt.Sprintf("%.2f", res.ReinforceLeakyRate), res.ReinforceBestBits)
	tb.Render(opt.out())
	return res, nil
}

// AblationObservationResult contrasts observation windows (DESIGN.md
// decision 6).
type AblationObservationResult struct {
	// Leaky[lag] for the one-diagonal and two-diagonal AES patterns.
	OneDiagonal, TwoDiagonals map[int]bool
}

// AblationObservation shows why the observation window matters: at lag 1
// (observing the round right after injection) even a two-diagonal fault
// is trivially detectable through its zero bytes, so everything looks
// exploitable; at the paper's lag 2 only genuinely structured faults
// survive, which is what bounds the RL agent at one diagonal.
func AblationObservation(opt Options) (*AblationObservationResult, error) {
	samples := opt.pick(1024, 2048)
	rng := prng.New(opt.Seed)
	key := make([]byte, 16)
	rng.Fill(key)
	c, err := ciphers.New("aes128", key)
	if err != nil {
		return nil, err
	}
	one := explorefault.PatternFromGroups(128, 8, 2, 7, 8, 13)
	two := explorefault.PatternFromGroups(128, 8, 2, 7, 8, 13, 0, 5, 10, 15)

	res := &AblationObservationResult{
		OneDiagonal:  map[int]bool{},
		TwoDiagonals: map[int]bool{},
	}
	assess := func(p *bitvec.Vector, lag int) (bool, error) {
		a, err := evaluate.New(c, evaluate.Config{Samples: samples, Lag: lag, Seed: rng.Split().Uint64()})
		if err != nil {
			return false, err
		}
		r, err := a.Assess(context.Background(), p, 8)
		if err != nil {
			return false, err
		}
		return r.Leaky, nil
	}
	for _, lag := range []int{1, 2} {
		if res.OneDiagonal[lag], err = assess(&one, lag); err != nil {
			return nil, err
		}
		if res.TwoDiagonals[lag], err = assess(&two, lag); err != nil {
			return nil, err
		}
	}
	tb := report.NewTable("Ablation: observation window (AES faults at round 8)",
		"Pattern", "lag 1 exploitable", "lag 2 exploitable (paper)")
	tb.AddRow("one diagonal (32 bits)",
		checkmark(res.OneDiagonal[1]), checkmark(res.OneDiagonal[2]))
	tb.AddRow("two diagonals (64 bits)",
		checkmark(res.TwoDiagonals[1]), checkmark(res.TwoDiagonals[2]))
	tb.Render(opt.out())
	return res, nil
}
