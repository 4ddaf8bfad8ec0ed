// Package ppo implements Proximal Policy Optimization (Schulman et al.,
// 2017) for discrete action spaces: clipped surrogate objective,
// generalized advantage estimation (provided by package rl), entropy
// bonus, value-function loss, minibatch epochs, advantage normalization
// and global gradient clipping. This is the algorithm the paper runs via
// Stable-Baselines3; defaults below mirror SB3's MlpPolicy defaults.
package ppo

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/rl"
)

// Config holds PPO hyperparameters. Zero values select defaults.
type Config struct {
	// Hidden sizes of both the policy and value networks (default
	// [64, 64], SB3's MlpPolicy).
	Hidden []int
	// LearningRate for Adam (default 3e-4).
	LearningRate float64
	// ClipRange epsilon of the surrogate objective (default 0.2).
	ClipRange float64
	// Epochs over each rollout batch (default 10).
	Epochs int
	// MinibatchSize (default 64).
	MinibatchSize int
	// EntropyCoef weights the entropy bonus (default 0.01; exploration
	// matters in the fault-pattern MDP because rewards are sparse).
	EntropyCoef float64
	// ValueCoef weights the value loss (default 0.5).
	ValueCoef float64
	// MaxGradNorm clips the global gradient norm (default 0.5).
	MaxGradNorm float64
	// Activation for hidden layers (default tanh, as in SB3).
	Activation nn.Activation
	// ExplorationFloor mixes an ε-uniform distribution into the policy:
	// π = (1-ε)·softmax(logits) + ε/K. Sampling, log-probabilities,
	// ratios and gradients all use the mixture exactly, so PPO remains
	// on-policy. A floor of ~1/T keeps roughly one exploratory "stray"
	// action per T-step episode alive even after the policy has
	// sharpened, which is what lets the fault pattern keep growing
	// (each accepted stray multiplies the terminal reward by e).
	// Zero disables the floor.
	ExplorationFloor float64
	// BootstrapSpike, when non-zero, adds a logit spike of this size to
	// one uniformly-chosen action via the policy head's bias, making the
	// initial policy peaked instead of uniform. In the fault-pattern MDP
	// a peaked policy repeats its preferred bit (repeats are no-ops), so
	// early episodes are single-bit patterns — the paper's Fig. 4 shows
	// exactly this regime (~600 single-bit models in the first 1K
	// episodes), which a uniform initial policy cannot produce: uniform
	// 128-step episodes touch ~80 scattered bits and never leak, leaving
	// PPO without any reward gradient to start from.
	BootstrapSpike float64
}

func (c *Config) setDefaults() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.LearningRate == 0 {
		c.LearningRate = 3e-4
	}
	if c.ClipRange == 0 {
		c.ClipRange = 0.2
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.MinibatchSize == 0 {
		c.MinibatchSize = 64
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.01
	}
	if c.ValueCoef == 0 {
		c.ValueCoef = 0.5
	}
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 0.5
	}
}

// Agent is a PPO agent with separate policy and value networks.
type Agent struct {
	cfg    Config
	policy *nn.MLP // obs -> action logits
	value  *nn.MLP // obs -> scalar value
	pOpt   *nn.Adam
	vOpt   *nn.Adam
	rng    *prng.Source
	raw    []float64 // scratch: softmax of logits
	probs  []float64 // scratch: mixture distribution actually played
}

var _ rl.Agent = (*Agent)(nil)

// New creates a PPO agent for the given observation width and number of
// discrete actions.
func New(obsSize, numActions int, cfg Config, rng *prng.Source) *Agent {
	cfg.setDefaults()
	pSizes := append(append([]int{obsSize}, cfg.Hidden...), numActions)
	vSizes := append(append([]int{obsSize}, cfg.Hidden...), 1)
	a := &Agent{
		cfg:    cfg,
		policy: nn.NewMLP(pSizes, cfg.Activation, rng.Split()),
		value:  nn.NewMLP(vSizes, cfg.Activation, rng.Split()),
		rng:    rng,
		raw:    make([]float64, numActions),
		probs:  make([]float64, numActions),
	}
	// Small policy head => near-uniform initial policy (standard PPO
	// initialization), optionally sharpened by a bootstrap spike on one
	// random action (see Config.BootstrapSpike).
	a.policy.OutputLayer().ScaleWeights(0.01)
	if cfg.BootstrapSpike > 0 {
		out := a.policy.OutputLayer()
		out.B.Val[rng.Intn(numActions)] += cfg.BootstrapSpike
	}
	a.pOpt = nn.NewAdam(a.policy.Params(), cfg.LearningRate)
	a.vOpt = nn.NewAdam(a.value.Params(), cfg.LearningRate)
	return a
}

// State is a serializable snapshot of everything mutable in an Agent:
// network weights, optimizer moments, and the action-sampling PRNG
// position. Config and architecture are not captured — a checkpoint is
// restored into an Agent freshly constructed with the same Config, and
// Restore validates the shapes match.
type State struct {
	Policy, Value [][]float64
	POpt, VOpt    nn.AdamState
	RNG           prng.State
}

// State deep-copies the agent's mutable training state.
func (a *Agent) State() State {
	return State{
		Policy: nn.ParamValues(a.policy.Params()),
		Value:  nn.ParamValues(a.value.Params()),
		POpt:   a.pOpt.State(),
		VOpt:   a.vOpt.State(),
		RNG:    a.rng.State(),
	}
}

// Restore copies a snapshot back into the agent. The agent must have been
// built with the same observation width, action count and hidden sizes as
// the one that produced the snapshot; mismatched shapes are rejected.
func (a *Agent) Restore(st State) error {
	if err := nn.SetParamValues(a.policy.Params(), st.Policy); err != nil {
		return fmt.Errorf("ppo: policy net: %w", err)
	}
	if err := nn.SetParamValues(a.value.Params(), st.Value); err != nil {
		return fmt.Errorf("ppo: value net: %w", err)
	}
	if err := a.pOpt.Restore(st.POpt); err != nil {
		return fmt.Errorf("ppo: policy optimizer: %w", err)
	}
	if err := a.vOpt.Restore(st.VOpt); err != nil {
		return fmt.Errorf("ppo: value optimizer: %w", err)
	}
	if err := a.rng.Restore(st.RNG); err != nil {
		return fmt.Errorf("ppo: %w", err)
	}
	return nil
}

// Respike moves the bootstrap spike to a fresh uniformly-chosen action:
// its policy-head bias is raised above the current maximum by the given
// spike. Discovery sessions call this when no exploitable pattern has
// been seen for a while, i.e. the current peak sits on a dead bit and the
// constant-β reward landscape offers no gradient to escape it.
func (a *Agent) Respike(spike float64) {
	out := a.policy.OutputLayer()
	maxB := out.B.Val[0]
	for _, b := range out.B.Val {
		if b > maxB {
			maxB = b
		}
	}
	out.B.Val[a.rng.Intn(out.Out)] = maxB + spike
}

// dist fills a.raw with softmax(logits) and a.probs with the played
// mixture distribution for obs.
func (a *Agent) dist(obs []float64) {
	logits := a.policy.Forward(obs)
	nn.Softmax(logits, a.raw)
	eps := a.cfg.ExplorationFloor
	k := float64(len(a.raw))
	for j, p := range a.raw {
		a.probs[j] = (1-eps)*p + eps/k
	}
}

// Act implements rl.Agent: samples from the categorical policy (with the
// exploration floor mixed in).
func (a *Agent) Act(obs []float64) (int, float64, float64) {
	a.dist(obs)
	action := nn.SampleCategorical(a.probs, a.rng)
	logp := nn.LogProb(a.probs, action)
	v := a.value.Forward(obs)[0]
	return action, logp, v
}

// ActGreedy returns the mode of the policy (used after training to read
// out the converged fault pattern).
func (a *Agent) ActGreedy(obs []float64) int {
	logits := a.policy.Forward(obs)
	return nn.Argmax(logits)
}

// Probs returns the current action distribution for obs (copy), including
// the exploration floor.
func (a *Agent) Probs(obs []float64) []float64 {
	a.dist(obs)
	return append([]float64(nil), a.probs...)
}

// Update implements rl.Agent: runs Epochs of minibatch SGD with the
// clipped surrogate objective on the batch.
func (a *Agent) Update(b *rl.Batch) rl.UpdateStats {
	b.NormalizeAdvantages()
	n := b.Len()
	var stats rl.UpdateStats
	var updates int

	pParams := a.policy.Params()
	vParams := a.value.Params()
	gradOut := make([]float64, a.policy.OutSize())
	logProbs := make([]float64, a.policy.OutSize()) // log max(π_j, 1e-12)
	vGrad := make([]float64, 1)

	for epoch := 0; epoch < a.cfg.Epochs; epoch++ {
		order := rl.Shuffle(n, a.rng)
		for start := 0; start < n; start += a.cfg.MinibatchSize {
			end := start + a.cfg.MinibatchSize
			if end > n {
				end = n
			}
			mb := order[start:end]
			mbN := float64(len(mb))

			nn.ZeroGrad(pParams)
			nn.ZeroGrad(vParams)
			var policyLoss, valueLoss, entropy, clipped float64

			for _, i := range mb {
				obs := b.Obs[i]
				act := b.Actions[i]
				adv := b.Advantages[i]
				oldLogp := b.LogProbs[i]

				a.dist(obs)
				// One log per action serves the ratio, the entropy and
				// its gradient; each equals what nn.LogProb and
				// nn.Entropy compute.
				var ent, dot float64
				for j, p := range a.probs {
					lp := math.Log(math.Max(p, 1e-12))
					logProbs[j] = lp
					if p > 1e-12 {
						ent -= p * lp
					}
					dot += a.raw[j] * (lp + 1)
				}
				logp := logProbs[act]
				ratio := math.Exp(logp - oldLogp)

				// Clipped surrogate: L = -min(r*A, clip(r)*A).
				unclipped := ratio * adv
				clipRatio := clamp(ratio, 1-a.cfg.ClipRange, 1+a.cfg.ClipRange)
				clippedObj := clipRatio * adv
				var useUnclipped bool
				if unclipped <= clippedObj {
					useUnclipped = true
				}
				if !useUnclipped {
					clipped++
				}
				policyLoss += -math.Min(unclipped, clippedObj)
				entropy += ent

				// Gradient wrt logits through the mixture
				// π_j = (1-ε)p_j + ε/K with p = softmax(logits):
				// dπ_j/dlogit_l = (1-ε)·p_j·(δ_jl - p_l), so
				// dlogπ_a/dlogit_l = (1-ε)·p_a·(δ_al - p_l)/π_a.
				// The clipped branch has zero policy gradient. The
				// entropy bonus adds -entCoef·dH/dlogit_l with
				// dH/dlogit_l = -(1-ε)·p_l·[(logπ_l+1) - Σ_j p_j(logπ_j+1)].
				oneMinusEps := 1 - a.cfg.ExplorationFloor
				for j := range gradOut {
					gradOut[j] = 0
				}
				if useUnclipped {
					coef := -adv * ratio / mbN * oneMinusEps * a.raw[act] /
						math.Max(a.probs[act], 1e-12)
					for j := range gradOut {
						ind := 0.0
						if j == act {
							ind = 1.0
						}
						gradOut[j] += coef * (ind - a.raw[j])
					}
				}
				for j, lp := range logProbs {
					dH := -oneMinusEps * a.raw[j] * ((lp + 1) - dot)
					gradOut[j] -= a.cfg.EntropyCoef * dH / mbN
				}
				a.policy.BackwardLast(gradOut)

				// Value loss: 0.5 * (V - R)^2.
				v := a.value.Forward(obs)[0]
				dv := v - b.Returns[i]
				valueLoss += 0.5 * dv * dv
				vGrad[0] = a.cfg.ValueCoef * dv / mbN
				a.value.BackwardLast(vGrad)
			}

			gn := nn.ClipGradNorm(pParams, a.cfg.MaxGradNorm)
			nn.ClipGradNorm(vParams, a.cfg.MaxGradNorm)
			a.pOpt.Step()
			a.vOpt.Step()

			stats.PolicyLoss += policyLoss / mbN
			stats.ValueLoss += valueLoss / mbN
			stats.Entropy += entropy / mbN
			stats.ClipFrac += clipped / mbN
			stats.GradNorm += gn
			updates++
		}
	}
	if updates > 0 {
		f := 1 / float64(updates)
		stats.PolicyLoss *= f
		stats.ValueLoss *= f
		stats.Entropy *= f
		stats.ClipFrac *= f
		stats.GradNorm *= f
	}
	return stats
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
