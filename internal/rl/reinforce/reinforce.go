// Package reinforce implements the plain REINFORCE policy-gradient
// algorithm with a learned value baseline. It exists as an ablation
// partner for PPO (DESIGN.md decision 5): same environments, same network
// shape, no clipping and no minibatch epochs, so the comparison isolates
// PPO's trust-region machinery.
package reinforce

import (
	"math"

	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/rl"
)

// Config holds REINFORCE hyperparameters. Zero values select defaults
// matching the PPO configuration where the algorithms overlap.
type Config struct {
	Hidden       []int
	LearningRate float64
	EntropyCoef  float64
	MaxGradNorm  float64
	Activation   nn.Activation
}

func (c *Config) setDefaults() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.LearningRate == 0 {
		c.LearningRate = 3e-4
	}
	if c.EntropyCoef == 0 {
		c.EntropyCoef = 0.01
	}
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 0.5
	}
}

// Agent is a REINFORCE agent with a value baseline.
type Agent struct {
	cfg    Config
	policy *nn.MLP
	value  *nn.MLP
	pOpt   *nn.Adam
	vOpt   *nn.Adam
	rng    *prng.Source
	probs  []float64
	ws     nn.Workspace
}

var _ rl.Agent = (*Agent)(nil)

// New creates a REINFORCE agent.
func New(obsSize, numActions int, cfg Config, rng *prng.Source) *Agent {
	cfg.setDefaults()
	pSizes := append(append([]int{obsSize}, cfg.Hidden...), numActions)
	vSizes := append(append([]int{obsSize}, cfg.Hidden...), 1)
	a := &Agent{
		cfg:    cfg,
		policy: nn.NewMLP(pSizes, cfg.Activation, rng.Split()),
		value:  nn.NewMLP(vSizes, cfg.Activation, rng.Split()),
		rng:    rng,
		probs:  make([]float64, numActions),
	}
	a.policy.OutputLayer().ScaleWeights(0.01)
	a.pOpt = nn.NewAdam(a.policy.Params(), cfg.LearningRate)
	a.vOpt = nn.NewAdam(a.value.Params(), cfg.LearningRate)
	return a
}

// Act implements rl.Agent.
func (a *Agent) Act(obs []float64) (int, float64, float64) {
	logits := a.policy.Forward(obs)
	nn.Softmax(logits, a.probs)
	action := nn.SampleCategorical(a.probs, a.rng)
	return action, nn.LogProb(a.probs, action), a.value.Forward(obs)[0]
}

// ActGreedy returns the policy mode.
func (a *Agent) ActGreedy(obs []float64) int {
	return nn.Argmax(a.policy.Forward(obs))
}

// chunk is the number of samples Update runs through a network per
// minibatch pass. Gradients gain their terms in sample order whatever it
// is; it bounds the workspace.
const chunk = 64

// Update implements rl.Agent: a single full-batch policy-gradient step
// using the GAE advantages as the score weights.
func (a *Agent) Update(b *rl.Batch) rl.UpdateStats {
	b.NormalizeAdvantages()
	n := b.Len()
	if n == 0 {
		return rl.UpdateStats{}
	}
	pParams := a.policy.Params()
	vParams := a.value.Params()
	nn.ZeroGrad(pParams)
	nn.ZeroGrad(vParams)
	k := a.policy.OutSize()
	pGrad := make([]float64, k*min(chunk, n))
	vGrad := make([]float64, min(chunk, n))
	var stats rl.UpdateStats
	fn := float64(n)
	for start := 0; start < n; start += chunk {
		obs := b.Obs[start:min(start+chunk, n)]
		logits := a.policy.ForwardBatch(&a.ws, obs)
		for s := range obs {
			i := start + s
			act := b.Actions[i]
			adv := b.Advantages[i]
			nn.Softmax(logits[s*k:][:k], a.probs)
			stats.PolicyLoss += -nn.LogProb(a.probs, act) * adv
			ent := nn.Entropy(a.probs)
			stats.Entropy += ent
			gradOut := pGrad[s*k:][:k]
			for j := range gradOut {
				ind := 0.0
				if j == act {
					ind = 1.0
				}
				gradOut[j] = -adv * (ind - a.probs[j]) / fn
				lp := math.Log(math.Max(a.probs[j], 1e-12))
				gradOut[j] -= a.cfg.EntropyCoef * (-a.probs[j] * (lp + ent)) / fn
			}
		}
		a.policy.BackwardBatch(&a.ws, pGrad[:len(logits)])

		values := a.value.ForwardBatch(&a.ws, obs)
		for s := range obs {
			dv := values[s] - b.Returns[start+s]
			stats.ValueLoss += 0.5 * dv * dv
			vGrad[s] = dv / fn
		}
		a.value.BackwardBatch(&a.ws, vGrad[:len(obs)])
	}
	stats.GradNorm = nn.ClipGradNorm(pParams, a.cfg.MaxGradNorm)
	nn.ClipGradNorm(vParams, a.cfg.MaxGradNorm)
	a.pOpt.Step()
	a.vOpt.Step()
	stats.PolicyLoss /= fn
	stats.ValueLoss /= fn
	stats.Entropy /= fn
	return stats
}
