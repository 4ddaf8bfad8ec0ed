// Package explore implements the paper's primary contribution: the
// ExploreFault Markov decision process over fault patterns, the training
// orchestration that runs PPO on it, and the training log from which
// fault models are harvested.
//
// The MDP (§III-B, §III-E): the state is a binary vector over the cipher
// state bits marking where faults will be injected; an action selects one
// bit; the episode runs for T steps (T = number of state bits); all
// intermediate rewards are zero, and the terminal reward is β (< 0) if the
// final pattern shows no information leakage, or e^n (n = distinct bits
// selected) if it does. Table II's slow variant computes the reward at
// every step; Fig. 3's weak variant uses the linear reward n.
//
// When the environment is configured with more than one typed fault model
// (EnvConfig.Models), the action space is widened with one model-select
// action per model, so the agent searches over fault type as well as bit
// set; single-model configurations keep the paper's exact action encoding,
// which is what keeps old checkpoints loadable.
package explore

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/evaluate"
	"repro/internal/fault"
)

// Oracle decides the information leakage of a fault pattern under a typed
// fault model. It is the abstraction boundary between the RL machinery and
// the cipher world: unprotected ciphers use AssessorOracle; the
// duplication countermeasure provides its own implementation (package
// countermeasure).
type Oracle interface {
	// Evaluate returns the leakage statistic l for the pattern under the
	// given fault model (fault.XorFlip is the paper's bit-flip model). A
	// done ctx aborts the underlying campaign at its next shard boundary
	// and returns ctx.Err().
	Evaluate(ctx context.Context, pattern *bitvec.Vector, model fault.Model) (float64, error)
	// StateBits is the width of patterns this oracle accepts.
	StateBits() int
	// Threshold is the exploitability threshold θ.
	Threshold() float64
}

// AssessorOracle adapts an evaluate.Engine with a fixed injection round to
// the Oracle interface.
type AssessorOracle struct {
	Engine *evaluate.Engine
	Round  int
}

var _ Oracle = (*AssessorOracle)(nil)

// Evaluate implements Oracle.
func (o *AssessorOracle) Evaluate(ctx context.Context, pattern *bitvec.Vector, model fault.Model) (float64, error) {
	res, err := o.Engine.AssessModel(ctx, pattern, o.Round, model)
	if err != nil {
		return 0, err
	}
	return res.T, nil
}

// StateBits implements Oracle.
func (o *AssessorOracle) StateBits() int { return o.Engine.StateBits() }

// InjectionRound implements Rounder for memoization keys.
func (o *AssessorOracle) InjectionRound() int { return o.Round }

// Threshold implements Oracle.
func (o *AssessorOracle) Threshold() float64 { return o.Engine.Threshold() }
