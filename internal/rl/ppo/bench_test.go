package ppo

import (
	"testing"

	"repro/internal/prng"
)

// BenchmarkAct times one Act on discovery's shape, cycling through the
// observations of a seeded rollout.
func BenchmarkAct(b *testing.B) {
	const bits = 128
	agent := New(bits, bits, discoveryConfig(bits), prng.New(1))
	batch := discoveryRollout(agent.Act, 8, bits, prng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Act(batch.Obs[i%len(batch.Obs)])
	}
}

// BenchmarkUpdate times one Update on the batch of perfbench's PPO replay:
// 8 episodes of 128 steps at discovery's configuration.
func BenchmarkUpdate(b *testing.B) {
	const bits = 128
	agent := New(bits, bits, discoveryConfig(bits), prng.New(1))
	batch := discoveryRollout(agent.Act, 8, bits, prng.New(2))
	adv := append([]float64(nil), batch.Advantages...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Update normalizes the advantages in place.
		copy(batch.Advantages, adv)
		agent.Update(batch)
	}
}
