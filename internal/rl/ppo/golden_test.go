package ppo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/prng"
	"repro/internal/rl"
)

// goldenUpdate is the SHA-256 of TestUpdateGolden's training run: every
// UpdateStats field of three updates followed by the agent's final State,
// all as exact float64 bits. It pins the numerical result of the policy
// network kernels and of Update itself, so an optimization that changes
// a single bit of training fails here even when every run still agrees
// with every other run. The hash holds for amd64, where Go never fuses a
// multiply and an add; on arm64 and the other architectures where it
// does, FMA instructions round differently.
const goldenUpdate = "8a0588615aa2ed49ade2f7eb3a4213ff5ca72c223b6fade576fb925a784f4c7f"

// hashFloats feeds each value's IEEE-754 bits, little-endian, into h.
func hashFloats(h hash.Hash, vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func hashTensors(h hash.Hash, ts [][]float64) {
	for _, t := range ts {
		hashFloats(h, t...)
	}
}

// discoveryRollout plays envs episodes of obsSize steps in discovery's
// shape: observations are 0/1 bit-selection vectors that start empty and
// gain the chosen bit at every step, and the reward arrives at the end of
// each episode.
func discoveryRollout(act func([]float64) (int, float64, float64), envs, obsSize int, rng *prng.Source) *rl.Batch {
	b := &rl.Batch{}
	for e := 0; e < envs; e++ {
		obs := make([]float64, obsSize)
		for step := 0; step < obsSize; step++ {
			a, logp, v := act(obs)
			b.Obs = append(b.Obs, append([]float64(nil), obs...))
			b.Actions = append(b.Actions, a)
			b.LogProbs = append(b.LogProbs, logp)
			b.Values = append(b.Values, v)
			done := step == obsSize-1
			reward := 0.0
			if done {
				reward = rng.Float64()
			}
			b.Rewards = append(b.Rewards, reward)
			b.Dones = append(b.Dones, done)
			obs[a] = 1
		}
	}
	b.ComputeGAE(1, 0.95)
	return b
}

// discoveryConfig is the agent configuration Discover uses for a
// 128-bit state.
func discoveryConfig(bits int) Config {
	return Config{
		Hidden:           []int{64, 64},
		LearningRate:     1e-3,
		Epochs:           4,
		EntropyCoef:      1e-3,
		ExplorationFloor: 1 / float64(bits),
		BootstrapSpike:   8,
	}
}

func TestUpdateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the training hash is recorded for amd64 arithmetic, not %s", runtime.GOARCH)
	}
	const bits, envs, rounds = 128, 8, 3
	agent := New(bits, bits, discoveryConfig(bits), prng.New(1))
	data := prng.New(2)
	h := sha256.New()
	for r := 0; r < rounds; r++ {
		st := agent.Update(discoveryRollout(agent.Act, envs, bits, data))
		hashFloats(h, st.PolicyLoss, st.ValueLoss, st.Entropy, st.ClipFrac, st.GradNorm)
	}
	st := agent.State()
	hashTensors(h, st.Policy)
	hashTensors(h, st.Value)
	for _, opt := range []nn.AdamState{st.POpt, st.VOpt} {
		binary.Write(h, binary.LittleEndian, int64(opt.T))
		hashTensors(h, opt.M)
		hashTensors(h, opt.V)
	}
	binary.Write(h, binary.LittleEndian, st.RNG)
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenUpdate {
		t.Errorf("training hash %s, want %s", got, goldenUpdate)
	}
}
