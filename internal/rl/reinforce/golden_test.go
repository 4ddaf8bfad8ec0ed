package reinforce

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
// UpdateStats field of three updates followed by both networks' weights
// and Adam moments, all as exact float64 bits. The hash holds for amd64,
// where Go never fuses a multiply and an add.
const goldenUpdate = "8446b22762b54d3df8dcf8bf941d13b03961b52c6f5fb22c4a1c639aac3fbee3"

func hashFloats(h hash.Hash, vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func TestUpdateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the training hash is recorded for amd64 arithmetic, not %s", runtime.GOARCH)
	}
	const bits, envs, rounds = 128, 8, 3
	agent := New(bits, bits, Config{Hidden: []int{64, 64}, LearningRate: 1e-3, EntropyCoef: 1e-3}, prng.New(1))
	data := prng.New(2)
	h := sha256.New()
	for r := 0; r < rounds; r++ {
		// Binary bit-selection observations that gain the chosen bit at
		// every step, with the reward at the end of each episode.
		b := &rl.Batch{}
		for e := 0; e < envs; e++ {
			obs := make([]float64, bits)
			for step := 0; step < bits; step++ {
				a, logp, v := agent.Act(obs)
				b.Obs = append(b.Obs, append([]float64(nil), obs...))
				b.Actions = append(b.Actions, a)
				b.LogProbs = append(b.LogProbs, logp)
				b.Values = append(b.Values, v)
				done := step == bits-1
				reward := 0.0
				if done {
					reward = data.Float64()
				}
				b.Rewards = append(b.Rewards, reward)
				b.Dones = append(b.Dones, done)
				obs[a] = 1
			}
		}
		b.ComputeGAE(1, 0.95)
		st := agent.Update(b)
		hashFloats(h, st.PolicyLoss, st.ValueLoss, st.Entropy, st.ClipFrac, st.GradNorm)
	}
	for _, net := range []*nn.MLP{agent.policy, agent.value} {
		for _, p := range net.Params() {
			hashFloats(h, p.Val...)
		}
	}
	for _, opt := range []*nn.Adam{agent.pOpt, agent.vOpt} {
		st := opt.State()
		binary.Write(h, binary.LittleEndian, int64(st.T))
		for i := range st.M {
			hashFloats(h, st.M[i]...)
			hashFloats(h, st.V[i]...)
		}
	}
	binary.Write(h, binary.LittleEndian, agent.rng.State())
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenUpdate {
		t.Errorf("training hash %s, want %s", got, goldenUpdate)
	}
}
