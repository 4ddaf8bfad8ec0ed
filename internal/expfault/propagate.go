// Package expfault implements the key-recovery verification layer that the
// paper delegates to the ExpFault tool [19]: given a fault model discovered
// by ExploreFault, it (i) profiles how the fault differential propagates
// through the cipher (distinguisher identification), and (ii) mounts
// concrete differential fault attacks — the Piret–Quisquater attack on
// AES-128 and a nibble-wise guess-and-filter attack on GIFT-64 — reporting
// how many key bits are recovered and at what offline complexity.
//
// This is a reimplementation of ExpFault's *question* ("does this fault
// model admit key recovery, and how expensive is it?") rather than its
// exact machinery: where ExpFault analyzes a data-flow graph symbolically,
// we measure distinguishers on the simulator and run the attacks outright,
// which is stronger evidence and feasible because the substrate is our own
// trace-level cipher implementation (see DESIGN.md, substitutions).
package expfault

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/fault"
	"repro/internal/prng"
)

// PropagationProfile describes how a fault model's differential evolves
// round by round.
type PropagationProfile struct {
	// Round r (1-based) statistics live at index r-1 for rounds after
	// the injection; earlier rounds hold zeros.
	ActiveGroups []float64 // mean number of non-zero differential groups at each round input
	Entropy      []float64 // mean per-active-group Shannon entropy (bits) of the differential distribution
	// MaxAbsCorr is the largest absolute Pearson correlation between any
	// two group differentials at each round input. Univariate entropy
	// misses joint structure (Fig. 1's linear pattern has near-uniform
	// byte marginals); cross-group correlation is the propagation-level
	// analogue of the second-order t-test.
	MaxAbsCorr []float64
	// DistinguisherRound is the deepest round input whose differential
	// is still distinguishable from uniform (activity gap, entropy gap,
	// or cross-group correlation); 0 if none.
	DistinguisherRound int
	GroupBits          int
}

// Profile simulates the fault model (pattern at the given round) and
// measures, for every later round input, the mean number of active
// differential groups and the per-group entropy, using samples paired
// encryptions. A round counts as distinguishable if its mean active-group
// count is at least one group below the state total or its mean entropy is
// at least 0.25 bits below the uniform maximum.
func Profile(c ciphers.Cipher, pattern *bitvec.Vector, round, samples int, rng *prng.Source) (*PropagationProfile, error) {
	return ProfileModel(c, pattern, fault.XorFlip, round, samples, rng)
}

// ProfileModel is Profile under a typed fault model. For fault.XorFlip it
// is bit-identical to Profile; other models draw per-trace (AND, XOR)
// injections from the same pattern.
func ProfileModel(c ciphers.Cipher, pattern *bitvec.Vector, model fault.Model, round, samples int, rng *prng.Source) (*PropagationProfile, error) {
	stateBits := 8 * c.BlockBytes()
	if pattern.Len() != stateBits {
		return nil, fmt.Errorf("expfault: pattern width %d, want %d", pattern.Len(), stateBits)
	}
	if pattern.IsZero() {
		return nil, fmt.Errorf("expfault: empty pattern")
	}
	if round < 1 || round > c.Rounds() {
		return nil, fmt.Errorf("expfault: round %d out of range", round)
	}
	if samples < 2 {
		return nil, fmt.Errorf("expfault: samples %d out of range (want 2 or more)", samples)
	}
	gb := c.GroupBits()
	groups := stateBits / gb
	rounds := c.Rounds()

	prof := &PropagationProfile{
		ActiveGroups: make([]float64, rounds),
		Entropy:      make([]float64, rounds),
		MaxAbsCorr:   make([]float64, rounds),
		GroupBits:    gb,
	}
	// Histogram of differential values per (round, group), plus the
	// moment sums needed for cross-group correlations.
	hists := make([][][]int, rounds)
	sum := make([][]float64, rounds)
	sumSq := make([][]float64, rounds)
	cross := make([][][]float64, rounds)
	for r := round; r < rounds; r++ { // round inputs strictly after injection
		hists[r] = make([][]int, groups)
		for g := range hists[r] {
			hists[r][g] = make([]int, 1<<uint(gb))
		}
		sum[r] = make([]float64, groups)
		sumSq[r] = make([]float64, groups)
		cross[r] = make([][]float64, groups)
		for g := range cross[r] {
			cross[r][g] = make([]float64, groups)
		}
	}

	// Point j observes the input of round round+1+j, whose statistics
	// live at index round+j.
	points := make([]ciphers.BatchPoint, rounds-round)
	for j := range points {
		points[j].Round = round + 1 + j
	}
	vals := make([]float64, groups)
	collectForks(c, ciphers.NewKernel(c, false), pattern, model, round, points, samples, rng, func(j int, clean, faulty []byte) {
		r := round + j
		for g := 0; g < groups; g++ {
			d := groupOf(clean, g, gb) ^ groupOf(faulty, g, gb)
			hists[r][g][d]++
			vals[g] = float64(d)
			sum[r][g] += vals[g]
			sumSq[r][g] += vals[g] * vals[g]
		}
		for g1 := 0; g1 < groups; g1++ {
			for g2 := g1 + 1; g2 < groups; g2++ {
				cross[r][g1][g2] += vals[g1] * vals[g2]
			}
		}
	})

	maxEntropy := float64(gb)
	fn := float64(samples)
	// Correlation noise floor for independent groups is ~1/sqrt(n);
	// flag joint structure well above it.
	corrThreshold := 6 / math.Sqrt(fn)
	for r := round; r < rounds; r++ {
		var active, entSum float64
		for g := 0; g < groups; g++ {
			h := hists[r][g]
			nonZeroSamples := samples - h[0]
			if nonZeroSamples > 0 {
				active += float64(nonZeroSamples) / float64(samples) // fraction active
			}
			entSum += entropyOf(h, samples)
		}
		prof.ActiveGroups[r] = active
		prof.Entropy[r] = entSum / float64(groups)
		for g1 := 0; g1 < groups; g1++ {
			v1 := sumSq[r][g1]/fn - (sum[r][g1]/fn)*(sum[r][g1]/fn)
			for g2 := g1 + 1; g2 < groups; g2++ {
				v2 := sumSq[r][g2]/fn - (sum[r][g2]/fn)*(sum[r][g2]/fn)
				if v1 <= 0 || v2 <= 0 {
					continue
				}
				cov := cross[r][g1][g2]/fn - (sum[r][g1]/fn)*(sum[r][g2]/fn)
				if c := math.Abs(cov) / math.Sqrt(v1*v2); c > prof.MaxAbsCorr[r] {
					prof.MaxAbsCorr[r] = c
				}
			}
		}
		if active <= float64(groups)-1 || prof.Entropy[r] <= maxEntropy-0.25 ||
			prof.MaxAbsCorr[r] > corrThreshold {
			if r+1 > prof.DistinguisherRound {
				prof.DistinguisherRound = r + 1 // round-input index is 1-based
			}
		}
	}
	return prof, nil
}

func groupOf(state []byte, g, gb int) int {
	switch gb {
	case 8:
		return int(state[g])
	case 4:
		return int(state[g/2] >> (4 * uint(g%2)) & 0xf)
	default:
		return int(state[g/8] >> uint(g%8) & 1)
	}
}

// entropyOf returns the Shannon entropy (bits) of a sample histogram.
func entropyOf(h []int, total int) float64 {
	var e float64
	for _, c := range h {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		e -= p * math.Log2(p)
	}
	return e
}

// KeyRecoveryResult summarizes a concrete DFA run.
type KeyRecoveryResult struct {
	// RecoveredBits is the number of key bits uniquely determined.
	RecoveredBits int
	// TotalKeyBits is the cipher's master-key size.
	TotalKeyBits int
	// FaultsUsed is how many faulty ciphertexts the attack consumed.
	FaultsUsed int
	// OfflineLog2 estimates the offline work in log2 (key guesses
	// scored times pairs).
	OfflineLog2 float64
	// Correct reports whether the recovered material matches the true
	// key (verifiable here because we run against our own simulator).
	Correct bool
	// Notes carries attack-specific detail for the experiment report.
	Notes string
}
