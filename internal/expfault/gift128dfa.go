package expfault

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/ciphers/gift"
	"repro/internal/fault"
	"repro/internal/prng"
)

// state128 is a 128-bit GIFT state in repository bit order: bit i lives in
// word i/64 at position i%64.
type state128 [2]uint64

func le128(b []byte) state128 {
	var s state128
	for i := 7; i >= 0; i-- {
		s[0] = s[0]<<8 | uint64(b[i])
		s[1] = s[1]<<8 | uint64(b[8+i])
	}
	return s
}

func (s state128) bit(i int) uint64 { return s[i/64] >> (uint(i) % 64) & 1 }

func (s state128) xor(o state128) state128 { return state128{s[0] ^ o[0], s[1] ^ o[1]} }

// nibble returns nibble n (0..31).
func (s state128) nibble(n int) byte {
	return byte(s[n/16] >> (4 * uint(n%16)) & 0xf)
}

// invRound128 inverts one key-free GIFT-128 round (inverse permutation
// then inverse S-box); the caller removes AddRoundKey first.
func invRound128(s state128) state128 {
	var out state128
	for i := 0; i < 128; i++ {
		j := gift.Perm128(i)
		out[i/64] |= (s[j/64] >> (uint(j) % 64) & 1) << (uint(i) % 64)
	}
	var sub state128
	for n := 0; n < 32; n++ {
		sub[n/16] |= uint64(gift.InvSBox(byte(out[n/16]>>(4*uint(n%16))&0xf))) << (4 * uint(n%16))
	}
	return sub
}

// GIFT128DFA mounts the nibble-wise guess-and-filter DFA against GIFT-128
// (the GIFT-COFB / NIST-LWC variant), generalizing GIFTDFA: AddRoundKey
// places U bits at state bits 4i+2 and V bits at 4i+1, so each input
// nibble of a round is again gated by exactly two key bits (PermBits
// preserves the bit index mod 4). Round keys 40 and 39 are attacked with
// the same significance-gated template matching as the 64-bit attack;
// the cone phase is not implemented for this variant, so wide fault
// models recover fewer bits than on GIFT-64.
func GIFT128DFA(target *gift.Cipher, pattern *bitvec.Vector, cfg GIFTDFAConfig, rng *prng.Source) (*KeyRecoveryResult, error) {
	if cfg.FaultRound == 0 {
		cfg.FaultRound = 37 // three rounds from the end, as 25 is for GIFT-64
	}
	cfg.setDefaults()
	if target.Name() != "gift128" {
		return nil, fmt.Errorf("expfault: GIFT128DFA supports gift128 only")
	}
	if pattern.Len() != 128 {
		return nil, fmt.Errorf("expfault: pattern width %d, want 128", pattern.Len())
	}
	if pattern.IsZero() {
		return nil, fmt.Errorf("expfault: empty pattern")
	}
	rounds := target.Rounds() // 40
	if err := cfg.check(rounds); err != nil {
		return nil, err
	}

	tmplKey := make([]byte, 16)
	rng.Fill(tmplKey)
	tmplCipher, err := gift.New128(tmplKey)
	if err != nil {
		return nil, err
	}
	tmplKern := ciphers.NewKernel(tmplCipher, cfg.NoBatch)
	tmpl40 := diffTemplate128(tmplCipher, tmplKern, pattern, cfg.Model, cfg.FaultRound, rounds, cfg.TemplateSamples, rng)
	tmpl39 := diffTemplate128(tmplCipher, tmplKern, pattern, cfg.Model, cfg.FaultRound, rounds-1, cfg.TemplateSamples, rng)

	cc := make([]state128, cfg.Pairs)
	cf := make([]state128, cfg.Pairs)
	p := 0
	collectForks(target, ciphers.NewKernel(target, cfg.NoBatch), pattern, cfg.Model, cfg.FaultRound,
		[]ciphers.BatchPoint{{Round: 0}}, cfg.Pairs, rng, func(_ int, clean, faulty []byte) {
			cc[p], cf[p] = le128(clean), le128(faulty)
			p++
		})

	guesses := 0.0
	rk40 := recoverRoundKey128(cc, cf, tmpl40, rounds, cfg.MinMargin)
	guesses += 32 * 4 * float64(cfg.Pairs)
	recovered := countBits32(rk40.gotU) + countBits32(rk40.gotV)
	notes := fmt.Sprintf("RK40: %d/64 bits", recovered)

	var rk39 recovery128
	if rk40.gotU == 0xffffffff && rk40.gotV == 0xffffffff {
		klo, khi := gift.KeyMask128(rk40.u, rk40.v)
		clo, chi := gift.ConstMask128(rounds)
		s39c := make([]state128, cfg.Pairs)
		s39f := make([]state128, cfg.Pairs)
		for p := 0; p < cfg.Pairs; p++ {
			s39c[p] = invRound128(state128{cc[p][0] ^ klo ^ clo, cc[p][1] ^ khi ^ chi})
			s39f[p] = invRound128(state128{cf[p][0] ^ klo ^ clo, cf[p][1] ^ khi ^ chi})
		}
		rk39 = recoverRoundKey128(s39c, s39f, tmpl39, rounds-1, cfg.MinMargin)
		guesses += 32 * 4 * float64(cfg.Pairs)
		n39 := countBits32(rk39.gotU) + countBits32(rk39.gotV)
		recovered += n39
		notes += fmt.Sprintf("; RK39: %d/64 bits", n39)
	} else {
		notes += "; RK40 incomplete, round 39 not attacked"
	}

	tu40, tv40 := target.RoundKeyWords(rounds)
	tu39, tv39 := target.RoundKeyWords(rounds - 1)
	correct := rk40.matches(tu40, tv40) && rk39.matches(tu39, tv39)

	return &KeyRecoveryResult{
		RecoveredBits: recovered,
		TotalKeyBits:  128,
		FaultsUsed:    cfg.Pairs,
		OfflineLog2:   log2(guesses + 2*float64(cfg.TemplateSamples)),
		Correct:       correct,
		Notes:         notes,
	}, nil
}

// diffTemplate128 mirrors diffTemplate for the 32-nibble state.
func diffTemplate128(c *gift.Cipher, kern ciphers.BatchKernel, pattern *bitvec.Vector, model fault.Model, faultRound, obsRound, samples int, rng *prng.Source) [32][16]float64 {
	var hist [32][16]int
	var points []ciphers.BatchPoint
	if obsRound >= faultRound {
		points = []ciphers.BatchPoint{{Round: obsRound}}
	} else {
		for n := range hist {
			hist[n][0] = samples
		}
	}
	collectForks(c, kern, pattern, model, faultRound, points, samples, rng, func(_ int, clean, faulty []byte) {
		d := le128(clean).xor(le128(faulty))
		for n := 0; n < 32; n++ {
			hist[n][d.nibble(n)]++
		}
	})
	var tmpl [32][16]float64
	for n := 0; n < 32; n++ {
		for v := 0; v < 16; v++ {
			tmpl[n][v] = (float64(hist[n][v]) + 0.5) / (float64(samples) + 8)
		}
	}
	return tmpl
}

// recovery128 mirrors recovery with 32-bit round-key words.
type recovery128 struct {
	u, v       uint32
	gotU, gotV uint32
}

func (r recovery128) matches(tu, tv uint32) bool {
	return r.u&r.gotU == tu&r.gotU && r.v&r.gotV == tv&r.gotV
}

// recoverRoundKey128 guesses the two key bits gating each of the 32 input
// nibbles of a GIFT-128 round: nibble n is fed by bits P128(4n+j), of
// which P128(4n+1) carries V bit (P(4n+1)-1)/4 and P128(4n+2) carries
// U bit (P(4n+2)-2)/4.
func recoverRoundKey128(cc, cf []state128, tmpl [32][16]float64, round int, minMargin float64) recovery128 {
	var out recovery128
	clo, chi := gift.ConstMask128(round)
	cm := state128{clo, chi}
	pairs := len(cc)
	perPair := make([][]float64, 4)
	for g := range perPair {
		perPair[g] = make([]float64, pairs)
	}
	idx := make([]uint16, pairs)
	for n := 0; n < 32; n++ {
		var pos [4]int
		for j := 0; j < 4; j++ {
			pos[j] = gift.Perm128(4*n + j)
		}
		vIdx := (pos[1] - 1) / 4
		uIdx := (pos[2] - 2) / 4
		// Batched guess evaluation, as in recoverRoundKey: the guess bits
		// land at intra-nibble positions 1 (V) and 2 (U), so guess g XORs
		// the value g<<1 into both sides of the guess-free nibble pair,
		// extracted once per trace; the inverse S-box passes and the log
		// fold into a 4x256 table with float values and summation order
		// identical to the direct loop.
		for p := range cc {
			a0 := extractNibble128(cc[p].xor(cm), pos)
			b0 := extractNibble128(cf[p].xor(cm), pos)
			idx[p] = uint16(a0) | uint16(b0)<<4
		}
		var llTab [4][256]float64
		for g := 0; g < 4; g++ {
			gx := byte(g) << 1
			for a0 := 0; a0 < 16; a0++ {
				for b0 := 0; b0 < 16; b0++ {
					d := gift.InvSBox(byte(a0)^gx) ^ gift.InvSBox(byte(b0)^gx)
					llTab[g][a0|b0<<4] = math.Log(tmpl[n][d])
				}
			}
		}
		var score [4]float64
		for g := 0; g < 4; g++ { // g = vBit | uBit<<1
			tab := &llTab[g]
			var s float64
			for p := range cc {
				ll := tab[idx[p]]
				perPair[g][p] = ll
				s += ll
			}
			score[g] = s
		}
		best, second := 0, -1
		for g := 1; g < 4; g++ {
			if score[g] > score[best] {
				second = best
				best = g
			} else if second < 0 || score[g] > score[second] {
				second = g
			}
		}
		if gapSignificance(perPair[best], perPair[second]) >= minMargin {
			out.gotV |= 1 << uint(vIdx)
			out.gotU |= 1 << uint(uIdx)
			out.v |= uint32(best&1) << uint(vIdx)
			out.u |= uint32(best>>1) << uint(uIdx)
		}
	}
	return out
}

func extractNibble128(s state128, pos [4]int) byte {
	var x byte
	for j := 0; j < 4; j++ {
		x |= byte(s.bit(pos[j])) << uint(j)
	}
	return x
}

func countBits32(m uint32) int {
	n := 0
	for m != 0 {
		n++
		m &= m - 1
	}
	return n
}
