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

// GIFTDFAConfig tunes the GIFT-64 differential fault attack.
type GIFTDFAConfig struct {
	// FaultRound is where the fault model injects (default 25, §IV-D;
	// GIFT128DFA defaults to 37).
	FaultRound int
	// Pairs is the number of online faulty encryptions (default 1024;
	// recovered bits grow with the pair count because acceptance is
	// significance-gated).
	Pairs int
	// TemplateSamples sizes the attacker's offline simulation of the
	// fault model's differential distributions (default 8192).
	TemplateSamples int
	// MinMargin is the minimum significance (a one-sided t statistic of
	// the per-pair log-likelihood gap between the best and second-best
	// key guess) required to count a guess's bits as recovered
	// (default 4.5, the same confidence level the paper's leakage
	// threshold θ uses). Guesses that are statistically
	// indistinguishable — e.g. genuinely symmetric key bits — are
	// reported unrecovered instead of being coin-flipped.
	MinMargin float64
	// Model is the typed fault model injected at FaultRound (default
	// fault.XorFlip, bit-identical to the historical bit-flip attack).
	// The offline templates are rebuilt under the same model, so the
	// guess-and-filter machinery works unchanged for stuck-at and
	// random-value faults.
	Model fault.Model
	// NoBatch runs the offline templates and the online pair collection
	// through the scalar reference path (ciphers.ScalarForksOps) instead
	// of the cipher's fork kernel. Both draw the same PRNG stream and are
	// bit-identical; the knob exists for benchmarking and cross-checks.
	NoBatch bool
}

func (c *GIFTDFAConfig) setDefaults() {
	if c.FaultRound == 0 {
		c.FaultRound = 25
	}
	if c.Pairs == 0 {
		c.Pairs = 1024
	}
	if c.TemplateSamples == 0 {
		c.TemplateSamples = 8192
	}
	if c.MinMargin == 0 {
		c.MinMargin = 4.5
	}
}

// check reports the first out-of-range value of a defaulted config for a
// cipher of the given round count.
func (c *GIFTDFAConfig) check(rounds int) error {
	switch {
	case c.FaultRound < 1 || c.FaultRound > rounds:
		return fmt.Errorf("expfault: fault round %d out of range (want 1..%d)", c.FaultRound, rounds)
	case c.Pairs < 0:
		return fmt.Errorf("expfault: pairs %d out of range (want 0 or more)", c.Pairs)
	case c.TemplateSamples < 0:
		return fmt.Errorf("expfault: template samples %d out of range (want 0 or more)", c.TemplateSamples)
	}
	return nil
}

// GIFTDFA mounts a nibble-wise guess-and-filter DFA against GIFT-64 for
// an arbitrary fault model (bit pattern injected at FaultRound), the
// verification step the paper performs with ExpFault on the newly
// discovered {8,9,10,11,12,14} multi-nibble model.
//
// The attack exploits two structural facts. First, GIFT's AddRoundKey
// XORs key bits only at state bits 4i and 4i+1, and PermBits preserves
// the bit index mod 4, so the four pre-permutation bits feeding one
// input nibble of round r contain exactly two unknown key bits —
// each nibble of the round-key pair is filtered independently over just
// 4 guesses. Second, XOR differentials pass through AddRoundKey
// unchanged, so the differential distribution of a round input is
// computable offline from the fault model alone (it is key-independent
// for uniform plaintexts); the attacker matches observed differentials
// against that template by log-likelihood.
//
// Round keys 28 and then 27 are recovered (64 bits; the GIFT key schedule
// is a bit permutation/rotation, so round-key bits are master-key bits).
// Nibbles whose differential carries no information (inactive or
// template-flat) are reported unrecovered, mirroring ExpFault's partial
// key recovery for GIFT (80/128 in the paper, which additionally exploits
// a second fault at round 23 for the rest).
func GIFTDFA(target *gift.Cipher, pattern *bitvec.Vector, cfg GIFTDFAConfig, rng *prng.Source) (*KeyRecoveryResult, error) {
	cfg.setDefaults()
	if target.Name() != "gift64" {
		return nil, fmt.Errorf("expfault: GIFTDFA supports gift64 only")
	}
	if pattern.Len() != 64 {
		return nil, fmt.Errorf("expfault: pattern width %d, want 64", pattern.Len())
	}
	if pattern.IsZero() {
		return nil, fmt.Errorf("expfault: empty pattern")
	}
	rounds := target.Rounds() // 28
	if err := cfg.check(rounds); err != nil {
		return nil, err
	}

	// Offline phase: simulate the fault model under an attacker-chosen
	// key to build per-nibble differential templates at the inputs of
	// the last two rounds. The distributions are key-independent because
	// uniform plaintexts make every intermediate state uniform.
	tmplKey := make([]byte, 16)
	rng.Fill(tmplKey)
	tmplCipher, err := gift.New64(tmplKey)
	if err != nil {
		return nil, err
	}
	tmplKern := ciphers.NewKernel(tmplCipher, cfg.NoBatch)
	tmpl28 := diffTemplate(tmplCipher, tmplKern, pattern, cfg.Model, cfg.FaultRound, rounds, cfg.TemplateSamples, rng)
	tmpl27 := diffTemplate(tmplCipher, tmplKern, pattern, cfg.Model, cfg.FaultRound, rounds-1, cfg.TemplateSamples, rng)

	// Online phase: collect ciphertext pairs from the target.
	cc := make([]uint64, cfg.Pairs)
	cf := make([]uint64, cfg.Pairs)
	p := 0
	collectForks(target, ciphers.NewKernel(target, cfg.NoBatch), pattern, cfg.Model, cfg.FaultRound,
		[]ciphers.BatchPoint{{Round: 0}}, cfg.Pairs, rng, func(_ int, clean, faulty []byte) {
			cc[p], cf[p] = le64(clean), le64(faulty)
			p++
		})

	guesses := 0.0

	// Phase 1: recover round key 28 nibble by nibble from ciphertexts.
	rk28 := recoverRoundKey(cc, cf, tmpl28, rounds, cfg.MinMargin)
	guesses += 16 * 4 * float64(cfg.Pairs)

	recovered := countBits16(rk28.gotU) + countBits16(rk28.gotV)
	notes := fmt.Sprintf("RK28: %d/32 bits (min margin %.3f)", recovered, minOf(rk28.margins))

	// Phase 2: cone recovery at the round-27 input (the paper's own
	// observation point, §IV-D). Each input-27 nibble is computed from
	// four input-28 nibbles, so its cone covers up to eight RK28 bits
	// (those not already fixed by phase 1) plus two RK27 bits; the much
	// stronger round-27 differential template scores the joint guess.
	var rk27 recovery
	coneGuesses := coneRecover(cc, cf, tmpl27, rounds, &rk28, &rk27, cfg.MinMargin)
	guesses += coneGuesses
	n28b := countBits16(rk28.gotU) + countBits16(rk28.gotV) - recovered
	n27 := countBits16(rk27.gotU) + countBits16(rk27.gotV)
	recovered += n28b + n27
	notes += fmt.Sprintf("; cone phase: +%d RK28 bits, %d/32 RK27 bits", n28b, n27)

	if rk28.gotU == 0xffff && rk28.gotV == 0xffff {
		// Peel round 28 with the full recovered key and refine RK27 with
		// the cheap per-nibble filter as a cross-check/completion.
		k28 := gift.KeyMask64(rk28.u, rk28.v) ^ gift.ConstMask64(rounds)
		s27c := make([]uint64, cfg.Pairs)
		s27f := make([]uint64, cfg.Pairs)
		for p := 0; p < cfg.Pairs; p++ {
			s27c[p] = invRound64(cc[p] ^ k28)
			s27f[p] = invRound64(cf[p] ^ k28)
		}
		peeled := recoverRoundKey(s27c, s27f, tmpl27, rounds-1, cfg.MinMargin)
		guesses += 16 * 4 * float64(cfg.Pairs)
		add27 := (peeled.gotU &^ rk27.gotU) | (peeled.gotV &^ rk27.gotV)
		if add27 != 0 {
			rk27.u |= peeled.u & peeled.gotU &^ rk27.gotU
			rk27.v |= peeled.v & peeled.gotV &^ rk27.gotV
			extra := countBits16(peeled.gotU&^rk27.gotU) + countBits16(peeled.gotV&^rk27.gotV)
			rk27.gotU |= peeled.gotU
			rk27.gotV |= peeled.gotV
			recovered += extra
			notes += fmt.Sprintf("; peel phase: +%d RK27 bits", extra)
		}
	}

	// Verify every claimed bit against the target's true schedule.
	tu28, tv28 := target.RoundKeyWords(rounds)
	tu27, tv27 := target.RoundKeyWords(rounds - 1)
	correct := rk28.matches(uint16(tu28), uint16(tv28)) &&
		rk27.matches(uint16(tu27), uint16(tv27))

	return &KeyRecoveryResult{
		RecoveredBits: recovered,
		TotalKeyBits:  128,
		FaultsUsed:    cfg.Pairs,
		OfflineLog2:   log2(guesses + 2*float64(cfg.TemplateSamples)),
		Correct:       correct,
		Notes:         notes,
	}, nil
}

// diffTemplate returns, per nibble, the distribution of the differential
// at the input of obsRound for the fault model, from samples simulations
// through collectForks (kern nil selects the scalar reference path). A
// fork cannot observe before its own round: an observation round ahead of
// the fault sees a zero differential, but its samples are still drawn so
// that later phases read the same PRNG stream.
func diffTemplate(c *gift.Cipher, kern ciphers.BatchKernel, pattern *bitvec.Vector, model fault.Model, faultRound, obsRound, samples int, rng *prng.Source) [16][16]float64 {
	var hist [16][16]int
	var points []ciphers.BatchPoint
	if obsRound >= faultRound {
		points = []ciphers.BatchPoint{{Round: obsRound}}
	} else {
		for n := range hist {
			hist[n][0] = samples
		}
	}
	collectForks(c, kern, pattern, model, faultRound, points, samples, rng, func(_ int, clean, faulty []byte) {
		d := le64(clean) ^ le64(faulty)
		for n := 0; n < 16; n++ {
			hist[n][d>>(4*uint(n))&0xf]++
		}
	})
	var tmpl [16][16]float64
	for n := 0; n < 16; n++ {
		for v := 0; v < 16; v++ {
			// Laplace smoothing keeps log-likelihoods finite.
			tmpl[n][v] = (float64(hist[n][v]) + 0.5) / (float64(samples) + 8)
		}
	}
	return tmpl
}

// recovery holds the outcome of one round-key recovery phase: the U and V
// word values with bitmasks of which word bits were actually determined.
type recovery struct {
	u, v       uint16
	gotU, gotV uint16
	margins    [16]float64
}

// matches reports whether every determined bit agrees with the true words.
func (r recovery) matches(tu, tv uint16) bool {
	return r.u&r.gotU == tu&r.gotU && r.v&r.gotV == tv&r.gotV
}

// recoverRoundKey guesses, for every input nibble n of the round, the two
// key bits that gate it, scoring guesses by the log-likelihood of the
// observed input differentials under the template. Nibble n is fed by the
// pre-permutation bits P(4n+j); of these, P(4n) carries V bit P(4n)/4 and
// P(4n+1) carries U bit (P(4n+1)-1)/4 (GIFT keys bits 4i and 4i+1 only,
// and PermBits preserves the bit index mod 4). A guess's bits count as
// recovered only when its per-pair log-likelihood lead over the runner-up
// is statistically significant (see GIFTDFAConfig.MinMargin).
func recoverRoundKey(cc, cf []uint64, tmpl [16][16]float64, round int, minMargin float64) recovery {
	var out recovery
	cm := gift.ConstMask64(round)
	pairs := len(cc)
	perPair := make([][]float64, 4)
	for g := range perPair {
		perPair[g] = make([]float64, pairs)
	}
	idx := make([]uint16, pairs)
	for n := 0; n < 16; n++ {
		var pos [4]int
		for j := 0; j < 4; j++ {
			pos[j] = gift.Perm64(4*n + j)
		}
		vIdx := pos[0] / 4
		uIdx := (pos[1] - 1) / 4
		// Batched guess evaluation: the guess bits land at intra-nibble
		// positions 0 and 1 of the assembled nibble, so a guess g XORs the
		// value g straight into both sides. Extract the guess-free nibble
		// pair once per trace and fold the guess plus both inverse S-box
		// passes and the log into a 4x256 table — the per-(guess, pair)
		// work drops from eight bit gathers to one lookup, with float
		// values and summation order identical to the direct loop.
		for p := range cc {
			a0 := extractNibble(cc[p]^cm, pos)
			b0 := extractNibble(cf[p]^cm, pos)
			idx[p] = uint16(a0) | uint16(b0)<<4
		}
		var llTab [4][256]float64
		for g := 0; g < 4; g++ {
			for a0 := 0; a0 < 16; a0++ {
				for b0 := 0; b0 < 16; b0++ {
					d := gift.InvSBox(byte(a0)^byte(g)) ^ gift.InvSBox(byte(b0)^byte(g))
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
		out.margins[n] = gapSignificance(perPair[best], perPair[second])
		if out.margins[n] >= minMargin {
			out.gotV |= 1 << uint(vIdx)
			out.gotU |= 1 << uint(uIdx)
			out.v |= uint16(best&1) << uint(vIdx)
			out.u |= uint16(best>>1) << uint(uIdx)
		}
	}
	return out
}

// gapSignificance returns the one-sided t statistic of the mean per-pair
// log-likelihood gap between two guesses: mean(a-b) / (sd(a-b)/sqrt(n)).
// Genuinely symmetric guesses have mean ~0 and never clear a 4.5 bar,
// whereas informative nibbles separate rapidly with the pair count.
func gapSignificance(a, b []float64) float64 {
	n := float64(len(a))
	if n < 2 {
		return 0
	}
	var mean float64
	for i := range a {
		mean += a[i] - b[i]
	}
	mean /= n
	var varSum float64
	for i := range a {
		d := a[i] - b[i] - mean
		varSum += d * d
	}
	sd := math.Sqrt(varSum / (n - 1))
	if sd < 1e-12 {
		if mean > 0 {
			return 1e6
		}
		return 0
	}
	return mean / (sd / math.Sqrt(n))
}

func countBits16(m uint16) int {
	n := 0
	for m != 0 {
		n++
		m &= m - 1
	}
	return n
}

// feedTab caches, for one feeding input-28 nibble, the candidate values
// under each of its 2-bit key guesses: vals[guess][pair] packs the clean
// nibble in the low half and the faulty nibble in the high half.
type feedTab struct {
	vals    [4][]byte
	allowed [4]bool
}

// conePerPair computes the per-pair log-likelihoods of one joint cone
// guess (gs[0..3] for the feeding nibbles, gs[4] for the RK27 bits).
func conePerPair(tabs [4]feedTab, off [4]int, q [4]int, cm27 uint64, tmpl [16]float64, gs [5]int, pairs int) []float64 {
	km := byte(gs[4]&1) | byte(gs[4]>>1)<<1
	cmbits := byte(cm27>>uint(q[0])&1) |
		byte(cm27>>uint(q[1])&1)<<1 |
		byte(cm27>>uint(q[2])&1)<<2 |
		byte(cm27>>uint(q[3])&1)<<3
	out := make([]float64, pairs)
	for p := 0; p < pairs; p++ {
		var xa, xb byte
		for j := 0; j < 4; j++ {
			v := tabs[j].vals[gs[j]][p]
			xa |= (v >> uint(off[j]) & 1) << uint(j)
			xb |= (v >> uint(4+off[j]) & 1) << uint(j)
		}
		da := gift.InvSBox(xa ^ km ^ cmbits)
		db := gift.InvSBox(xb ^ km ^ cmbits)
		out[p] = math.Log(tmpl[da^db])
	}
	return out
}

// coneRecover runs the input-27 cone phase: for every input-27 nibble it
// enumerates the unknown key bits in its backward cone (up to eight RK28
// bits and two RK27 bits), scores each joint guess against the round-27
// input template over all pairs, and commits the bits of cones whose
// best-vs-second margin clears minMargin. Cones are committed in
// descending margin order so overlapping claims resolve to the stronger
// cone; previously-known RK28 bits constrain the enumeration. It returns
// the number of guess evaluations (for the offline-complexity estimate).
func coneRecover(cc, cf []uint64, tmpl [16][16]float64, rounds int, rk28, rk27 *recovery, minMargin float64) float64 {
	cm28 := gift.ConstMask64(rounds)
	cm27 := gift.ConstMask64(rounds - 1)
	pairs := len(cc)
	work := 0.0

	type coneResult struct {
		margin   float64
		m        int    // input-27 nibble index
		feed     [4]int // feeding input-28 nibble indices
		bestG28  [4]int // per-feeding-nibble key guess (v | u<<1)
		bestG27  int    // RK27 guess (v | u<<1)
		u27, v27 int    // RK27 word bit indices
	}
	var results []coneResult

	for m := 0; m < 16; m++ {
		// Positions of the four ARK27-output (= input-28 state) bits
		// feeding input-27 nibble m, and the RK27 bits among them.
		var q [4]int
		for j := 0; j < 4; j++ {
			q[j] = gift.Perm64(4*m + j)
		}
		v27Idx := q[0] / 4
		u27Idx := (q[1] - 1) / 4
		var feed, off [4]int
		for j := 0; j < 4; j++ {
			feed[j] = q[j] / 4
			off[j] = q[j] % 4
		}
		// Per feeding nibble: the four candidate values under each of
		// its 2-bit key guesses, per pair and per clean/faulty side,
		// plus the guess constraint from phase-1 knowledge.
		var tabs [4]feedTab
		for j := 0; j < 4; j++ {
			f := feed[j]
			var pos [4]int
			for i := 0; i < 4; i++ {
				pos[i] = gift.Perm64(4*f + i)
			}
			vIdx := pos[0] / 4
			uIdx := (pos[1] - 1) / 4
			for g := 0; g < 4; g++ {
				ok := true
				if rk28.gotV>>uint(vIdx)&1 == 1 && int(rk28.v>>uint(vIdx)&1) != g&1 {
					ok = false
				}
				if rk28.gotU>>uint(uIdx)&1 == 1 && int(rk28.u>>uint(uIdx)&1) != g>>1 {
					ok = false
				}
				tabs[j].allowed[g] = ok
				if !ok {
					continue
				}
				gm := uint64(g&1)<<uint(pos[0]) | uint64(g>>1)<<uint(pos[1])
				vals := make([]byte, pairs)
				for p := 0; p < pairs; p++ {
					a := gift.InvSBox(extractNibble(cc[p]^cm28^gm, pos))
					b := gift.InvSBox(extractNibble(cf[p]^cm28^gm, pos))
					vals[p] = a | b<<4
				}
				tabs[j].vals[g] = vals
			}
		}
		// Enumerate joint guesses. The RK27 guess bits sit at intra-nibble
		// positions 0 (V) and 1 (U) of the assembled pre-S-box nibble (the
		// round-27 constant bits too), so both inverse S-box passes and
		// the log collapse into a 4x256 table per g27 — all four g27
		// scores of one feeding-guess combination then come from a single
		// pass over the pairs, with float values and per-accumulator
		// summation order identical to the direct loop.
		cmbits := byte(cm27>>uint(q[0])&1) |
			byte(cm27>>uint(q[1])&1)<<1 |
			byte(cm27>>uint(q[2])&1)<<2 |
			byte(cm27>>uint(q[3])&1)<<3
		var llTab27 [4][256]float64
		for g27 := 0; g27 < 4; g27++ {
			km := byte(g27&1) | byte(g27>>1)<<1
			for xa := 0; xa < 16; xa++ {
				for xb := 0; xb < 16; xb++ {
					da := gift.InvSBox(byte(xa) ^ km ^ cmbits)
					db := gift.InvSBox(byte(xb) ^ km ^ cmbits)
					llTab27[g27][xa|xb<<4] = math.Log(tmpl[m][da^db])
				}
			}
		}
		best, second := -1e18, -1e18
		var bestCone coneResult
		var bestGs, secondGs [5]int // g0..g3, g27 of the top two guesses
		haveSecond := false
		for g0 := 0; g0 < 4; g0++ {
			if !tabs[0].allowed[g0] {
				continue
			}
			for g1 := 0; g1 < 4; g1++ {
				if !tabs[1].allowed[g1] {
					continue
				}
				for g2 := 0; g2 < 4; g2++ {
					if !tabs[2].allowed[g2] {
						continue
					}
					for g3 := 0; g3 < 4; g3++ {
						if !tabs[3].allowed[g3] {
							continue
						}
						gs := [4]int{g0, g1, g2, g3}
						v0, v1, v2, v3 := tabs[0].vals[g0], tabs[1].vals[g1], tabs[2].vals[g2], tabs[3].vals[g3]
						var scores [4]float64
						for p := 0; p < pairs; p++ {
							xa := v0[p]>>uint(off[0])&1 |
								v1[p]>>uint(off[1])&1<<1 |
								v2[p]>>uint(off[2])&1<<2 |
								v3[p]>>uint(off[3])&1<<3
							xb := v0[p]>>uint(4+off[0])&1 |
								v1[p]>>uint(4+off[1])&1<<1 |
								v2[p]>>uint(4+off[2])&1<<2 |
								v3[p]>>uint(4+off[3])&1<<3
							iv := uint16(xa) | uint16(xb)<<4
							scores[0] += llTab27[0][iv]
							scores[1] += llTab27[1][iv]
							scores[2] += llTab27[2][iv]
							scores[3] += llTab27[3][iv]
						}
						work += 4 * float64(pairs)
						for g27 := 0; g27 < 4; g27++ {
							score := scores[g27]
							if score > best {
								second = best
								secondGs = bestGs
								haveSecond = haveSecond || best > -1e18
								best = score
								bestGs = [5]int{gs[0], gs[1], gs[2], gs[3], g27}
								bestCone = coneResult{
									m: m, feed: feed, bestG28: gs, bestG27: g27,
									u27: u27Idx, v27: v27Idx,
								}
							} else if score > second {
								second = score
								secondGs = [5]int{gs[0], gs[1], gs[2], gs[3], g27}
								haveSecond = true
							}
						}
					}
				}
			}
		}
		if !haveSecond {
			// Every alternative was excluded by phase-1 knowledge; the
			// cone adds no new information to test against.
			bestCone.margin = 0
		} else {
			// Significance of the lead: recompute the per-pair
			// log-likelihoods of the two top guesses and t-test the gap.
			llBest := conePerPair(tabs, off, q, cm27, tmpl[m], bestGs, pairs)
			llSecond := conePerPair(tabs, off, q, cm27, tmpl[m], secondGs, pairs)
			bestCone.margin = gapSignificance(llBest, llSecond)
		}
		results = append(results, bestCone)
	}

	// Commit cones strongest-first.
	for {
		bi := -1
		for i := range results {
			if results[i].m >= 0 && (bi < 0 || results[i].margin > results[bi].margin) {
				bi = i
			}
		}
		if bi < 0 || results[bi].margin < minMargin {
			break
		}
		r := results[bi]
		results[bi].m = -1
		for j := 0; j < 4; j++ {
			f := r.feed[j]
			var pos [4]int
			for i := 0; i < 4; i++ {
				pos[i] = gift.Perm64(4*f + i)
			}
			vIdx := pos[0] / 4
			uIdx := (pos[1] - 1) / 4
			g := r.bestG28[j]
			if rk28.gotV>>uint(vIdx)&1 == 0 {
				rk28.gotV |= 1 << uint(vIdx)
				rk28.v |= uint16(g&1) << uint(vIdx)
			}
			if rk28.gotU>>uint(uIdx)&1 == 0 {
				rk28.gotU |= 1 << uint(uIdx)
				rk28.u |= uint16(g>>1) << uint(uIdx)
			}
		}
		if rk27.gotV>>uint(r.v27)&1 == 0 {
			rk27.gotV |= 1 << uint(r.v27)
			rk27.v |= uint16(r.bestG27&1) << uint(r.v27)
		}
		if rk27.gotU>>uint(r.u27)&1 == 0 {
			rk27.gotU |= 1 << uint(r.u27)
			rk27.u |= uint16(r.bestG27>>1) << uint(r.u27)
		}
	}
	return work
}

// extractNibble assembles the 4 bits at pos into a nibble value (bit j of
// the result from pos[j]).
func extractNibble(s uint64, pos [4]int) byte {
	var x byte
	for j := 0; j < 4; j++ {
		x |= byte(s>>uint(pos[j])&1) << uint(j)
	}
	return x
}

// invRound64 inverts one key-free GIFT-64 round (inverse permutation then
// inverse S-box); the caller removes AddRoundKey first.
func invRound64(s uint64) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		out |= (s >> uint(gift.Perm64(i)) & 1) << uint(i)
	}
	var sub uint64
	for n := 0; n < 16; n++ {
		sub |= uint64(gift.InvSBox(byte(out>>(4*uint(n))&0xf))) << (4 * uint(n))
	}
	return sub
}

// le64 assembles a repository-bit-order byte slice into a uint64.
func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func minOf(xs [16]float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
