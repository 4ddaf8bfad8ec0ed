package expfault

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/ciphers/gift"
	"repro/internal/fault"
	"repro/internal/prng"
)

// acceptMargin is the minimum significance (a one-sided t statistic of
// the per-pair log-likelihood gap between the best and second-best key
// guess) required to count a guess's bits as recovered: 4.5, the same
// confidence level the paper's leakage threshold θ uses. Guesses that
// are statistically indistinguishable — e.g. genuinely symmetric key
// bits — are reported unrecovered instead of being coin-flipped.
const acceptMargin = 4.5

// GIFTDFAConfig tunes the GIFT differential fault attack.
type GIFTDFAConfig struct {
	// FaultRound is where the fault model injects (default three rounds
	// before the last: 25 for GIFT-64, as in §IV-D, and 37 for GIFT-128).
	FaultRound int
	// Pairs is the number of online faulty encryptions (default 1024;
	// recovered bits grow with the pair count because acceptance is
	// significance-gated).
	Pairs int
	// TemplateSamples sizes the attacker's offline simulation of the
	// fault model's differential distributions (default 8192).
	TemplateSamples int
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

// setDefaults fills the zero fields for a cipher of the given round count.
func (c *GIFTDFAConfig) setDefaults(rounds int) {
	if c.FaultRound == 0 {
		c.FaultRound = rounds - 3
	}
	if c.Pairs == 0 {
		c.Pairs = 1024
	}
	if c.TemplateSamples == 0 {
		c.TemplateSamples = 8192
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

// giftVariants are the ciphers GIFTDFA attacks, by name.
var giftVariants = map[string]gift.Variant{"gift64": gift.GIFT64, "gift128": gift.GIFT128}

// GIFTDFA mounts a nibble-wise guess-and-filter DFA against GIFT-64 or
// GIFT-128 for an arbitrary fault model (bit pattern injected at
// FaultRound), the verification step the paper performs with ExpFault on
// the newly discovered {8,9,10,11,12,14} multi-nibble model.
//
// The attack exploits two structural facts. First, GIFT's AddRoundKey
// XORs key bits only at state bits 4i+o and 4i+o+1 (o = 0 for GIFT-64,
// 1 for GIFT-128), and PermBits preserves the bit index mod 4, so the
// four pre-permutation bits feeding one input nibble of round r contain
// exactly two unknown key bits — each nibble of the round-key pair is
// filtered independently over just 4 guesses. Second, XOR differentials
// pass through AddRoundKey unchanged, so the differential distribution of
// a round input is computable offline from the fault model alone (it is
// key-independent for uniform plaintexts); the attacker matches observed
// differentials against that template by log-likelihood.
//
// The last round key and then the one before it are recovered (the GIFT
// key schedule is a bit permutation/rotation, so round-key bits are
// master-key bits): round keys 28 and 27 of GIFT-64 (64 bits), 40 and 39
// of GIFT-128 (128 bits). On GIFT-64 a cone phase between the two also
// attacks the round-27 input nibbles whose four feeding nibbles phase 1
// left open; GIFT-128 has no cone phase, so wide fault models recover
// fewer bits there. Nibbles whose differential carries no information
// (inactive or template-flat) are reported unrecovered, mirroring
// ExpFault's partial key recovery for GIFT (80/128 in the paper, which
// additionally exploits a second fault at round 23 for the rest).
func GIFTDFA(target *gift.Cipher, pattern *bitvec.Vector, cfg GIFTDFAConfig, rng *prng.Source) (*KeyRecoveryResult, error) {
	variant, ok := giftVariants[target.Name()]
	if !ok {
		return nil, fmt.Errorf("expfault: GIFTDFA supports gift64 and gift128, not %s", target.Name())
	}
	rounds := target.Rounds() // 28 or 40
	cfg.setDefaults(rounds)
	if width := 8 * target.BlockBytes(); pattern.Len() != width {
		return nil, fmt.Errorf("expfault: pattern width %d, want %d", pattern.Len(), width)
	}
	if pattern.IsZero() {
		return nil, fmt.Errorf("expfault: empty pattern")
	}
	if err := cfg.check(rounds); err != nil {
		return nil, err
	}

	// Offline phase: simulate the fault model under an attacker-chosen
	// key to build per-nibble differential templates at the inputs of
	// the last two rounds. The distributions are key-independent because
	// uniform plaintexts make every intermediate state uniform.
	tmplKey := make([]byte, 16)
	rng.Fill(tmplKey)
	tmplCipher, err := gift.New(variant, tmplKey)
	if err != nil {
		return nil, err
	}
	tmplKern := ciphers.NewKernel(tmplCipher, cfg.NoBatch)
	tmplLast := diffTemplate(tmplCipher, tmplKern, pattern, cfg.Model, cfg.FaultRound, rounds, cfg.TemplateSamples, rng)
	tmplPrev := diffTemplate(tmplCipher, tmplKern, pattern, cfg.Model, cfg.FaultRound, rounds-1, cfg.TemplateSamples, rng)

	// Online phase: collect ciphertext pairs from the target.
	cc := make([]state, cfg.Pairs)
	cf := make([]state, cfg.Pairs)
	p := 0
	collectForks(target, ciphers.NewKernel(target, cfg.NoBatch), pattern, cfg.Model, cfg.FaultRound,
		[]ciphers.BatchPoint{{Round: 0}}, cfg.Pairs, rng, func(_ int, clean, faulty []byte) {
			cc[p], cf[p] = leState(clean), leState(faulty)
			p++
		})

	// Phase 1: recover the last round key nibble by nibble from
	// ciphertexts.
	nibbles := 2 * target.BlockBytes()
	guesses := float64(4 * nibbles * cfg.Pairs)
	last := recoverRoundKey(target, cc, cf, tmplLast, rounds)
	recovered := last.known()

	var prev recovery
	var notes string
	if variant == gift.GIFT64 {
		notes = fmt.Sprintf("RK28: %d/32 bits (min margin %.3f)", recovered, last.minMargin)
		// Phase 2: cone recovery at the round-27 input (the paper's own
		// observation point, §IV-D). Each input-27 nibble is computed
		// from four input-28 nibbles, so its cone covers up to eight RK28
		// bits (those not already fixed by phase 1) plus two RK27 bits;
		// the much stronger round-27 differential template scores the
		// joint guess.
		guesses += coneRecover(target, cc, cf, tmplPrev, rounds, &last, &prev)
		n28b, n27 := last.known()-recovered, prev.known()
		recovered += n28b + n27
		notes += fmt.Sprintf("; cone phase: +%d RK28 bits, %d/32 RK27 bits", n28b, n27)
	} else {
		notes = fmt.Sprintf("RK40: %d/64 bits", recovered)
	}

	if full := ^uint32(0) >> (32 - nibbles); last.gotU == full && last.gotV == full {
		// Peel the last round with the full recovered key and filter the
		// previous round key nibble by nibble: on GIFT-64 a cross-check
		// and completion of the cone phase.
		k := state(target.KeyMask(last.u, last.v)).xor(target.ConstMask(rounds))
		sc := make([]state, cfg.Pairs)
		sf := make([]state, cfg.Pairs)
		for p := range sc {
			sc[p] = invRound(target, cc[p].xor(k))
			sf[p] = invRound(target, cf[p].xor(k))
		}
		peeled := recoverRoundKey(target, sc, sf, tmplPrev, rounds-1)
		guesses += float64(4 * nibbles * cfg.Pairs)
		extra := prev.merge(peeled)
		recovered += extra
		if variant == gift.GIFT128 {
			notes += fmt.Sprintf("; RK39: %d/64 bits", extra)
		} else if extra != 0 {
			notes += fmt.Sprintf("; peel phase: +%d RK27 bits", extra)
		}
	} else if variant == gift.GIFT128 {
		notes += "; RK40 incomplete, round 39 not attacked"
	}

	// Verify every claimed bit against the target's true schedule.
	tu, tv := target.RoundKeyWords(rounds)
	pu, pv := target.RoundKeyWords(rounds - 1)
	correct := last.matches(tu, tv) && prev.matches(pu, pv)

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
// through collectForks (kern nil selects the scalar reference path); rows
// past the cipher's nibble count stay zero. A fork cannot observe before
// its own round: an observation round ahead of the fault sees a zero
// differential, but its samples are still drawn so that later phases read
// the same PRNG stream.
func diffTemplate(c *gift.Cipher, kern ciphers.BatchKernel, pattern *bitvec.Vector, model fault.Model, faultRound, obsRound, samples int, rng *prng.Source) [32][16]float64 {
	nibbles := uint(2 * c.BlockBytes())
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
		d := leState(clean).xor(leState(faulty))
		for n := uint(0); n < nibbles; n++ {
			hist[n][d[n/16%2]>>(4*(n%16))&0xf]++
		}
	})
	var tmpl [32][16]float64
	for n := uint(0); n < nibbles; n++ {
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
	u, v       uint32
	gotU, gotV uint32
	// minMargin is the least guess significance over the round's nibbles
	// (set by recoverRoundKey only).
	minMargin float64
}

// known returns the number of determined key bits.
func (r recovery) known() int { return bits.OnesCount32(r.gotU) + bits.OnesCount32(r.gotV) }

// matches reports whether every determined bit agrees with the true words.
func (r recovery) matches(tu, tv uint32) bool {
	return r.u&r.gotU == tu&r.gotU && r.v&r.gotV == tv&r.gotV
}

// merge adds the bits o determined that r had not and returns how many.
func (r *recovery) merge(o recovery) int {
	newU, newV := o.gotU&^r.gotU, o.gotV&^r.gotV
	r.u |= o.u & newU
	r.v |= o.v & newV
	r.gotU |= newU
	r.gotV |= newV
	return bits.OnesCount32(newU) + bits.OnesCount32(newV)
}

// keyBit returns o, the intra-nibble position of the V key bits in c's
// AddRoundKey (U bits sit at o+1): the state bit KeyMask puts V bit 0 at.
func keyBit(c *gift.Cipher) int { return bits.TrailingZeros64(c.KeyMask(0, 1)[0]) }

// recoverRoundKey guesses, for every input nibble n of the round, the two
// key bits that gate it, scoring guesses by the log-likelihood of the
// observed input differentials under the template. Nibble n is fed by the
// pre-permutation bits P(4n+j); of these, P(4n+o) carries V bit
// P(4n+o)/4 and P(4n+o+1) carries U bit P(4n+o+1)/4 (GIFT keys bits 4i+o
// and 4i+o+1 only, and PermBits preserves the bit index mod 4). A guess's
// bits count as recovered only when its per-pair log-likelihood lead over
// the runner-up is statistically significant (acceptMargin).
func recoverRoundKey(c *gift.Cipher, cc, cf []state, tmpl [32][16]float64, round int) recovery {
	var out recovery
	o := keyBit(c)
	cm := c.ConstMask(round)
	pairs := len(cc)
	perPair := make([][]float64, 4)
	for g := range perPair {
		perPair[g] = make([]float64, pairs)
	}
	idx := make([]uint16, pairs)
	for n := 0; n < 2*c.BlockBytes(); n++ {
		var pos [4]int
		for j := range pos {
			pos[j] = c.Perm(4*n + j)
		}
		vIdx, uIdx := pos[o]/4, pos[o+1]/4
		// Batched guess evaluation: the guess bits land at intra-nibble
		// positions o and o+1 of the assembled nibble, so a guess g XORs
		// g<<o straight into both sides. Extract the guess-free nibble
		// pair once per trace and fold the guess plus both inverse S-box
		// passes and the log into a 4x256 table — the per-(guess, pair)
		// work drops from eight bit gathers to one lookup, with float
		// values and summation order identical to the direct loop.
		cmNib := extractNibble(cm, pos)
		for p := range cc {
			a0 := extractNibble(cc[p], pos) ^ cmNib
			b0 := extractNibble(cf[p], pos) ^ cmNib
			idx[p] = uint16(a0) | uint16(b0)<<4
		}
		var llTab [4][256]float64
		for g := 0; g < 4; g++ {
			gx := byte(g) << o
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
		margin := gapSignificance(perPair[best], perPair[second])
		if n == 0 || margin < out.minMargin {
			out.minMargin = margin
		}
		if margin >= acceptMargin {
			out.gotV |= 1 << uint(vIdx)
			out.gotU |= 1 << uint(uIdx)
			out.v |= uint32(best&1) << uint(vIdx)
			out.u |= uint32(best>>1) << uint(uIdx)
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
// best-vs-second margin clears acceptMargin. Cones are committed in
// descending margin order so overlapping claims resolve to the stronger
// cone; previously-known RK28 bits constrain the enumeration. It returns
// the number of guess evaluations (for the offline-complexity estimate).
// It runs on GIFT-64 only.
func coneRecover(c *gift.Cipher, cc, cf []state, tmpl [32][16]float64, rounds int, rk28, rk27 *recovery) float64 {
	cm28 := c.ConstMask(rounds)
	cm27 := c.ConstMask(rounds - 1)[0]
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
			q[j] = c.Perm(4*m + j)
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
				pos[i] = c.Perm(4*f + i)
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
				if ok {
					tabs[j].vals[g] = make([]byte, pairs)
				}
			}
			// The guess's V and U bits sit at bits 0 and 1 of the
			// assembled nibble, so guess g XORs g into it.
			cmNib := extractNibble(cm28, pos)
			for p := 0; p < pairs; p++ {
				a := extractNibble(cc[p], pos) ^ cmNib
				b := extractNibble(cf[p], pos) ^ cmNib
				for g, vals := range tabs[j].vals {
					if vals != nil {
						vals[p] = gift.InvSBox(a^byte(g)) | gift.InvSBox(b^byte(g))<<4
					}
				}
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
		if bi < 0 || results[bi].margin < acceptMargin {
			break
		}
		r := results[bi]
		results[bi].m = -1
		for j := 0; j < 4; j++ {
			f := r.feed[j]
			var pos [4]int
			for i := 0; i < 4; i++ {
				pos[i] = c.Perm(4*f + i)
			}
			vIdx := pos[0] / 4
			uIdx := (pos[1] - 1) / 4
			g := r.bestG28[j]
			if rk28.gotV>>uint(vIdx)&1 == 0 {
				rk28.gotV |= 1 << uint(vIdx)
				rk28.v |= uint32(g&1) << uint(vIdx)
			}
			if rk28.gotU>>uint(uIdx)&1 == 0 {
				rk28.gotU |= 1 << uint(uIdx)
				rk28.u |= uint32(g>>1) << uint(uIdx)
			}
		}
		if rk27.gotV>>uint(r.v27)&1 == 0 {
			rk27.gotV |= 1 << uint(r.v27)
			rk27.v |= uint32(r.bestG27&1) << uint(r.v27)
		}
		if rk27.gotU>>uint(r.u27)&1 == 0 {
			rk27.gotU |= 1 << uint(r.u27)
			rk27.u |= uint32(r.bestG27>>1) << uint(r.u27)
		}
	}
	return work
}

// state is a GIFT state in repository bit order: bit i in word i/64 at
// position i%64. GIFT-64 uses word 0 only.
type state [2]uint64

func (s state) xor(o state) state { return state{s[0] ^ o[0], s[1] ^ o[1]} }

// leState loads a block in repository bit order (bit i of the state is
// bit i%8 of byte i/8): 8 bytes for GIFT-64, 16 for GIFT-128.
func leState(b []byte) state {
	s := state{binary.LittleEndian.Uint64(b)}
	if len(b) > 8 {
		s[1] = binary.LittleEndian.Uint64(b[8:])
	}
	return s
}

// extractNibble assembles the 4 bits at pos into a nibble value (bit j of
// the result from pos[j]).
func extractNibble(s state, pos [4]int) byte {
	var x byte
	for j, p := range pos {
		x |= byte(s[uint(p)/64%2]>>(uint(p)%64)&1) << uint(j)
	}
	return x
}

// invRound inverts one key-free round of c (inverse permutation then
// inverse S-box); the caller removes AddRoundKey first.
func invRound(c *gift.Cipher, s state) state {
	var out state
	for i := uint(0); i < uint(8*c.BlockBytes()); i++ {
		j := uint(c.Perm(int(i)))
		out[i/64%2] |= (s[j/64%2] >> (j % 64) & 1) << (i % 64)
	}
	var sub state
	for n := uint(0); n < uint(2*c.BlockBytes()); n++ {
		sub[n/16%2] |= uint64(gift.InvSBox(byte(out[n/16%2]>>(4*(n%16))&0xf))) << (4 * (n % 16))
	}
	return sub
}
