// Package coverage implements the defender-facing fault-coverage metric
// the paper motivates (footnote 1: "the percentage of faults for which we
// can obtain the exploitability status"): a systematic scan that samples
// the fault space of a cipher round by round, classifies each sampled
// pattern with the leakage oracle, and reports where the exploitable
// region lies. A designer uses this to decide which rounds a
// countermeasure must cover and to measure the fault coverage a given
// test campaign achieves.
package coverage

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/evaluate"
	"repro/internal/prng"
)

// Config tunes a coverage scan. Zero values select defaults.
type Config struct {
	// Rounds lists the injection rounds to scan; empty scans the last
	// Window rounds plus the two before them (where fault attacks
	// live).
	Rounds []int
	// ExhaustiveBits sweeps every single-bit fault when true (the
	// single-bit space is small enough to enumerate; default true).
	ExhaustiveBits bool
	// RandomPerSize is how many random patterns are sampled per
	// multi-bit size class (default 16).
	RandomPerSize int
	// Sizes lists the multi-bit size classes to sample (default
	// {2, 4, 8, 16, 32} capped at the state width).
	Sizes []int
	// Samples is the t-test budget per classification (default 512).
	Samples int
	// GroupSweep additionally classifies every aligned group fault
	// (each nibble or byte, at the cipher's native width; default true).
	GroupSweep bool
}

func (c *Config) setDefaults(cipher ciphers.Cipher) {
	if len(c.Rounds) == 0 {
		last := cipher.Rounds()
		for r := last - 4; r <= last; r++ {
			if r >= 1 {
				c.Rounds = append(c.Rounds, r)
			}
		}
		c.ExhaustiveBits = true
		c.GroupSweep = true
	}
	if c.RandomPerSize == 0 {
		c.RandomPerSize = 16
	}
	if len(c.Sizes) == 0 {
		for _, s := range []int{2, 4, 8, 16, 32} {
			if s <= 8*cipher.BlockBytes() {
				c.Sizes = append(c.Sizes, s)
			}
		}
	}
	if c.Samples == 0 {
		c.Samples = 512
	}
}

// SizeClassStats aggregates classifications for one pattern-size class.
type SizeClassStats struct {
	Bits        int
	Tested      int
	Exploitable int
}

// Rate returns the exploitable fraction (0 when nothing was tested).
func (s SizeClassStats) Rate() float64 {
	if s.Tested == 0 {
		return 0
	}
	return float64(s.Exploitable) / float64(s.Tested)
}

// RoundReport is the coverage result for one injection round.
type RoundReport struct {
	Round int
	// Bits holds the single-bit sweep; Groups the aligned nibble/byte
	// sweep; Random the random multi-bit samples by size class.
	Bits   SizeClassStats
	Groups SizeClassStats
	Random []SizeClassStats
	// ExploitableBits lists which single bits were exploitable (only
	// filled by the exhaustive sweep).
	ExploitableBits []int
}

// Tested returns the total number of classified patterns for the round.
func (r *RoundReport) Tested() int {
	n := r.Bits.Tested + r.Groups.Tested
	for _, s := range r.Random {
		n += s.Tested
	}
	return n
}

// Exploitable returns the total exploitable patterns for the round.
func (r *RoundReport) Exploitable() int {
	n := r.Bits.Exploitable + r.Groups.Exploitable
	for _, s := range r.Random {
		n += s.Exploitable
	}
	return n
}

// Report is a full coverage scan.
type Report struct {
	Cipher string
	Rounds []RoundReport
}

// Coverage returns the fraction of classified patterns over all rounds
// (every sampled pattern receives a definite verdict, so this equals 1 by
// construction; it is exposed for campaign-style accounting when callers
// merge partial scans).
func (rep *Report) Coverage() (tested, exploitable int) {
	for i := range rep.Rounds {
		tested += rep.Rounds[i].Tested()
		exploitable += rep.Rounds[i].Exploitable()
	}
	return tested, exploitable
}

// MostVulnerableRound returns the scanned round with the highest
// exploitable fraction (ties resolve to the later round, which is the
// cheaper attack target).
func (rep *Report) MostVulnerableRound() int {
	best, bestRate := 0, -1.0
	for i := range rep.Rounds {
		r := &rep.Rounds[i]
		if r.Tested() == 0 {
			continue
		}
		rate := float64(r.Exploitable()) / float64(r.Tested())
		if rate >= bestRate {
			bestRate = rate
			best = r.Round
		}
	}
	return best
}

// Scan classifies the sampled fault space of the keyed cipher.
func Scan(c ciphers.Cipher, cfg Config, rng *prng.Source) (*Report, error) {
	cfg.setDefaults(c)
	stateBits := 8 * c.BlockBytes()
	rep := &Report{Cipher: c.Name()}
	sort.Ints(cfg.Rounds)
	for _, round := range cfg.Rounds {
		if round < 1 || round > c.Rounds() {
			return nil, fmt.Errorf("coverage: round %d out of range 1..%d", round, c.Rounds())
		}
		assessor, err := evaluate.New(c, evaluate.Config{
			Samples:         cfg.Samples,
			StopAtThreshold: true,
			Seed:            rng.Split().Uint64(),
		})
		if err != nil {
			return nil, err
		}
		rr := RoundReport{Round: round}

		if cfg.ExhaustiveBits {
			for b := 0; b < stateBits; b++ {
				p := bitvec.FromBits(stateBits, b)
				res, err := assessor.Assess(context.Background(), &p, round)
				if err != nil {
					return nil, err
				}
				rr.Bits.Bits = 1
				rr.Bits.Tested++
				if res.Leaky {
					rr.Bits.Exploitable++
					rr.ExploitableBits = append(rr.ExploitableBits, b)
				}
			}
		}
		if cfg.GroupSweep {
			gb := c.GroupBits()
			rr.Groups.Bits = gb
			for g := 0; g < stateBits/gb; g++ {
				p := bitvec.New(stateBits)
				for j := 0; j < gb; j++ {
					p.Set(g*gb + j)
				}
				res, err := assessor.Assess(context.Background(), &p, round)
				if err != nil {
					return nil, err
				}
				rr.Groups.Tested++
				if res.Leaky {
					rr.Groups.Exploitable++
				}
			}
		}
		for _, size := range cfg.Sizes {
			st := SizeClassStats{Bits: size}
			for k := 0; k < cfg.RandomPerSize; k++ {
				p := randomPattern(stateBits, size, rng)
				res, err := assessor.Assess(context.Background(), &p, round)
				if err != nil {
					return nil, err
				}
				st.Tested++
				if res.Leaky {
					st.Exploitable++
				}
			}
			rr.Random = append(rr.Random, st)
		}
		rep.Rounds = append(rep.Rounds, rr)
	}
	return rep, nil
}

// randomPattern draws a uniformly random pattern with exactly size bits.
func randomPattern(stateBits, size int, rng *prng.Source) bitvec.Vector {
	if size > stateBits {
		size = stateBits
	}
	p := bitvec.New(stateBits)
	for p.Count() < size {
		p.Set(rng.Intn(stateBits))
	}
	return p
}
