// Typed fault models: the injection-function zoo layered on top of the
// generalized (AND, XOR) injection op of internal/ciphers.
//
// Every per-bit fault function is expressible as bit' = (bit AND a) XOR x:
// (a, x) = (1, 0) is the identity, (1, 1) a flip, (0, 0) stuck-at-0 and
// (0, 1) stuck-at-1. A Model fixes how the (a, x) pair is derived from the
// campaign's bit pattern — deterministically for stuck-at faults, with
// fresh per-trace randomness for the biased and random-value models — and
// an Injector performs the per-trace draw without allocating.
package fault

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/prng"
)

// Model is a typed fault model: the function family applied to the bits
// selected by the campaign pattern at the injection round.
type Model int

const (
	// XorFlip flips pattern bits, the paper's model and the historical
	// behavior of this engine: the drawn XOR mask is a random non-zero
	// sub-mask of the pattern (Mode RandomMask) or the pattern itself
	// (Mode FlipAll). XorFlip is the only model the Mode knob affects.
	XorFlip Model = iota
	// StuckAtZero forces every pattern bit to 0 (AND with the pattern's
	// complement). Deterministic: no per-trace randomness.
	StuckAtZero
	// StuckAtOne forces every pattern bit to 1 (AND out, then XOR back
	// in). Deterministic: no per-trace randomness.
	StuckAtOne
	// BiasedAnd ANDs each pattern bit with an independent fair coin: a
	// bit is forced to 0 with probability 1/2 and left alone otherwise.
	// The fault can be ineffective on traces whose selected bits are
	// already 0 — the state-dependent bias that SIFA exploits.
	BiasedAnd
	// RandomByte replaces every byte containing a pattern bit with a
	// uniformly random byte (the pattern is widened to byte granularity).
	RandomByte
	// RandomNibble replaces every nibble containing a pattern bit with a
	// uniformly random nibble.
	RandomNibble
)

// numModels bounds the enum for validation and parsing.
const numModels = int(RandomNibble) + 1

// Models returns every fault model, in enum order. Callers use it for
// sweeps and equivalence tests.
func Models() []Model {
	return []Model{XorFlip, StuckAtZero, StuckAtOne, BiasedAnd, RandomByte, RandomNibble}
}

// String implements fmt.Stringer; the names are the -fault-type CLI
// vocabulary.
func (m Model) String() string {
	switch m {
	case XorFlip:
		return "xor"
	case StuckAtZero:
		return "stuck-at-0"
	case StuckAtOne:
		return "stuck-at-1"
	case BiasedAnd:
		return "biased-and"
	case RandomByte:
		return "random-byte"
	case RandomNibble:
		return "random-nibble"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// ParseModel parses a fault-model name as used by the -fault-type flags.
func ParseModel(s string) (Model, error) {
	for _, m := range Models() {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown fault model %q (have xor, stuck-at-0, stuck-at-1, biased-and, random-byte, random-nibble)", s)
}

// OracleKind selects the statistical oracle a campaign's traces feed.
type OracleKind int

const (
	// OracleWelch is the paper's oracle: Welch's t-test of the grouped
	// (clean XOR faulty) differential against a uniform reference.
	OracleWelch OracleKind = iota
	// OracleSIFA is the ineffective-fault oracle: it conditions on traces
	// where the fault did not change the ciphertext and t-tests the
	// grouped clean state values of that sub-distribution against
	// uniform. Only meaningful for models that can be ineffective
	// (BiasedAnd, RandomByte, RandomNibble); XorFlip faults are never
	// ineffective, so the sub-distribution is empty and t is 0.
	OracleSIFA
)

// String implements fmt.Stringer; the names are the -oracle CLI
// vocabulary.
func (o OracleKind) String() string {
	switch o {
	case OracleWelch:
		return "welch"
	case OracleSIFA:
		return "sifa"
	default:
		return fmt.Sprintf("OracleKind(%d)", int(o))
	}
}

// ParseOracle parses an oracle name as used by the -oracle flags.
func ParseOracle(s string) (OracleKind, error) {
	switch s {
	case "welch":
		return OracleWelch, nil
	case "sifa":
		return OracleSIFA, nil
	}
	return 0, fmt.Errorf("fault: unknown oracle %q (have welch, sifa)", s)
}

// Injector draws per-trace (XOR, AND) injection pairs for one
// (pattern, model, mode) triple. Constant halves are precomputed once; the
// per-trace Draw only consumes PRNG words for the randomized models, and
// for XorFlip it consumes exactly the words the pre-model engine drew, so
// XorFlip campaigns are bit-identical to the historical XOR-mask path.
type Injector struct {
	model Model
	mode  Mode
	// pattern is the raw campaign pattern; eff is the effective bit set
	// after group widening (== pattern except for RandomByte/Nibble).
	pattern, eff bitvec.Vector
	// xorConst/andConst hold the constant halves (nil = that half is
	// inactive or per-trace random); for the value-replacement models
	// andConst is ^eff.
	xorConst, andConst []byte
	// words holds the little-endian 64-bit words of the bits a random
	// model draws from (eff for the value-replacement models, pattern
	// otherwise), nw of them spanning the state's bb bytes.
	words  [maxWords]uint64
	nw, bb int
}

// maxWords is the most 64-bit words a state of bitvec.MaxBits bits has.
const maxWords = bitvec.MaxBits / 64

// NewInjector precomputes the injector for a pattern of width 8*blockBytes.
func NewInjector(pattern bitvec.Vector, model Model, mode Mode) *Injector {
	in := &Injector{model: model, mode: mode, pattern: pattern, eff: pattern}
	bb := (pattern.Len() + 7) / 8
	pb := pattern.Bytes()
	inv := func(p []byte) []byte {
		out := make([]byte, bb)
		for i := range out {
			out[i] = ^p[i]
		}
		return out
	}
	switch model {
	case StuckAtZero:
		in.andConst = inv(pb)
	case StuckAtOne:
		in.andConst = inv(pb)
		in.xorConst = pb
	case RandomByte, RandomNibble:
		eff := make([]byte, bb)
		for i, b := range pb {
			if model == RandomByte {
				if b != 0 {
					eff[i] = 0xff
				}
				continue
			}
			if b&0x0f != 0 {
				eff[i] |= 0x0f
			}
			if b&0xf0 != 0 {
				eff[i] |= 0xf0
			}
		}
		in.eff = bitvec.FromBytes(eff)
		in.andConst = inv(eff)
	}
	in.bb, in.nw = bb, (bb+7)/8
	var src [8 * maxWords]byte
	in.eff.PutBytes(src[:])
	for i := range in.words[:in.nw] {
		in.words[i] = binary.LittleEndian.Uint64(src[8*i:])
	}
	return in
}

// HasXor reports whether the model's injection uses the XOR half (the
// campaign must allocate and pass an XOR mask buffer).
func (in *Injector) HasXor() bool {
	switch in.model {
	case XorFlip, StuckAtOne, RandomByte, RandomNibble:
		return true
	}
	return false
}

// HasAnd reports whether the model's injection uses the AND half.
func (in *Injector) HasAnd() bool {
	return in.model != XorFlip
}

// Effective returns the effective bit set of the model: the pattern, or
// its widening to byte/nibble groups for the value-replacement models.
func (in *Injector) Effective() bitvec.Vector { return in.eff }

// Draw fills the active halves of one trace's injection pair. xor and and
// must be blockBytes-long when the corresponding Has half reports true and
// are ignored otherwise.
//
// The random models draw a word at a time: each nonzero word of the bits
// they draw from is ANDed with one rng.Uint64(), in word order, which
// keeps each bit with probability 1/2. XorFlip's RandomMask mode redraws
// until the mask is nonzero; the others keep an empty draw, whose
// ineffective traces are what SIFA conditions on.
func (in *Injector) Draw(xor, and []byte, rng *prng.Source) {
	switch in.model {
	case XorFlip:
		if in.mode == FlipAll {
			in.pattern.PutBytes(xor)
			return
		}
		var m [maxWords]uint64
		for in.subset(&m, rng) == 0 {
			if in.pattern.IsZero() {
				panic("fault: random mask of an empty pattern")
			}
		}
		in.put(xor, &m)
	case StuckAtZero:
		copy(and, in.andConst)
	case StuckAtOne:
		copy(and, in.andConst)
		copy(xor, in.xorConst)
	case BiasedAnd:
		// Keep each pattern bit with probability 1/2; kept bits stay
		// transparent (AND 1), dropped bits are forced to 0.
		var m [maxWords]uint64
		in.subset(&m, rng)
		for i, w := range in.words[:in.nw] {
			m[i] |= ^w
		}
		in.put(and, &m)
	case RandomByte, RandomNibble:
		copy(and, in.andConst)
		var m [maxWords]uint64
		in.subset(&m, rng)
		in.put(xor, &m)
	default:
		panic(fmt.Sprintf("fault: Draw on invalid model %d", int(in.model)))
	}
}

// subset sets m to the injector's words with each nonzero one ANDed with
// one rng.Uint64(), in word order: a uniformly random sub-mask. It
// returns the OR of m's words, zero for an empty draw.
func (in *Injector) subset(m *[maxWords]uint64, rng *prng.Source) (or uint64) {
	for i, w := range in.words[:in.nw] {
		if w != 0 {
			m[i] = w & rng.Uint64()
			or |= m[i]
		}
	}
	return or
}

// put stores the first bb bytes of m into dst, little-endian, a whole
// word at a time and the bytes of a partial last word one at a time.
func (in *Injector) put(dst []byte, m *[maxWords]uint64) {
	dst = dst[:in.bb]
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], m[i/8])
	}
	for ; i < len(dst); i++ {
		dst[i] = byte(m[i/8] >> (8 * (i % 8)))
	}
}
