package countermeasure

import (
	"context"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	_ "repro/internal/ciphers/aes"
	_ "repro/internal/ciphers/gift"
	"repro/internal/evaluate"
	"repro/internal/fault"
	"repro/internal/prng"
)

func newAES(t *testing.T, rng *prng.Source) ciphers.Cipher {
	t.Helper()
	key := make([]byte, 16)
	rng.Fill(key)
	c, err := ciphers.New("aes128", key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// buildOracle builds the protected oracle over c from an engine config,
// returning the engine's or the oracle's construction error.
func buildOracle(c ciphers.Cipher, round int, cfg evaluate.Config) (*Oracle, error) {
	e, err := evaluate.New(c, cfg)
	if err != nil {
		return nil, err
	}
	return NewOracle(e, round)
}

func newOracle(t *testing.T, seed uint64, round int, cfg evaluate.Config) *Oracle {
	t.Helper()
	rng := prng.New(seed)
	c := newAES(t, rng)
	cfg.Seed = rng.Split().Uint64()
	o, err := buildOracle(c, round, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestOracleStateBitsDoubled(t *testing.T) {
	o := newOracle(t, 4, 9, evaluate.Config{Samples: 64})
	if o.StateBits() != 256 {
		t.Errorf("StateBits = %d, want 256 (Table IV episode length)", o.StateBits())
	}
}

func TestOracleSameBitBothBranchesLeaks(t *testing.T) {
	o := newOracle(t, 5, 9, evaluate.Config{Samples: 1024})
	pattern := bitvec.FromBits(256, 76, 128+76) // bit 76 in both branches
	l, err := o.Evaluate(context.Background(), &pattern, fault.XorFlip)
	if err != nil {
		t.Fatal(err)
	}
	if l < o.Threshold() {
		t.Errorf("identical single-bit faults gave l = %.2f, want > %.1f", l, o.Threshold())
	}
	if o.LastMutedRate > 0.01 {
		t.Errorf("muted rate %.2f for identical deterministic faults", o.LastMutedRate)
	}
}

func TestOracleSingleBranchFaultMuted(t *testing.T) {
	o := newOracle(t, 6, 9, evaluate.Config{Samples: 1024})
	pattern := bitvec.FromBits(256, 76) // branch 1 only
	l, err := o.Evaluate(context.Background(), &pattern, fault.XorFlip)
	if err != nil {
		t.Fatal(err)
	}
	if l > o.Threshold() {
		t.Errorf("muted faults leaked l = %.2f", l)
	}
	if o.LastMutedRate < 0.99 {
		t.Errorf("muted rate %.2f, want ~1 for single-branch fault", o.LastMutedRate)
	}
}

func TestOracleMismatchedBitsMuted(t *testing.T) {
	o := newOracle(t, 7, 9, evaluate.Config{Samples: 1024})
	pattern := bitvec.FromBits(256, 76, 128+77) // different bit per branch
	l, err := o.Evaluate(context.Background(), &pattern, fault.XorFlip)
	if err != nil {
		t.Fatal(err)
	}
	if l > o.Threshold() {
		t.Errorf("mismatched faults leaked l = %.2f", l)
	}
}

func TestOracleWideSamePatternMostlyMuted(t *testing.T) {
	// The same full byte in both branches draws independent random
	// values, so the branches almost never match: the countermeasure
	// wins against imprecise multi-bit injections.
	o := newOracle(t, 8, 9, evaluate.Config{Samples: 1024})
	var bits []int
	for j := 0; j < 8; j++ {
		bits = append(bits, 72+j, 128+72+j)
	}
	pattern := bitvec.FromBits(256, bits...)
	l, err := o.Evaluate(context.Background(), &pattern, fault.XorFlip)
	if err != nil {
		t.Fatal(err)
	}
	if o.LastMutedRate < 0.95 {
		t.Errorf("muted rate %.2f, want ~1 for independent byte faults", o.LastMutedRate)
	}
	if l > o.Threshold() {
		t.Errorf("mostly-muted faults leaked l = %.2f", l)
	}
}

func TestSplitPattern(t *testing.T) {
	o := newOracle(t, 9, 9, evaluate.Config{Samples: 64})
	pattern := bitvec.FromBits(256, 3, 76, 128, 128+76, 255)
	b1, b2 := o.SplitPattern(&pattern)
	if got := b1.Bits(); len(got) != 2 || got[0] != 3 || got[1] != 76 {
		t.Errorf("branch 1 bits = %v", got)
	}
	if got := b2.Bits(); len(got) != 3 || got[0] != 0 || got[1] != 76 || got[2] != 127 {
		t.Errorf("branch 2 bits = %v", got)
	}
}

func TestOracleRejectsBadPatterns(t *testing.T) {
	o := newOracle(t, 10, 9, evaluate.Config{Samples: 64})
	short := bitvec.FromBits(128, 1)
	if _, err := o.Evaluate(context.Background(), &short, fault.XorFlip); err == nil {
		t.Error("accepted wrong-width pattern")
	}
	empty := bitvec.New(256)
	if _, err := o.Evaluate(context.Background(), &empty, fault.XorFlip); err == nil {
		t.Error("accepted empty pattern")
	}
}

func TestNewOracleValidatesRound(t *testing.T) {
	rng := prng.New(11)
	c := newAES(t, rng)
	if _, err := buildOracle(c, 0, evaluate.Config{Seed: rng.Split().Uint64()}); err == nil {
		t.Error("accepted round 0")
	}
	if _, err := buildOracle(c, 11, evaluate.Config{Seed: rng.Split().Uint64()}); err == nil {
		t.Error("accepted round 11 for AES")
	}
}

// TestNewOracleValidatesGroupBits pins that a ciphertext grouping other
// than 1, 2, 4 or 8 bits is rejected at construction rather than reaching
// the collect loops.
func TestNewOracleValidatesGroupBits(t *testing.T) {
	rng := prng.New(11)
	c := newAES(t, rng)
	for _, gb := range []int{-1, 3, 16} {
		if _, err := buildOracle(c, 9, evaluate.Config{GroupBits: gb, Seed: rng.Split().Uint64()}); err == nil {
			t.Errorf("accepted group size %d bits", gb)
		}
	}
	for _, gb := range []int{1, 2, 4, 8} {
		if _, err := buildOracle(c, 9, evaluate.Config{GroupBits: gb, Seed: rng.Split().Uint64()}); err != nil {
			t.Errorf("group size %d bits: %v", gb, err)
		}
	}
}

// TestNewOracleRejectsSIFA pins the Welch-only check: muting erases the
// effective/ineffective split the SIFA oracle conditions on.
func TestNewOracleRejectsSIFA(t *testing.T) {
	c := newAES(t, prng.New(11))
	if _, err := buildOracle(c, 9, evaluate.Config{Oracle: fault.OracleSIFA}); err == nil {
		t.Error("accepted the SIFA oracle")
	}
}

func TestOracleFlipAllModeWideFaultEvades(t *testing.T) {
	// With deterministic FlipAll faults, identical wide patterns DO
	// evade the countermeasure — the ablation contrast to
	// TestOracleWideSamePatternMostlyMuted.
	o := newOracle(t, 12, 9, evaluate.Config{Samples: 1024, Mode: fault.FlipAll})
	var bits []int
	for j := 0; j < 8; j++ {
		bits = append(bits, 72+j, 128+72+j)
	}
	pattern := bitvec.FromBits(256, bits...)
	l, err := o.Evaluate(context.Background(), &pattern, fault.XorFlip)
	if err != nil {
		t.Fatal(err)
	}
	if o.LastMutedRate > 0.01 {
		t.Errorf("muted rate %.2f for identical deterministic faults", o.LastMutedRate)
	}
	if l < o.Threshold() {
		t.Errorf("deterministic identical byte faults gave l = %.2f", l)
	}
}

func BenchmarkProtectedOracleEvaluate(b *testing.B) {
	rng := prng.New(13)
	key := make([]byte, 16)
	rng.Fill(key)
	c, _ := ciphers.New("aes128", key)
	o, err := buildOracle(c, 9, evaluate.Config{Samples: 512, Seed: rng.Split().Uint64()})
	if err != nil {
		b.Fatal(err)
	}
	pattern := bitvec.FromBits(256, 76, 128+76)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Evaluate(context.Background(), &pattern, fault.XorFlip); err != nil {
			b.Fatal(err)
		}
	}
}
