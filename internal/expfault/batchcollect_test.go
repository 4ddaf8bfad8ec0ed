package expfault

import (
	"reflect"
	"testing"

	"repro/internal/ciphers/gift"
	"repro/internal/fault"
	"repro/internal/prng"
)

// TestGIFTDFABatchMatchesScalar runs the full GIFT-64 attack with and
// without the batched collection paths from identical seeds and demands
// byte-identical results — the batched template and online collection
// must reproduce the scalar PRNG stream and trace bytes exactly, across
// XOR and stuck-at (AND-lane) fault models.
func TestGIFTDFABatchMatchesScalar(t *testing.T) {
	key := make([]byte, 16)
	prng.New(41).Fill(key)
	c, err := gift.New(gift.GIFT64, key)
	if err != nil {
		t.Fatal(err)
	}
	pattern := nibblePattern(8, 9, 10, 11, 12, 14)
	for _, model := range []fault.Model{fault.XorFlip, fault.StuckAtZero, fault.RandomNibble} {
		cfg := GIFTDFAConfig{Pairs: 96, TemplateSamples: 512, Model: model}
		batched, err := GIFTDFA(c, &pattern, cfg, prng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		cfg.NoBatch = true
		scalar, err := GIFTDFA(c, &pattern, cfg, prng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched, scalar) {
			t.Errorf("model %v: batched result %+v differs from scalar %+v", model, batched, scalar)
		}
	}
}

// TestGIFT128DFABatchMatchesScalar is the 128-bit variant of the
// batch-vs-scalar identity check.
func TestGIFT128DFABatchMatchesScalar(t *testing.T) {
	key := make([]byte, 16)
	prng.New(43).Fill(key)
	c, err := gift.New(gift.GIFT128, key)
	if err != nil {
		t.Fatal(err)
	}
	pattern := nibblePattern128(5)
	for _, model := range []fault.Model{fault.XorFlip, fault.StuckAtOne} {
		cfg := GIFTDFAConfig{Pairs: 96, TemplateSamples: 512, Model: model}
		batched, err := GIFTDFA(c, &pattern, cfg, prng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		cfg.NoBatch = true
		scalar, err := GIFTDFA(c, &pattern, cfg, prng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched, scalar) {
			t.Errorf("model %v: batched result %+v differs from scalar %+v", model, batched, scalar)
		}
	}
}
