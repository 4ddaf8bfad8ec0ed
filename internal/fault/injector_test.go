package fault

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/prng"
)

// TestInjectorMaskStaysInPattern requires every random XorFlip mask to be
// nonzero and to stay inside its pattern, on a 128-bit pattern with bits
// in both words.
func TestInjectorMaskStaysInPattern(t *testing.T) {
	rng := prng.New(99)
	pattern := bitvec.FromBits(128, 3, 17, 76, 77, 120)
	in := NewInjector(pattern, XorFlip, RandomMask)
	xor := make([]byte, 16)
	for i := 0; i < 500; i++ {
		in.Draw(xor, nil, rng)
		m := bitvec.FromBytes(xor)
		if m.IsZero() {
			t.Fatal("Draw returned a zero mask")
		}
		if !m.SubsetOf(&pattern) {
			t.Fatalf("mask %v escapes pattern %v", m.String(), pattern.String())
		}
	}
}

// TestInjectorMaskCoversAllSubsets requires the random XorFlip masks of a
// 2-bit pattern to reach all three nonzero subsets.
func TestInjectorMaskCoversAllSubsets(t *testing.T) {
	rng := prng.New(5)
	in := NewInjector(bitvec.FromBits(64, 0, 1), XorFlip, RandomMask)
	xor := make([]byte, 8)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		in.Draw(xor, nil, rng)
		seen[string(xor)] = true
	}
	if len(seen) != 3 { // {0}, {1}, {0,1}
		t.Errorf("expected 3 distinct nonzero masks, saw %d", len(seen))
	}
}

// TestInjectorPanicsOnEmptyPattern requires a random XorFlip draw from an
// empty pattern to panic rather than redraw forever.
func TestInjectorPanicsOnEmptyPattern(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Draw of an empty pattern did not panic")
		}
	}()
	NewInjector(bitvec.New(64), XorFlip, RandomMask).Draw(make([]byte, 8), nil, prng.New(1))
}

// TestPooledKernelFollowsCipher alternates collections of two GIFT-64
// ciphers with different keys, and flips NoBatch, through one set of
// collect buffers, and requires each collection to equal the same one on
// fresh buffers: a reused fork kernel must never run another cipher's key
// schedule, and NoBatch must still select the scalar path.
func TestPooledKernelFollowsCipher(t *testing.T) {
	gift := func(key byte) ciphers.Cipher {
		c, err := ciphers.New("gift64", bytes.Repeat([]byte{key}, 16))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := gift(1), gift(2)
	campaign := func(c ciphers.Cipher, noBatch bool) *Campaign {
		cp := &Campaign{Cipher: c, Pattern: bitvec.FromBits(64, 0, 5, 9), Round: 25, Samples: 300, NoBatch: noBatch}
		if err := cp.Validate(); err != nil {
			t.Fatal(err)
		}
		return cp
	}
	collect := func(cp *Campaign, buf *collectBuffers) []byte {
		var out []byte
		err := cp.forEachBlock(context.Background(), prng.New(7), cp.Samples, buf, func(_, _, rows int, states []byte, stride int) {
			for r := 0; r < rows; r++ {
				out = append(out, states[r*stride:r*stride+8]...)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	fresh := func(cp *Campaign) *collectBuffers { return collectPool(cp).New().(*collectBuffers) }
	shared := fresh(campaign(a, false))
	first := map[ciphers.Cipher][]byte{}
	for i, step := range []struct {
		c       ciphers.Cipher
		noBatch bool
	}{{a, false}, {b, false}, {a, false}, {a, true}, {b, true}, {b, false}, {a, false}} {
		cp := campaign(step.c, step.noBatch)
		want := collect(cp, fresh(cp))
		if got := collect(cp, shared); !bytes.Equal(got, want) {
			t.Fatalf("collection %d (noBatch %v) on reused buffers differs from fresh buffers", i, step.noBatch)
		}
		if (shared.kern == nil) != step.noBatch {
			t.Fatalf("collection %d: kernel %v with NoBatch %v", i, shared.kern, step.noBatch)
		}
		if first[step.c] == nil {
			first[step.c] = want
		}
	}
	if bytes.Equal(first[a], first[b]) {
		t.Fatal("the two keys gave the same collection, so the test cannot tell their kernels apart")
	}
}

// BenchmarkInjectorDraw times one random XorFlip draw on an 8-bit GIFT-64
// pattern.
func BenchmarkInjectorDraw(b *testing.B) {
	rng := prng.New(1)
	in := NewInjector(bitvec.FromBits(64, 16, 17, 18, 19, 60, 61, 62, 63), XorFlip, RandomMask)
	xor := make([]byte, 8)
	for i := 0; i < b.N; i++ {
		in.Draw(xor, nil, rng)
	}
}
