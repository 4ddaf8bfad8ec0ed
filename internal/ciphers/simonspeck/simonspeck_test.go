package simonspeck

import (
	"testing"

	"repro/internal/prng"
)

// The family tests (vectors, round trip, fault semantics, diffusion,
// avalanche and the batch kernel against the scalar path) are in the
// test-only packages internal/ciphers/simon and internal/ciphers/speck.
// This file checks the unexported rounds and New's variant check, which
// belong to neither family.

var allVariants = []Variant{Simon64_128, Simon32_64, Speck64_128, Speck32_64}

// keyBytes is the key length of variant v.
func keyBytes(v Variant) int { return keyWords * int(variants[v].wordBits) / 8 }

// TestInvRound checks each family's inverse round directly on random
// words of the variant's width.
func TestInvRound(t *testing.T) {
	src := prng.New(62)
	for _, v := range allVariants {
		key := make([]byte, keyBytes(v))
		src.Fill(key)
		c, err := New(v, key)
		if err != nil {
			t.Fatal(err)
		}
		m := c.mask()
		for trial := 0; trial < 200; trial++ {
			x, y, k := src.Uint32()&m, src.Uint32()&m, src.Uint32()&m
			fx, fy := c.round(x, y, k)
			if gx, gy := c.invRound(fx, fy, k); gx != x || gy != y {
				t.Fatalf("%s: round inversion failed for %08x %08x", c.Name(), x, y)
			}
		}
	}
}

func TestNewRejectsUnknownVariant(t *testing.T) {
	for _, v := range []Variant{-1, Variant(len(variants))} {
		if _, err := New(v, make([]byte, 16)); err == nil {
			t.Errorf("New accepted unknown variant %d", v)
		}
	}
}

func BenchmarkEncrypt(b *testing.B) {
	for _, v := range allVariants {
		c, _ := New(v, make([]byte, keyBytes(v)))
		b.Run(c.Name(), func(b *testing.B) {
			pt := make([]byte, c.BlockBytes())
			ct := make([]byte, c.BlockBytes())
			b.SetBytes(int64(c.BlockBytes()))
			for i := 0; i < b.N; i++ {
				c.Encrypt(ct, pt, nil, nil)
			}
		})
	}
}
