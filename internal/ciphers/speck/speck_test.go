// Package speck holds the tests of the SPECK family. The cipher lives in
// package simonspeck beside SIMON; these tests drive it through
// simonspeck's exported API and the cipher registry.
package speck

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/ciphers/simonspeck"
	"repro/internal/prng"
)

// variants lists the SPECK members with their key lengths in bytes.
var variants = []struct {
	v      simonspeck.Variant
	keyLen int
}{{simonspeck.Speck64_128, 16}, {simonspeck.Speck32_64, 8}}

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// newRandom keys variant v with a keyLen-byte key drawn from src.
func newRandom(t *testing.T, v simonspeck.Variant, keyLen int, src *prng.Source) *simonspeck.Cipher {
	t.Helper()
	key := make([]byte, keyLen)
	src.Fill(key)
	c, err := simonspeck.New(v, key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Official test vectors from the SIMON and SPECK specification.
func TestSpeck64_128Vector(t *testing.T) {
	c, err := simonspeck.New(simonspeck.Speck64_128, unhex(t, "1b1a1918131211100b0a090803020100"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	c.Encrypt(got, unhex(t, "3b7265747475432d"), nil, nil)
	if want := unhex(t, "8c6fa548454e028b"); !bytes.Equal(got, want) {
		t.Errorf("ciphertext = %x, want %x", got, want)
	}
}

func TestSpeck32_64Vector(t *testing.T) {
	c, err := simonspeck.New(simonspeck.Speck32_64, unhex(t, "1918111009080100"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	c.Encrypt(got, unhex(t, "6574694c"), nil, nil)
	if want := unhex(t, "a86842f2"); !bytes.Equal(got, want) {
		t.Errorf("ciphertext = %x, want %x", got, want)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	src := prng.New(61)
	for _, p := range variants {
		for trial := 0; trial < 50; trial++ {
			c := newRandom(t, p.v, p.keyLen, src)
			pt := make([]byte, c.BlockBytes())
			ct := make([]byte, c.BlockBytes())
			got := make([]byte, c.BlockBytes())
			src.Fill(pt)
			c.Encrypt(ct, pt, nil, nil)
			c.Decrypt(got, ct)
			if !bytes.Equal(got, pt) {
				t.Fatalf("%s: decrypt(encrypt(pt)) != pt", c.Name())
			}
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	for _, p := range variants {
		for _, n := range []int{0, p.keyLen - 1, p.keyLen + 1} {
			if _, err := simonspeck.New(p.v, make([]byte, n)); err == nil {
				t.Errorf("variant %d accepted a %d-byte key", p.v, n)
			}
		}
	}
}

// TestFaultTraceSemantics checks the injection point: rounds before the
// faulted one are untouched, and the faulted round's recorded input is
// (clean AND And) XOR Mask.
func TestFaultTraceSemantics(t *testing.T) {
	src := prng.New(60)
	for _, p := range variants {
		c := newRandom(t, p.v, p.keyLen, src)
		bb := c.BlockBytes()
		round := c.Rounds() - 4
		pt := make([]byte, bb)
		src.Fill(pt)
		cleanTr := ciphers.NewTrace(c)
		c.Encrypt(make([]byte, bb), pt, nil, cleanTr)
		mask := make([]byte, bb)
		and := make([]byte, bb)
		src.Fill(mask)
		src.Fill(and)
		for _, f := range []ciphers.Fault{
			{Round: round, Mask: mask},
			{Round: round, Mask: mask, And: and},
		} {
			faultTr := ciphers.NewTrace(c)
			c.Encrypt(make([]byte, bb), pt, &f, faultTr)
			for r := 1; r < round; r++ {
				if !bytes.Equal(cleanTr.Inputs[r-1], faultTr.Inputs[r-1]) {
					t.Errorf("%s: round %d input differs before injection", c.Name(), r)
				}
			}
			want := make([]byte, bb)
			for i := range want {
				s := cleanTr.Inputs[round-1][i]
				if f.And != nil {
					s &= and[i]
				}
				want[i] = s ^ mask[i]
			}
			if got := faultTr.Inputs[round-1]; !bytes.Equal(got, want) {
				t.Errorf("%s: round-%d input = %x, want %x (and=%v)", c.Name(), round, got, want, f.And != nil)
			}
		}
	}
}

func TestCarryChainDiffusion(t *testing.T) {
	// ARX-specific: a low-bit fault in x propagates upward through the
	// modular addition's carry chain, so the one-round differential is
	// typically wider than one bit but confined to x-derived positions.
	c, _ := simonspeck.New(simonspeck.Speck64_128, make([]byte, 16))
	pt := unhex(t, "00112233aabbccdd")
	cleanTr := ciphers.NewTrace(c)
	faultTr := ciphers.NewTrace(c)
	out := make([]byte, 8)
	c.Encrypt(out, pt, nil, cleanTr)
	mask := make([]byte, 8)
	mask[4] = 0x01 // bit 32 = bit 0 of x
	c.Encrypt(out, pt, &ciphers.Fault{Round: 10, Mask: mask}, faultTr)
	diffBits := 0
	for i := 0; i < 8; i++ {
		b := cleanTr.Inputs[10][i] ^ faultTr.Inputs[10][i]
		for b != 0 {
			diffBits++
			b &= b - 1
		}
	}
	if diffBits < 2 {
		t.Errorf("one-round differential has %d bits; the carry chain and the y-XOR should spread a single x bit", diffBits)
	}
}

func TestAvalanche(t *testing.T) {
	src := prng.New(63)
	for _, p := range variants {
		c := newRandom(t, p.v, p.keyLen, src)
		bb := c.BlockBytes()
		pt := make([]byte, bb)
		ct0 := make([]byte, bb)
		ct1 := make([]byte, bb)
		total := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			src.Fill(pt)
			c.Encrypt(ct0, pt, nil, nil)
			pt[src.Intn(bb)] ^= 1 << uint(src.Intn(8))
			c.Encrypt(ct1, pt, nil, nil)
			for j := range ct0 {
				b := ct0[j] ^ ct1[j]
				for b != 0 {
					total++
					b &= b - 1
				}
			}
		}
		avg := float64(total) / trials
		if bits := float64(8 * bb); avg < bits*0.4 || avg > bits*0.6 {
			t.Errorf("%s avalanche: avg %.1f flipped bits of %v", c.Name(), avg, bits)
		}
	}
}

func TestRegistryIntegration(t *testing.T) {
	c, err := ciphers.New("speck64", make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 27 || c.BlockBytes() != 8 || c.GroupBits() != 8 {
		t.Error("speck64 registry metadata wrong")
	}
	if _, err := ciphers.New("speck32", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
}
