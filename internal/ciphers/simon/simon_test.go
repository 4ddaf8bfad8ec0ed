// Package simon holds the tests of the SIMON family. The cipher lives in
// package simonspeck beside SPECK; these tests drive it through
// simonspeck's exported API and the cipher registry.
package simon

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/ciphers/simonspeck"
	"repro/internal/prng"
)

// variants lists the SIMON members with their key lengths in bytes.
var variants = []struct {
	v      simonspeck.Variant
	keyLen int
}{{simonspeck.Simon64_128, 16}, {simonspeck.Simon32_64, 8}}

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
func TestSimon64_128Vector(t *testing.T) {
	c, err := simonspeck.New(simonspeck.Simon64_128, unhex(t, "1b1a1918131211100b0a090803020100"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	c.Encrypt(got, unhex(t, "656b696c20646e75"), nil, nil)
	if want := unhex(t, "44c8fc20b9dfa07a"); !bytes.Equal(got, want) {
		t.Errorf("ciphertext = %x, want %x", got, want)
	}
}

func TestSimon32_64Vector(t *testing.T) {
	c, err := simonspeck.New(simonspeck.Simon32_64, unhex(t, "1918111009080100"))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	c.Encrypt(got, unhex(t, "65656877"), nil, nil)
	if want := unhex(t, "c69be9bb"); !bytes.Equal(got, want) {
		t.Errorf("ciphertext = %x, want %x", got, want)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	src := prng.New(41)
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
	src := prng.New(42)
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

func TestFeistelSlowDiffusion(t *testing.T) {
	// A fault in the right (y) word does not touch the left word until
	// the next swap: one round later the differential is confined to
	// the x word. This Feistel property distinguishes SIMON from the
	// SPN ciphers in this repository.
	c, _ := simonspeck.New(simonspeck.Simon64_128, make([]byte, 16))
	pt := unhex(t, "00112233aabbccdd")
	cleanTr := ciphers.NewTrace(c)
	faultTr := ciphers.NewTrace(c)
	out := make([]byte, 8)
	c.Encrypt(out, pt, nil, cleanTr)
	mask := make([]byte, 8)
	mask[0] = 0x01 // bit 0 = bit 0 of y
	c.Encrypt(out, pt, &ciphers.Fault{Round: 20, Mask: mask}, faultTr)
	// Round-21 input: y fault moved to x (swap), with no other change.
	diff := make([]byte, 8)
	for i := range diff {
		diff[i] = cleanTr.Inputs[20][i] ^ faultTr.Inputs[20][i]
	}
	for i := 0; i < 4; i++ {
		if diff[i] != 0 {
			t.Errorf("y word corrupted one round after a y-only fault: %x", diff)
			break
		}
	}
	if diff[4] != 0x01 || diff[5] != 0 || diff[6] != 0 || diff[7] != 0 {
		t.Errorf("x word differential = %x, want the swapped single bit", diff[4:])
	}
}

func TestAvalanche(t *testing.T) {
	src := prng.New(43)
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
	c, err := ciphers.New("simon64", make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 44 || c.BlockBytes() != 8 {
		t.Error("simon64 registry metadata wrong")
	}
	c32, err := ciphers.New("simon32", make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	if c32.Rounds() != 32 || c32.BlockBytes() != 4 {
		t.Error("simon32 registry metadata wrong")
	}
}
