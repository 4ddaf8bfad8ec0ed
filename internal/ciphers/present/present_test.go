// Package present holds the tests of PRESENT-80. The cipher lives in
// package gift beside GIFT-64 and GIFT-128; these tests drive it through
// gift's exported API and the cipher registry.
package present

import (
	"bytes"
	"encoding/hex"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/ciphers/gift"
	"repro/internal/prng"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// Official test vectors from the PRESENT paper (CHES 2007, Appendix).
func TestPresentVectors(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		{"00000000000000000000", "0000000000000000", "5579c1387b228445"},
		{"ffffffffffffffffffff", "0000000000000000", "e72c46c0f5945049"},
		{"00000000000000000000", "ffffffffffffffff", "a112ffc72f68417b"},
		{"ffffffffffffffffffff", "ffffffffffffffff", "3333dcd3213210d2"},
	}
	for _, tc := range cases {
		c, err := gift.New(gift.PRESENT80, unhex(t, tc.key))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 8)
		c.Encrypt(got, unhex(t, tc.pt), nil, nil)
		if want := unhex(t, tc.ct); !bytes.Equal(got, want) {
			t.Errorf("key %s pt %s: ct = %x, want %x", tc.key, tc.pt, got, want)
		}
	}
}

// sbox is PRESENT's S-box as the specification tabulates it.
var sbox = [16]byte{0xc, 0x5, 0x6, 0xb, 0x9, 0x0, 0xa, 0xd, 0x3, 0xe, 0xf, 0x8, 0x4, 0x7, 0x1, 0x2}

// nibble returns nibble i of a state in repository bit order.
func nibble(s []byte, i int) byte { return s[i/2] >> (4 * uint(i%2)) & 0xf }

// TestSBoxBijection reads the S-box off the scalar path: a fault that
// clears round 1's input and XORs in a state with every nibble x makes
// the trace's post-S-box snapshot S(x) in every nibble. The table read
// must be the specification's and a bijection, and Decrypt must invert
// it on all 16 values.
func TestSBoxBijection(t *testing.T) {
	c, err := gift.New(gift.PRESENT80, make([]byte, 10))
	if err != nil {
		t.Fatal(err)
	}
	tr := ciphers.NewTrace(c)
	out := make([]byte, 8)
	seen := map[byte]bool{}
	for x := byte(0); x < 16; x++ {
		in := bytes.Repeat([]byte{x<<4 | x}, 8)
		c.Encrypt(out, make([]byte, 8), &ciphers.Fault{Round: 1, Mask: in, And: make([]byte, 8)}, tr)
		s := nibble(tr.PostSub[0], 0)
		for i := 1; i < 16; i++ {
			if got := nibble(tr.PostSub[0], i); got != s {
				t.Fatalf("S(%#x) is %#x in nibble %d but %#x in nibble 0", x, got, i, s)
			}
		}
		if s != sbox[x] {
			t.Fatalf("S(%#x) = %#x, want %#x", x, s, sbox[x])
		}
		if seen[s] {
			t.Fatalf("S-box not a bijection at %#x", x)
		}
		seen[s] = true
	}
	// With the all-zero key K_1 is zero, so plaintext nibbles enter round
	// 1's S-box unchanged and Decrypt's last S-box layer inverts S(x).
	got := make([]byte, 8)
	for x := byte(0); x < 16; x++ {
		pt := bytes.Repeat([]byte{x<<4 | x}, 8)
		c.Encrypt(out, pt, nil, nil)
		c.Decrypt(got, out)
		if !bytes.Equal(got, pt) {
			t.Fatalf("Decrypt does not invert the S-box at %#x: %x, want %x", x, got, pt)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	src := prng.New(55)
	key := make([]byte, 10)
	pt := make([]byte, 8)
	ct := make([]byte, 8)
	got := make([]byte, 8)
	for trial := 0; trial < 50; trial++ {
		src.Fill(key)
		src.Fill(pt)
		c, err := gift.New(gift.PRESENT80, key)
		if err != nil {
			t.Fatal(err)
		}
		c.Encrypt(ct, pt, nil, nil)
		c.Decrypt(got, ct)
		if !bytes.Equal(got, pt) {
			t.Fatalf("decrypt(encrypt(pt)) != pt for key %x", key)
		}
	}
}

func TestNewRejectsBadKeyLength(t *testing.T) {
	for _, n := range []int{0, 8, 16} {
		if _, err := gift.New(gift.PRESENT80, make([]byte, n)); err == nil {
			t.Errorf("New accepted %d-byte key", n)
		}
	}
}

func TestFaultTraceSemantics(t *testing.T) {
	c, _ := gift.New(gift.PRESENT80, unhex(t, "00000000000000000000"))
	pt := unhex(t, "0123456789abcdef")
	cleanTr := ciphers.NewTrace(c)
	faultTr := ciphers.NewTrace(c)
	out := make([]byte, 8)
	c.Encrypt(out, pt, nil, cleanTr)

	mask := make([]byte, 8)
	mask[3] = 0xf0 // nibble 7
	c.Encrypt(out, pt, &ciphers.Fault{Round: 29, Mask: mask}, faultTr)
	for r := 1; r < 29; r++ {
		if !bytes.Equal(cleanTr.Inputs[r-1], faultTr.Inputs[r-1]) {
			t.Errorf("round %d input differs before injection", r)
		}
	}
	diff := make([]byte, 8)
	for i := range diff {
		diff[i] = cleanTr.Inputs[28][i] ^ faultTr.Inputs[28][i]
	}
	if !bytes.Equal(diff, mask) {
		t.Errorf("round-29 input differential = %x, want mask %x", diff, mask)
	}
}

func TestRegistryIntegration(t *testing.T) {
	c, err := ciphers.New("present80", make([]byte, 10))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 31 || c.GroupBits() != 4 || c.BlockBytes() != 8 {
		t.Error("wrong registry metadata for present80")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	c, _ := gift.New(gift.PRESENT80, make([]byte, 10))
	pt := make([]byte, 8)
	ct := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		c.Encrypt(ct, pt, nil, nil)
	}
}
