package gift

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/ciphers"
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

// Official test vectors from the GIFT reference implementation.
func TestGIFT64Vectors(t *testing.T) {
	cases := []struct{ key, pt, ct string }{
		{"00000000000000000000000000000000", "0000000000000000", "f62bc3ef34f775ac"},
		{"fedcba9876543210fedcba9876543210", "fedcba9876543210", "c1b71f66160ff587"},
	}
	for _, tc := range cases {
		c, err := New(GIFT64, unhex(t, tc.key))
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

func TestGIFT128Vector(t *testing.T) {
	c, err := New(GIFT128, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	c.Encrypt(got, make([]byte, 16), nil, nil)
	want := unhex(t, "cd0bd738388ad3f668b15a36ceb6ff92")
	if !bytes.Equal(got, want) {
		t.Errorf("gift128 zero vector = %x, want %x", got, want)
	}
}

func TestSBoxBijection(t *testing.T) {
	for v := range variants {
		p := &variants[v]
		seen := map[byte]bool{}
		for i := byte(0); i < 16; i++ {
			s := p.sbox[i]
			if s > 0xf {
				t.Fatalf("%s: S(%d) = %d exceeds nibble range", p.name, i, s)
			}
			if seen[s] {
				t.Fatalf("%s: S-box not a bijection at %d", p.name, i)
			}
			seen[s] = true
			if p.invSbox[s] != i {
				t.Fatalf("%s: inverse S-box of S(%d) = %d", p.name, i, p.invSbox[s])
			}
		}
	}
	// Spec spot checks: GS(0)=1, GS(f)=e, GS(7)=9; PRESENT's S(0)=c,
	// S(f)=2.
	if SBox(0) != 1 || SBox(0xf) != 0xe || SBox(7) != 9 || InvSBox(1) != 0 {
		t.Error("S-box values disagree with the GIFT specification")
	}
	if p := variants[PRESENT80].sbox; p[0] != 0xc || p[0xf] != 0x2 {
		t.Error("S-box endpoints disagree with the PRESENT specification")
	}
}

func TestPerm64KnownValues(t *testing.T) {
	// First entries of the published P64 table.
	c, _ := New(GIFT64, make([]byte, 16))
	want := map[int]int{0: 0, 1: 17, 2: 34, 3: 51, 4: 48, 5: 1, 12: 16, 16: 4, 17: 21, 19: 55, 51: 63, 63: 15}
	for i, p := range want {
		if got := c.Perm(i); got != p {
			t.Errorf("Perm(%d) = %d, want %d", i, got, p)
		}
	}
}

func TestPerm128KnownValues(t *testing.T) {
	c, _ := New(GIFT128, make([]byte, 16))
	want := map[int]int{0: 0, 1: 33, 2: 66, 3: 99, 4: 96, 5: 1, 8: 64, 16: 4, 127: 31}
	for i, p := range want {
		if got := c.Perm(i); got != p {
			t.Errorf("Perm(%d) = %d, want %d", i, got, p)
		}
	}
}

func TestPermPRESENTKnownValues(t *testing.T) {
	// P(i) = 16i mod 63 with P(63) = 63.
	want := map[int]int{0: 0, 1: 16, 2: 32, 3: 48, 4: 1, 62: 47, 63: 63}
	for i, p := range want {
		if got := int(perms[PRESENT80][i]); got != p {
			t.Errorf("PRESENT P(%d) = %d, want %d", i, got, p)
		}
	}
}

func TestPermutationsAreBijections(t *testing.T) {
	for v := range variants {
		n := 8 * variants[v].blockBytes
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			p := int(perms[v][i])
			if p >= n || seen[p] {
				t.Fatalf("%s permutation not a bijection at %d", variants[v].name, i)
			}
			seen[p] = true
		}
	}
}

func TestPermPreservesBitPositionInNibble(t *testing.T) {
	// GIFT's permutation sends bit 4n+j to some nibble's bit j; this is
	// the property that gives each S-box output bit a distinct role.
	for _, v := range []Variant{GIFT64, GIFT128} {
		c, _ := New(v, make([]byte, 16))
		for i := 0; i < 8*c.BlockBytes(); i++ {
			if c.Perm(i)%4 != i%4 {
				t.Errorf("%s: Perm(%d) = %d changes intra-nibble position", c.Name(), i, c.Perm(i))
			}
		}
	}
}

func TestRoundConstants(t *testing.T) {
	// First constants from the GIFT specification.
	want := []byte{0x01, 0x03, 0x07, 0x0f, 0x1f, 0x3e, 0x3d, 0x3b, 0x37, 0x2f, 0x1e, 0x3c}
	for i, w := range want {
		if got := roundConstant(i + 1); got != w {
			t.Errorf("roundConstant(%d) = %#02x, want %#02x", i+1, got, w)
		}
	}
}

// TestKeyMaskPlacement pins where AddRoundKey puts each key and constant
// bit: V bit i at state bit 4i+o and U bit i at 4i+o+1 (o = 0 for
// GIFT-64, 1 for GIFT-128, whose U and V bits 16..31 land in the high
// word), the constant bits at 4i+3 and the fixed 1 at the top bit.
func TestKeyMaskPlacement(t *testing.T) {
	for _, tc := range []struct {
		variant Variant
		u, v    uint32
		want    [2]uint64
	}{
		{GIFT64, 1, 0, [2]uint64{1 << 1, 0}},
		{GIFT64, 0, 1, [2]uint64{1 << 0, 0}},
		{GIFT64, 1 << 15, 1 << 15, [2]uint64{1<<61 | 1<<60, 0}},
		{GIFT128, 1, 0, [2]uint64{1 << 2, 0}},
		{GIFT128, 0, 1, [2]uint64{1 << 1, 0}},
		{GIFT128, 1 << 15, 1 << 15, [2]uint64{1<<62 | 1<<61, 0}},
		{GIFT128, 1 << 16, 1 << 16, [2]uint64{0, 1<<2 | 1<<1}},
		{GIFT128, 1 << 31, 1 << 31, [2]uint64{0, 1<<62 | 1<<61}},
	} {
		c, _ := New(tc.variant, make([]byte, 16))
		if got := c.KeyMask(tc.u, tc.v); got != tc.want {
			t.Errorf("%s: KeyMask(%#x, %#x) = %x, want %x", c.Name(), tc.u, tc.v, got, tc.want)
		}
	}
	// Round 1's constant 0x01 sets constant bit 0 (state bit 3); round
	// 6's 0x3e sets bits 1..5 (state bits 7, 11, ..., 23).
	for _, tc := range []struct {
		variant Variant
		round   int
		want    [2]uint64
	}{
		{GIFT64, 1, [2]uint64{1<<3 | 1<<63, 0}},
		{GIFT64, 6, [2]uint64{1<<7 | 1<<11 | 1<<15 | 1<<19 | 1<<23 | 1<<63, 0}},
		{GIFT128, 1, [2]uint64{1 << 3, 1 << 63}},
		{GIFT128, 6, [2]uint64{1<<7 | 1<<11 | 1<<15 | 1<<19 | 1<<23, 1 << 63}},
	} {
		c, _ := New(tc.variant, make([]byte, 16))
		if got := c.ConstMask(tc.round); got != tc.want {
			t.Errorf("%s: ConstMask(%d) = %x, want %x", c.Name(), tc.round, got, tc.want)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	src := prng.New(77)
	for _, v := range []Variant{GIFT64, GIFT128} {
		key := make([]byte, 16)
		for trial := 0; trial < 30; trial++ {
			src.Fill(key)
			c, err := New(v, key)
			if err != nil {
				t.Fatal(err)
			}
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
	if _, err := New(GIFT64, make([]byte, 8)); err == nil {
		t.Error("New accepted an 8-byte GIFT-64 key")
	}
	if _, err := New(GIFT128, make([]byte, 10)); err == nil {
		t.Error("New accepted a 10-byte GIFT-128 key")
	}
	for _, v := range []Variant{-1, 3, 9} {
		if _, err := New(v, make([]byte, 16)); err == nil {
			t.Errorf("New accepted unknown variant %d", v)
		}
	}
}

func TestTraceFaultSemantics(t *testing.T) {
	key := unhex(t, "fedcba9876543210fedcba9876543210")
	c, _ := New(GIFT64, key)
	pt := unhex(t, "0123456789abcdef")
	cleanTr := ciphers.NewTrace(c)
	faultTr := ciphers.NewTrace(c)
	out := make([]byte, 8)
	c.Encrypt(out, pt, nil, cleanTr)

	mask := make([]byte, 8)
	mask[4] = 0x0f // nibble 8 of the state (bits 32..35)
	c.Encrypt(out, pt, &ciphers.Fault{Round: 25, Mask: mask}, faultTr)

	for r := 1; r < 25; r++ {
		if !bytes.Equal(cleanTr.Inputs[r-1], faultTr.Inputs[r-1]) {
			t.Errorf("round %d input differs before injection", r)
		}
	}
	diff := make([]byte, 8)
	for i := range diff {
		diff[i] = cleanTr.Inputs[24][i] ^ faultTr.Inputs[24][i]
	}
	if !bytes.Equal(diff, mask) {
		t.Errorf("round-25 input differential = %x, want mask %x", diff, mask)
	}
}

func TestNibbleFaultDiffusion(t *testing.T) {
	// A single-nibble fault spreads to at most 4 nibbles one round later
	// (each S-box output bit goes to a distinct nibble) and keeps
	// spreading after that.
	key := make([]byte, 16)
	c, _ := New(GIFT64, key)
	pt := unhex(t, "00112233aabbccdd")
	cleanTr := ciphers.NewTrace(c)
	faultTr := ciphers.NewTrace(c)
	out := make([]byte, 8)
	c.Encrypt(out, pt, nil, cleanTr)

	mask := make([]byte, 8)
	mask[0] = 0x0f // nibble 0
	c.Encrypt(out, pt, &ciphers.Fault{Round: 25, Mask: mask}, faultTr)

	count := func(r int) int {
		n := 0
		for nib := 0; nib < 16; nib++ {
			a := cleanTr.Inputs[r-1][nib/2] >> (4 * uint(nib%2)) & 0xf
			b := faultTr.Inputs[r-1][nib/2] >> (4 * uint(nib%2)) & 0xf
			if a != b {
				n++
			}
		}
		return n
	}
	if n := count(26); n < 1 || n > 4 {
		t.Errorf("round-26 input has %d faulty nibbles, want 1..4", n)
	}
	if n26, n27 := count(26), count(27); n27 < n26 {
		t.Errorf("diffusion shrank: %d nibbles at r26, %d at r27", n26, n27)
	}
}

func TestRoundKeyWordsMatchEncryption(t *testing.T) {
	// Re-deriving the key schedule independently: encrypting with a key
	// whose round words are known must place key bits at the documented
	// state positions. We verify indirectly: flipping key bit k0[0]
	// (V word of round 1) must flip exactly state bit 0 after round 1's
	// AddRoundKey, which then diffuses.
	key := make([]byte, 16)
	c0, _ := New(GIFT64, key)
	key[15] ^= 0x01 // low bit of k0 in spec order
	c1, _ := New(GIFT64, key)
	u0, v0 := c0.RoundKeyWords(1)
	u1, v1 := c1.RoundKeyWords(1)
	if u0 != u1 {
		t.Error("U word of round 1 should not depend on k0 bit 0")
	}
	if v0^v1 != 1 {
		t.Errorf("V word of round 1 differs by %#x, want 1", v0^v1)
	}
}

func TestKeyScheduleProperty(t *testing.T) {
	f := func(keyArr [16]byte) bool {
		c, err := New(GIFT64, keyArr[:])
		if err != nil {
			return false
		}
		// GIFT-64 round keys for rounds 1 and 5: after four updates every
		// word has moved four slots, so round 5's (U,V) are round 1's
		// (k5,k4) — i.e. the words that were two slots above the
		// originals. Equivalent check: the key schedule is periodic with
		// period dividing 32 in the word-rotation part, so running the
		// expansion twice from the same key must agree.
		c2, _ := New(GIFT64, keyArr[:])
		for r := 1; r <= 28; r++ {
			u1, v1 := c.RoundKeyWords(r)
			u2, v2 := c2.RoundKeyWords(r)
			if u1 != u2 || v1 != v2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAvalanche(t *testing.T) {
	// Flipping one plaintext bit must change roughly half the ciphertext
	// bits on average: a sanity check that rules out endianness slips
	// that the official vectors might mask.
	src := prng.New(9)
	for _, name := range []string{"gift64", "gift128"} {
		info, err := ciphers.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		key := make([]byte, info.KeyBytes)
		src.Fill(key)
		c, _ := info.New(key)
		n := info.BlockBytes
		pt := make([]byte, n)
		ct0 := make([]byte, n)
		ct1 := make([]byte, n)
		total := 0
		const trials = 100
		for i := 0; i < trials; i++ {
			src.Fill(pt)
			c.Encrypt(ct0, pt, nil, nil)
			pt[src.Intn(n)] ^= 1 << uint(src.Intn(8))
			c.Encrypt(ct1, pt, nil, nil)
			for j := 0; j < n; j++ {
				total += popcount8(ct0[j] ^ ct1[j])
			}
		}
		avg := float64(total) / trials
		if avg < float64(8*n)*0.4 || avg > float64(8*n)*0.6 {
			t.Errorf("%s avalanche: avg %0.1f flipped bits of %d", name, avg, 8*n)
		}
	}
}

func popcount8(b byte) int {
	n := 0
	for b != 0 {
		n++
		b &= b - 1
	}
	return n
}

func TestRegistryIntegration(t *testing.T) {
	for _, name := range []string{"gift64", "gift128"} {
		c, err := ciphers.New(name, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name || c.GroupBits() != 4 {
			t.Errorf("%s: wrong registry metadata", name)
		}
	}
}

func BenchmarkEncryptGIFT64(b *testing.B) {
	c, _ := New(GIFT64, make([]byte, 16))
	pt := make([]byte, 8)
	ct := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		c.Encrypt(ct, pt, nil, nil)
	}
}

func BenchmarkEncryptGIFT128(b *testing.B) {
	c, _ := New(GIFT128, make([]byte, 16))
	pt := make([]byte, 16)
	ct := make([]byte, 16)
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Encrypt(ct, pt, nil, nil)
	}
}
