// Package gift implements the bit-permutation SPN ciphers at trace level:
// GIFT-64 (28 rounds) and GIFT-128 (40 rounds), both with a 128-bit key
// (Banik et al., CHES 2017), and PRESENT-80 (31 rounds, 80-bit key;
// Bogdanov et al., CHES 2007), the cipher GIFT was designed to refine.
//
// # State layout
//
// The specifications number state bits b_{n-1}...b_0 with b_{n-1} the
// most significant bit of the first plaintext byte. Internally the state is
// a uint64 pair/single with spec bit i at machine bit i; the repository
// bit-numbering (bit i = bit i%8 of byte i/8) therefore matches the spec's
// bit indices directly, and nibble i of the spec occupies state bits
// 4i..4i+3. Plaintext and ciphertext cross the API boundary in the spec's
// big-endian byte order.
//
// # Round structure
//
// Each round is SubCells (the 4-bit S-box on every nibble), PermBits (the
// bit permutation), and AddRoundKey: for GIFT the round-key bits, the
// round constant, and the fixed 1 bit. PRESENT XORs round key K_r before
// round r's S-box layer and a whitening key K_32 after the last round.
// That is the same cipher as K_1 XORed into the plaintext followed by
// GIFT's round order with K_{r+1} ending round r, which is how it runs
// here; the input of round r, where faults inject and traces capture, is
// the same state in both. So the variants differ only in data (S-box,
// permutation, round-key masks, whitening key) and in the bitsliced
// S-box circuit. The paper injects faults at the input of round 25 of
// GIFT-64 and observes the post-S-box state of round 27 onwards; both
// hooks are provided via the ciphers.Trace mechanism.
package gift

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/ciphers"
)

// Variant selects a cipher of the package.
type Variant int

const (
	// GIFT64 is the 64-bit-block, 28-round GIFT variant.
	GIFT64 Variant = iota
	// GIFT128 is the 128-bit-block, 40-round GIFT variant.
	GIFT128
	// PRESENT80 is PRESENT with an 80-bit key: 64-bit block, 31 rounds.
	PRESENT80
)

// giftSbox is the GIFT S-box GS; presentSbox is PRESENT's S.
var (
	giftSbox    = [16]byte{0x1, 0xa, 0x4, 0xc, 0x6, 0xf, 0x3, 0x9, 0x2, 0xd, 0xb, 0x7, 0x5, 0x0, 0x8, 0xe}
	presentSbox = [16]byte{0xc, 0x5, 0x6, 0xb, 0x9, 0x0, 0xa, 0xd, 0x3, 0xe, 0xf, 0x8, 0x4, 0x7, 0x1, 0x2}
)

// variants holds each cipher's parameters. New, Name, BlockBytes and the
// registry entries all read them from here; init fills in invSbox.
var variants = [...]struct {
	name       string
	blockBytes int
	keyBytes   int
	rounds     int
	sbox       [16]byte
	invSbox    [16]byte
}{
	GIFT64:    {name: "gift64", blockBytes: 8, keyBytes: 16, rounds: 28, sbox: giftSbox},
	GIFT128:   {name: "gift128", blockBytes: 16, keyBytes: 16, rounds: 40, sbox: giftSbox},
	PRESENT80: {name: "present80", blockBytes: 8, keyBytes: 10, rounds: 31, sbox: presentSbox},
}

// perms[v] is variant v's bit permutation: PermBits moves bit i to
// perms[v][i]. Every row has maxLanes entries, so the bitsliced kernel's
// masked lane indexes carry no bounds checks.
var perms [len(variants)][maxLanes]uint8

func init() {
	for v := range variants {
		p := &variants[v]
		for i, x := range p.sbox {
			p.invSbox[x] = byte(i)
		}
	}
	for i := 0; i < 64; i++ {
		perms[GIFT64][i] = uint8(4*(i/16) + 16*((3*((i%16)/4)+i%4)%4) + i%4)
		perms[PRESENT80][i] = uint8(16 * i % 63)
	}
	perms[PRESENT80][63] = 63
	for i := 0; i < 128; i++ {
		perms[GIFT128][i] = uint8(4*(i/16) + 32*((3*((i%16)/4)+i%4)%4) + i%4)
	}
}

// SBox returns the GIFT S-box value of a 4-bit input.
func SBox(x byte) byte { return variants[GIFT64].sbox[x&0xf] }

// InvSBox returns the inverse GIFT S-box value of a 4-bit input.
func InvSBox(x byte) byte { return variants[GIFT64].invSbox[x&0xf] }

// roundConstants holds the 6-bit LFSR constants for up to 48 rounds.
var roundConstants = func() [48]byte {
	var rc [48]byte
	c := byte(0)
	for i := range rc {
		// c <- (c4 c3 c2 c1 c0 || c5 XOR c4 XOR 1)
		c = (c<<1)&0x3f | (c>>5^c>>4^1)&1
		rc[i] = c
	}
	return rc
}()

// roundConstant returns the GIFT constant of round r (1-based).
func roundConstant(r int) byte {
	if r < 1 || r > len(roundConstants) {
		panic("gift: round constant index out of range")
	}
	return roundConstants[r-1]
}

// Cipher is a keyed instance of one variant with a precomputed key
// schedule.
type Cipher struct {
	variant Variant
	rounds  int
	sbox    *[16]byte
	perm    *[maxLanes]uint8
	// keyU and keyV are GIFT's per-round key words: 16-bit for GIFT-64,
	// 32-bit for GIFT-128, stored widened. PRESENT leaves them nil.
	keyU, keyV []uint32
	// white is XORed into the plaintext before round 1: PRESENT's first
	// round key, zero for GIFT.
	white state
	// rkMask[r-1] is the full AddRoundKey state mask that ends round r
	// (GIFT: key bits, round constant and the fixed 1; PRESENT: K_{r+1}),
	// so the scalar round XORs two words per round.
	rkMask []state
	// rkSrc[r-1] is rkMask[r-1] in source order: bit i is the key bit
	// XORed into the bit that PermBits moves bit i to, so the bitsliced
	// round adds it to lane i before the move.
	rkSrc []state
}

// New creates an instance of variant v. The key is in the spec's
// big-endian byte order: 16 bytes for GIFT (k7 first), 10 for PRESENT-80
// (k79 first).
func New(v Variant, key []byte) (*Cipher, error) {
	if v < 0 || int(v) >= len(variants) {
		return nil, fmt.Errorf("gift: unknown variant %d", v)
	}
	p := &variants[v]
	if len(key) != p.keyBytes {
		return nil, fmt.Errorf("%s: key must be %d bytes, got %d", p.name, p.keyBytes, len(key))
	}
	c := &Cipher{
		variant: v,
		rounds:  p.rounds,
		sbox:    &p.sbox,
		perm:    &perms[v],
		rkMask:  make([]state, p.rounds),
		rkSrc:   make([]state, p.rounds),
	}
	if v == PRESENT80 {
		c.presentSchedule(key)
	} else {
		c.giftSchedule(key)
	}
	for r, m := range c.rkMask {
		for i, d := range c.perm[:8*p.blockBytes] {
			c.rkSrc[r][i/64] |= m[d/64] >> (uint(d) % 64) & 1 << (uint(i) % 64)
		}
	}
	return c, nil
}

// giftSchedule walks GIFT's key state (k7..k0, 16-bit words, k7 from the
// first two key bytes), extracts the per-round words and builds each
// round's AddRoundKey mask.
func (c *Cipher) giftSchedule(key []byte) {
	var k [8]uint16
	for i := 0; i < 8; i++ {
		// key[0] is the high byte of k7 (spec order).
		k[7-i] = uint16(key[2*i])<<8 | uint16(key[2*i+1])
	}
	c.keyU = make([]uint32, c.rounds)
	c.keyV = make([]uint32, c.rounds)
	for r := 1; r <= c.rounds; r++ {
		if c.variant == GIFT64 {
			c.keyU[r-1], c.keyV[r-1] = uint32(k[1]), uint32(k[0])
		} else {
			c.keyU[r-1] = uint32(k[5])<<16 | uint32(k[4])
			c.keyV[r-1] = uint32(k[1])<<16 | uint32(k[0])
		}
		km, cm := c.KeyMask(c.keyU[r-1], c.keyV[r-1]), c.ConstMask(r)
		c.rkMask[r-1] = state{km[0] | cm[0], km[1] | cm[1]}
		// Key state update: (k7..k0) <- (k1 >>> 2, k0 >>> 12, k7..k2).
		n1 := k[1]>>2 | k[1]<<14
		n0 := k[0]>>12 | k[0]<<4
		copy(k[:6], k[2:8])
		k[6] = n0
		k[7] = n1
	}
}

// presentSchedule runs PRESENT-80's 80-bit key register: round key K_r is
// its top 64 bits, and each update rotates it left by 61, S-boxes its top
// nibble and XORs the round counter into bits 19..15. K_1 becomes the
// whitening key and K_{r+1} the mask that ends round r.
func (c *Cipher) presentSchedule(key []byte) {
	// hi holds register bits 79..16, lo bits 15..0.
	hi := binary.BigEndian.Uint64(key)
	lo := uint64(binary.BigEndian.Uint16(key[8:]))
	for r := 1; r <= c.rounds+1; r++ {
		if r == 1 {
			c.white[0] = hi
		} else {
			c.rkMask[r-2][0] = hi
		}
		hi, lo = hi<<61|lo<<45|hi>>19, hi>>3&0xffff
		hi = hi&^(0xf<<60) | uint64(c.sbox[hi>>60])<<60
		// Bits 19..16 of the register are the low nibble of hi, bit 15
		// the top bit of lo.
		hi ^= uint64(r) >> 1
		lo ^= uint64(r) & 1 << 15
	}
}

// RoundKeyWords returns GIFT's (U, V) round-key words of round r
// (1-based), exported for the DFA analyzer.
func (c *Cipher) RoundKeyWords(r int) (u, v uint32) {
	if r < 1 || r > c.rounds {
		panic("gift: round key index out of range")
	}
	return c.keyU[r-1], c.keyV[r-1]
}

// Name implements ciphers.Cipher.
func (c *Cipher) Name() string { return variants[c.variant].name }

// BlockBytes implements ciphers.Cipher.
func (c *Cipher) BlockBytes() int { return variants[c.variant].blockBytes }

// Rounds implements ciphers.Cipher.
func (c *Cipher) Rounds() int { return c.rounds }

// GroupBits implements ciphers.Cipher: every variant substitutes nibbles.
func (c *Cipher) GroupBits() int { return 4 }

// state holds up to 128 bits, spec bit i at word i/64, machine bit i%64.
type state [2]uint64

func (s *state) loadBE(src []byte, nbytes int) {
	s[0], s[1] = 0, 0
	// src[0] holds the most significant spec bits.
	for i := 0; i < nbytes; i++ {
		bitBase := 8 * (nbytes - 1 - i)
		s[bitBase/64] |= uint64(src[i]) << (uint(bitBase) % 64)
	}
}

func (s *state) storeBE(dst []byte, nbytes int) {
	for i := 0; i < nbytes; i++ {
		bitBase := 8 * (nbytes - 1 - i)
		dst[i] = byte(s[bitBase/64] >> (uint(bitBase) % 64))
	}
}

// storeLE writes the state in repository bit order (bit i of the state is
// bit i%8 of byte i/8), used for trace snapshots and fault masks.
func (s *state) storeLE(dst []byte, nbytes int) {
	for i := 0; i < nbytes; i++ {
		bitBase := 8 * i
		dst[i] = byte(s[bitBase/64] >> (uint(bitBase) % 64))
	}
}

func (s *state) xorLE(mask []byte) {
	for i, b := range mask {
		bitBase := 8 * i
		s[bitBase/64] ^= uint64(b) << (uint(bitBase) % 64)
	}
}

// andLE clamps the state to the repository-bit-order AND mask. Words past
// the mask are zeroed, which is harmless: the mask always spans the full
// BlockBytes, so only bits outside the cipher state are affected.
func (s *state) andLE(mask []byte) {
	var m state
	for i, b := range mask {
		bitBase := 8 * i
		m[bitBase/64] |= uint64(b) << (uint(bitBase) % 64)
	}
	s[0] &= m[0]
	s[1] &= m[1]
}

// xorState XORs another state in place.
func (s *state) xorState(o *state) {
	s[0] ^= o[0]
	s[1] ^= o[1]
}

// subCells applies the S-box to every nibble of the first nbits bits.
func (s *state) subCells(nbits int, box *[16]byte) {
	for w := 0; w < nbits/64; w++ {
		v := s[w]
		var out uint64
		for n := 0; n < 16; n++ {
			out |= uint64(box[v>>(4*uint(n))&0xf]) << (4 * uint(n))
		}
		s[w] = out
	}
}

// permBits applies the bit permutation table (bit i moves to perm[i]) to
// the first nbits bits, visiting only the set bits of each word.
func (s *state) permBits(nbits int, perm *[maxLanes]uint8) {
	var out state
	for w := 0; w < nbits/64; w++ {
		for v := s[w]; v != 0; v &= v - 1 {
			j := perm[(64*w+bits.TrailingZeros64(v))&(maxLanes-1)]
			out[j/64%2] |= 1 << (j % 64)
		}
	}
	*s = out
}

// Encrypt implements ciphers.Cipher. dst and src are in spec big-endian
// byte order; fault masks and trace snapshots are in repository bit order.
func (c *Cipher) Encrypt(dst, src []byte, fault *ciphers.Fault, trace *ciphers.Trace) {
	fault.Validate(c)
	nbytes := c.BlockBytes()
	nbits := 8 * nbytes
	var s state
	s.loadBE(src, nbytes)
	s.xorState(&c.white)
	for r := 1; r <= c.rounds; r++ {
		if fault != nil && fault.Round == r {
			if fault.And != nil {
				s.andLE(fault.And)
			}
			if fault.Mask != nil {
				s.xorLE(fault.Mask)
			}
		}
		if trace != nil {
			s.storeLE(trace.Inputs[r-1], nbytes)
		}
		s.subCells(nbits, c.sbox)
		if trace != nil {
			s.storeLE(trace.PostSub[r-1], nbytes)
		}
		s.permBits(nbits, c.perm)
		s.xorState(&c.rkMask[r-1])
	}
	s.storeBE(dst, nbytes)
	if trace != nil {
		s.storeLE(trace.Ciphertext, nbytes)
	}
}

// Decrypt inverts Encrypt (no fault/trace support; used in tests and
// key-recovery verification).
func (c *Cipher) Decrypt(dst, src []byte) {
	nbytes := c.BlockBytes()
	nbits := 8 * nbytes
	var inv [maxLanes]uint8
	for i, d := range c.perm[:nbits] {
		inv[d] = uint8(i)
	}
	var s state
	s.loadBE(src, nbytes)
	for r := c.rounds; r >= 1; r-- {
		s.xorState(&c.rkMask[r-1])
		s.permBits(nbits, &inv)
		s.subCells(nbits, &variants[c.variant].invSbox)
	}
	s.xorState(&c.white)
	s.storeBE(dst, nbytes)
}

// Perm returns the destination of bit i under the variant's bit
// permutation.
func (c *Cipher) Perm(i int) int { return int(c.perm[:8*c.BlockBytes()][i]) }

// KeyMask returns the state mask that GIFT's AddRoundKey XORs for
// round-key words (U, V): V bit i at state bit 4i+o and U bit i at
// 4i+o+1, where o is 0 for GIFT-64 and 1 for GIFT-128. GIFT only.
func (c *Cipher) KeyMask(u, v uint32) [2]uint64 {
	var m [2]uint64
	o := uint(c.BlockBytes()/8 - 1)
	for i := uint(0); i < uint(2*c.BlockBytes()); i++ {
		b := 4*i + o
		m[b/64%2] |= (uint64(v>>i&1) | uint64(u>>i&1)<<1) << (b % 64)
	}
	return m
}

// ConstMask returns the known (key-independent) part of GIFT's round-r
// AddRoundKey: the round-constant bits at state bits 4i+3 and the fixed
// 1 at the top bit of the state. GIFT only; the DFA inverts rounds under
// guessed key bits with it.
func (c *Cipher) ConstMask(r int) [2]uint64 {
	var m [2]uint64
	rc := roundConstant(r)
	for i := uint(0); i < 6; i++ {
		m[0] |= uint64(rc>>i&1) << (4*i + 3)
	}
	top := uint(8*c.BlockBytes() - 1)
	m[top/64%2] |= 1 << (top % 64)
	return m
}

func init() {
	for v := range variants {
		p := &variants[v]
		ciphers.Register(ciphers.Info{
			Name:       p.name,
			BlockBytes: p.blockBytes,
			KeyBytes:   p.keyBytes,
			Rounds:     p.rounds,
			GroupBits:  4,
			New: func(key []byte) (ciphers.Cipher, error) {
				return New(Variant(v), key)
			},
		})
	}
}
