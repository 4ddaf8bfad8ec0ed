// Package gift implements the GIFT family of lightweight block ciphers
// (Banik et al., CHES 2017) at trace level: GIFT-64 (28 rounds) and
// GIFT-128 (40 rounds), both with a 128-bit key.
//
// # State layout
//
// The GIFT specification numbers state bits b_{n-1}...b_0 with b_{n-1} the
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
// GIFT bit permutation), and AddRoundKey (round-key bits, the round
// constant, and the fixed 1 bit). The paper injects faults at the input of
// round 25 of GIFT-64 and observes the post-S-box state of round 27
// onwards; both hooks are provided via the ciphers.Trace mechanism.
package gift

import (
	"fmt"

	"repro/internal/ciphers"
)

// Variant selects a member of the GIFT family.
type Variant int

const (
	// GIFT64 is the 64-bit-block, 28-round variant.
	GIFT64 Variant = iota
	// GIFT128 is the 128-bit-block, 40-round variant.
	GIFT128
)

// KeyBytes is the key size of both variants.
const KeyBytes = 16

// sbox is the GIFT S-box GS; invSbox its inverse.
var sbox = [16]byte{0x1, 0xa, 0x4, 0xc, 0x6, 0xf, 0x3, 0x9, 0x2, 0xd, 0xb, 0x7, 0x5, 0x0, 0x8, 0xe}

var invSbox [16]byte

// perm64 and perm128 are the bit permutations: bit i moves to perm[i].
var (
	perm64  [64]int
	perm128 [128]int
)

func init() {
	for i, v := range sbox {
		invSbox[v] = byte(i)
	}
	for i := 0; i < 64; i++ {
		perm64[i] = 4*(i/16) + 16*((3*((i%16)/4)+i%4)%4) + i%4
	}
	for i := 0; i < 128; i++ {
		perm128[i] = 4*(i/16) + 32*((3*((i%16)/4)+i%4)%4) + i%4
	}
}

// SBox returns the GIFT S-box value of a 4-bit input.
func SBox(x byte) byte { return sbox[x&0xf] }

// InvSBox returns the inverse S-box value of a 4-bit input.
func InvSBox(x byte) byte { return invSbox[x&0xf] }

// Perm64 returns the destination of bit i under the GIFT-64 permutation.
func Perm64(i int) int { return perm64[i] }

// Perm128 returns the destination of bit i under the GIFT-128 permutation.
func Perm128(i int) int { return perm128[i] }

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

// RoundConstant returns the constant of round r (1-based).
func RoundConstant(r int) byte {
	if r < 1 || r > len(roundConstants) {
		panic("gift: round constant index out of range")
	}
	return roundConstants[r-1]
}

// Cipher is a GIFT instance with a precomputed per-round key schedule.
type Cipher struct {
	variant Variant
	rounds  int
	// keyU and keyV are the per-round key words: 16-bit for GIFT-64,
	// 32-bit for GIFT-128, stored widened.
	keyU, keyV []uint32
	// rkMask[r-1] is round r's full AddRoundKey state mask (key bits,
	// round constant and the fixed 1), precomputed so both the scalar
	// round and the bitsliced kernel XOR two words per round.
	rkMask []state
}

// New creates a GIFT instance. The key must be 16 bytes, interpreted in
// the spec's big-endian order (k7 first).
func New(v Variant, key []byte) (*Cipher, error) {
	if len(key) != KeyBytes {
		return nil, fmt.Errorf("gift: key must be %d bytes, got %d", KeyBytes, len(key))
	}
	c := &Cipher{variant: v}
	switch v {
	case GIFT64:
		c.rounds = 28
	case GIFT128:
		c.rounds = 40
	default:
		return nil, fmt.Errorf("gift: unknown variant %d", v)
	}
	c.expandKey(key)
	return c, nil
}

// New64 creates a GIFT-64 instance.
func New64(key []byte) (*Cipher, error) { return New(GIFT64, key) }

// New128 creates a GIFT-128 instance.
func New128(key []byte) (*Cipher, error) { return New(GIFT128, key) }

// expandKey walks the key state (k7..k0, 16-bit words, k7 from the first
// two key bytes) and extracts the per-round words.
func (c *Cipher) expandKey(key []byte) {
	var k [8]uint16
	for i := 0; i < 8; i++ {
		// key[0] is the high byte of k7 (spec order).
		k[7-i] = uint16(key[2*i])<<8 | uint16(key[2*i+1])
	}
	c.keyU = make([]uint32, c.rounds)
	c.keyV = make([]uint32, c.rounds)
	for r := 0; r < c.rounds; r++ {
		if c.variant == GIFT64 {
			c.keyU[r] = uint32(k[1])
			c.keyV[r] = uint32(k[0])
		} else {
			c.keyU[r] = uint32(k[5])<<16 | uint32(k[4])
			c.keyV[r] = uint32(k[1])<<16 | uint32(k[0])
		}
		// Key state update: (k7..k0) <- (k1 >>> 2, k0 >>> 12, k7..k2).
		n1 := k[1]>>2 | k[1]<<14
		n0 := k[0]>>12 | k[0]<<4
		copy(k[:6], k[2:8])
		k[6] = n0
		k[7] = n1
	}
	c.rkMask = make([]state, c.rounds)
	for r := 1; r <= c.rounds; r++ {
		if c.variant == GIFT64 {
			c.rkMask[r-1][0] = KeyMask64(uint16(c.keyU[r-1]), uint16(c.keyV[r-1])) | ConstMask64(r)
		} else {
			klo, khi := KeyMask128(c.keyU[r-1], c.keyV[r-1])
			clo, chi := ConstMask128(r)
			c.rkMask[r-1][0] = klo | clo
			c.rkMask[r-1][1] = khi | chi
		}
	}
}

// RoundKeyWords returns the (U, V) round-key words of round r (1-based),
// exported for the DFA analyzer.
func (c *Cipher) RoundKeyWords(r int) (u, v uint32) {
	if r < 1 || r > c.rounds {
		panic("gift: round key index out of range")
	}
	return c.keyU[r-1], c.keyV[r-1]
}

// Name implements ciphers.Cipher.
func (c *Cipher) Name() string {
	if c.variant == GIFT64 {
		return "gift64"
	}
	return "gift128"
}

// BlockBytes implements ciphers.Cipher.
func (c *Cipher) BlockBytes() int {
	if c.variant == GIFT64 {
		return 8
	}
	return 16
}

// Rounds implements ciphers.Cipher.
func (c *Cipher) Rounds() int { return c.rounds }

// GroupBits implements ciphers.Cipher: GIFT substitutes nibbles.
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

// subCells applies the S-box to every nibble of the first nbits bits.
func (s *state) subCells(nbits int, box *[16]byte) {
	for w := 0; w < (nbits+63)/64; w++ {
		v := s[w]
		var out uint64
		for n := 0; n < 16; n++ {
			out |= uint64(box[v>>(4*uint(n))&0xf]) << (4 * uint(n))
		}
		s[w] = out
	}
}

// permBits applies the bit permutation table (bit i moves to perm[i]).
func (s *state) permBits(nbits int, perm []int) {
	var out state
	for i := 0; i < nbits; i++ {
		if s[i/64]>>(uint(i)%64)&1 == 1 {
			j := perm[i]
			out[j/64] |= 1 << (uint(j) % 64)
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
		s.subCells(nbits, &sbox)
		if trace != nil {
			s.storeLE(trace.PostSub[r-1], nbytes)
		}
		if c.variant == GIFT64 {
			s.permBits(64, perm64[:])
			c.addRoundKey64(&s, r)
		} else {
			s.permBits(128, perm128[:])
			c.addRoundKey128(&s, r)
		}
	}
	s.storeBE(dst, nbytes)
	if trace != nil {
		s.storeLE(trace.Ciphertext, nbytes)
	}
}

// addRoundKey64 XORs round r's precomputed state mask: U bits at
// positions 4i+1, V bits at 4i, the round constant at bits
// 23,19,15,11,7,3 and the fixed 1 at bit 63 (see KeyMask64/ConstMask64).
func (c *Cipher) addRoundKey64(s *state, r int) {
	s[0] ^= c.rkMask[r-1][0]
}

// addRoundKey128 XORs round r's precomputed state mask: U bits at
// positions 4i+2, V bits at 4i+1, the round constant at bits
// 23,19,15,11,7,3 and the fixed 1 at bit 127 (see
// KeyMask128/ConstMask128).
func (c *Cipher) addRoundKey128(s *state, r int) {
	s[0] ^= c.rkMask[r-1][0]
	s[1] ^= c.rkMask[r-1][1]
}

// Decrypt inverts Encrypt (no fault/trace support; used in tests and
// key-recovery verification).
func (c *Cipher) Decrypt(dst, src []byte) {
	nbytes := c.BlockBytes()
	nbits := 8 * nbytes
	var s state
	s.loadBE(src, nbytes)
	inv := invPerm(nbits, c.variant)
	for r := c.rounds; r >= 1; r-- {
		if c.variant == GIFT64 {
			c.addRoundKey64(&s, r)
		} else {
			c.addRoundKey128(&s, r)
		}
		s.permBits(nbits, inv)
		s.subCells(nbits, &invSbox)
	}
	s.storeBE(dst, nbytes)
}

func invPerm(nbits int, v Variant) []int {
	out := make([]int, nbits)
	for i := 0; i < nbits; i++ {
		if v == GIFT64 {
			out[perm64[i]] = i
		} else {
			out[perm128[i]] = i
		}
	}
	return out
}

// ConstMask128 returns the known (key-independent) part of GIFT-128's
// round-r AddRoundKey as (lo, hi) state words: the round-constant bits at
// positions 4i+3 and the fixed 1 at bit 127.
func ConstMask128(round int) (lo, hi uint64) {
	rc := RoundConstant(round)
	for i := 0; i < 6; i++ {
		lo |= uint64(rc>>uint(i)&1) << (4*uint(i) + 3)
	}
	return lo, 1 << 63
}

// KeyMask128 returns the state mask GIFT-128's AddRoundKey XORs for
// round-key words (U, V) as (lo, hi): U bits at positions 4i+2, V bits
// at 4i+1.
func KeyMask128(u, v uint32) (lo, hi uint64) {
	for i := 0; i < 32; i++ {
		bitU := 4*uint(i) + 2
		bitV := 4*uint(i) + 1
		if bitU < 64 {
			lo |= uint64(u>>uint(i)&1) << bitU
		} else {
			hi |= uint64(u>>uint(i)&1) << (bitU - 64)
		}
		if bitV < 64 {
			lo |= uint64(v>>uint(i)&1) << bitV
		} else {
			hi |= uint64(v>>uint(i)&1) << (bitV - 64)
		}
	}
	return lo, hi
}

// ConstMask64 returns the known (key-independent) part of GIFT-64's
// round-r AddRoundKey: the round-constant bits at positions 4i+3 and the
// fixed 1 at bit 63. Exported for the DFA analyzer, which inverts rounds
// under guessed key bits.
func ConstMask64(round int) uint64 {
	rc := RoundConstant(round)
	var mask uint64
	for i := 0; i < 6; i++ {
		mask |= uint64(rc>>uint(i)&1) << (4*uint(i) + 3)
	}
	return mask | 1<<63
}

// KeyMask64 returns the state mask that GIFT-64's AddRoundKey XORs for
// round-key words (U, V): U bits at positions 4i+1, V bits at 4i.
func KeyMask64(u, v uint16) uint64 {
	var mask uint64
	for i := 0; i < 16; i++ {
		mask |= uint64(u>>uint(i)&1) << (4*uint(i) + 1)
		mask |= uint64(v>>uint(i)&1) << (4 * uint(i))
	}
	return mask
}

func init() {
	ciphers.Register(ciphers.Info{
		Name:       "gift64",
		BlockBytes: 8,
		KeyBytes:   KeyBytes,
		Rounds:     28,
		GroupBits:  4,
		New: func(key []byte) (ciphers.Cipher, error) {
			return New(GIFT64, key)
		},
	})
	ciphers.Register(ciphers.Info{
		Name:       "gift128",
		BlockBytes: 16,
		KeyBytes:   KeyBytes,
		Rounds:     40,
		GroupBits:  4,
		New: func(key []byte) (ciphers.Cipher, error) {
			return New(GIFT128, key)
		},
	})
}
