// Package present implements the PRESENT-80 lightweight block cipher
// (Bogdanov et al., CHES 2007) at trace level. PRESENT is included as a
// generality extension: the paper's introduction motivates automated fault
// exploration precisely because models like the AES diagonal do not carry
// over to PRESENT/GIFT-style bit-permutation ciphers, and a third cipher
// exercises the framework's cipher-agnostic interfaces.
//
// # State layout
//
// The specification numbers state bits b63..b0 with b63 the most
// significant bit of the first plaintext byte; internally spec bit i sits
// at machine bit i, so repository bit numbering equals spec numbering,
// exactly as in package gift.
package present

import (
	"fmt"

	"repro/internal/ciphers"
)

// NumRounds is the number of substitution-permutation rounds. A 32nd
// round key is XORed after the last round as output whitening.
const NumRounds = 31

// BlockBytes is the block size in bytes.
const BlockBytes = 8

// KeyBytes is the PRESENT-80 key size in bytes.
const KeyBytes = 10

var sbox = [16]byte{0xc, 0x5, 0x6, 0xb, 0x9, 0x0, 0xa, 0xd, 0x3, 0xe, 0xf, 0x8, 0x4, 0x7, 0x1, 0x2}

var invSbox [16]byte

// perm is the PRESENT bit permutation: bit i moves to perm[i].
var perm [64]int

func init() {
	for i, v := range sbox {
		invSbox[v] = byte(i)
	}
	for i := 0; i < 63; i++ {
		perm[i] = (16 * i) % 63
	}
	perm[63] = 63
}

// SBox returns the PRESENT S-box value of a 4-bit input.
func SBox(x byte) byte { return sbox[x&0xf] }

// InvSBox returns the inverse S-box value of a 4-bit input.
func InvSBox(x byte) byte { return invSbox[x&0xf] }

// Perm returns the destination of bit i under the PRESENT permutation.
func Perm(i int) int { return perm[i] }

// Cipher is a PRESENT-80 instance with precomputed round keys.
type Cipher struct {
	roundKeys [NumRounds + 1]uint64
}

// New expands a PRESENT-80 key (10 bytes, spec big-endian order).
func New(key []byte) (*Cipher, error) {
	if len(key) != KeyBytes {
		return nil, fmt.Errorf("present: key must be %d bytes, got %d", KeyBytes, len(key))
	}
	c := new(Cipher)
	// Key register: 80 bits k79..k0, hi holds k79..k16, lo the low 16.
	var hi uint64 // k79..k16
	var lo uint64 // k15..k0
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(key[i])
	}
	lo = uint64(key[8])<<8 | uint64(key[9])
	for r := 1; r <= NumRounds+1; r++ {
		c.roundKeys[r-1] = hi // round key = leftmost 64 bits (k79..k16)
		// Register update: rotate left by 61, S-box the top nibble,
		// XOR the round counter into bits k19..k15. In this layout
		// k19..k16 are the low 4 bits of hi and k15 is the top bit of lo.
		hi, lo = rotl80(hi, lo, 61)
		top := byte(hi >> 60)
		hi = hi&^(0xf<<60) | uint64(sbox[top])<<60
		ctr := uint64(r)
		hi ^= ctr >> 1
		lo ^= (ctr & 1) << 15
	}
	return c, nil
}

// rotl80 rotates the 80-bit value (hi:64 || lo:16) left by n.
func rotl80(hi, lo uint64, n uint) (uint64, uint64) {
	// Build the 80-bit value in a pair of uint64s: top 16 bits unused.
	// value = hi * 2^16 + lo, bits 79..0.
	// Rotation left by n: bit j -> (j + n) mod 80.
	var outHi, outLo uint64
	getBit := func(j uint) uint64 {
		if j < 16 {
			return lo >> j & 1
		}
		return hi >> (j - 16) & 1
	}
	for j := uint(0); j < 80; j++ {
		b := getBit(j)
		d := (j + n) % 80
		if d < 16 {
			outLo |= b << d
		} else {
			outHi |= b << (d - 16)
		}
	}
	return outHi, outLo
}

// Name implements ciphers.Cipher.
func (c *Cipher) Name() string { return "present80" }

// BlockBytes implements ciphers.Cipher.
func (c *Cipher) BlockBytes() int { return BlockBytes }

// Rounds implements ciphers.Cipher.
func (c *Cipher) Rounds() int { return NumRounds }

// GroupBits implements ciphers.Cipher: PRESENT substitutes nibbles.
func (c *Cipher) GroupBits() int { return 4 }

func loadBE(src []byte) uint64 {
	var v uint64
	for _, b := range src[:8] {
		v = v<<8 | uint64(b)
	}
	return v
}

func storeBE(dst []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		dst[i] = byte(v)
		v >>= 8
	}
}

func loadLE(mask []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(mask[i])
	}
	return v
}

func storeLE(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = byte(v)
		v >>= 8
	}
}

func subLayer(s uint64, box *[16]byte) uint64 {
	var out uint64
	for n := 0; n < 16; n++ {
		out |= uint64(box[s>>(4*uint(n))&0xf]) << (4 * uint(n))
	}
	return out
}

func permLayer(s uint64, p *[64]int) uint64 {
	var out uint64
	for i := 0; i < 64; i++ {
		if s>>uint(i)&1 == 1 {
			out |= 1 << uint(p[i])
		}
	}
	return out
}

// Encrypt implements ciphers.Cipher. The input of round r is the state
// after round r-1's permutation and round-key XOR; the whitening key of
// round 32 is folded into the ciphertext.
func (c *Cipher) Encrypt(dst, src []byte, fault *ciphers.Fault, trace *ciphers.Trace) {
	fault.Validate(c)
	s := loadBE(src)
	for r := 1; r <= NumRounds; r++ {
		s ^= c.roundKeys[r-1]
		if fault != nil && fault.Round == r {
			if fault.And != nil {
				s &= loadLE(fault.And)
			}
			if fault.Mask != nil {
				s ^= loadLE(fault.Mask)
			}
		}
		if trace != nil {
			storeLE(trace.Inputs[r-1], s)
		}
		s = subLayer(s, &sbox)
		if trace != nil {
			storeLE(trace.PostSub[r-1], s)
		}
		s = permLayer(s, &perm)
	}
	s ^= c.roundKeys[NumRounds]
	storeBE(dst, s)
	if trace != nil {
		storeLE(trace.Ciphertext, s)
	}
}

// Decrypt inverts Encrypt (no fault/trace support).
func (c *Cipher) Decrypt(dst, src []byte) {
	var invPerm [64]int
	for i, p := range perm {
		invPerm[p] = i
	}
	s := loadBE(src)
	s ^= c.roundKeys[NumRounds]
	for r := NumRounds; r >= 1; r-- {
		s = permLayer(s, &invPerm)
		s = subLayer(s, &invSbox)
		s ^= c.roundKeys[r-1]
	}
	storeBE(dst, s)
}

func init() {
	ciphers.Register(ciphers.Info{
		Name:       "present80",
		BlockBytes: BlockBytes,
		KeyBytes:   KeyBytes,
		Rounds:     NumRounds,
		GroupBits:  4,
		New: func(key []byte) (ciphers.Cipher, error) {
			return New(key)
		},
	})
}
