// Package speck implements the SPECK family members Speck64/128 (64-bit
// block, 128-bit key, 27 rounds) and Speck32/64 (32-bit block, 64-bit
// key, 22 rounds) at trace level (Beaulieu et al., DAC 2015).
//
// SPECK completes the structural-diversity set of this repository: an
// ARX design (modular addition, rotation, XOR) with no S-boxes at all,
// alongside the SPN ciphers (AES, GIFT, PRESENT) and the Feistel
// AND-rotate design (SIMON). Fault differentials interact with the carry
// chain of the modular addition, a qualitatively different propagation
// from both.
//
// State layout follows the repository convention: the block is x||y with
// x the left/high word; internally y occupies state bits [0, n) and x
// bits [n, 2n). "PostSub" records the state after the ARX mixing of the
// round (the nonlinear step).
package speck

import (
	"fmt"

	"repro/internal/ciphers"
)

// Variant selects a SPECK family member.
type Variant int

const (
	// Speck64_128: 64-bit block, 128-bit key, 27 rounds.
	Speck64_128 Variant = iota
	// Speck32_64: 32-bit block, 64-bit key, 22 rounds.
	Speck32_64
)

// Cipher is a keyed SPECK instance.
type Cipher struct {
	variant   Variant
	wordBits  uint
	rounds    int
	alpha     uint // right-rotation of x
	beta      uint // left-rotation of y
	roundKeys []uint32
}

// New creates a SPECK instance for the given variant.
func New(v Variant, key []byte) (*Cipher, error) {
	c := &Cipher{variant: v}
	var keyWords int
	switch v {
	case Speck64_128:
		c.wordBits, c.rounds, keyWords = 32, 27, 4
		c.alpha, c.beta = 8, 3
	case Speck32_64:
		c.wordBits, c.rounds, keyWords = 16, 22, 4
		c.alpha, c.beta = 7, 2
	default:
		return nil, fmt.Errorf("speck: unknown variant %d", v)
	}
	wantKey := keyWords * int(c.wordBits) / 8
	if len(key) != wantKey {
		return nil, fmt.Errorf("speck: key must be %d bytes, got %d", wantKey, len(key))
	}
	c.expandKey(key, keyWords)
	return c, nil
}

// New64 creates a Speck64/128 instance.
func New64(key []byte) (*Cipher, error) { return New(Speck64_128, key) }

// New32 creates a Speck32/64 instance.
func New32(key []byte) (*Cipher, error) { return New(Speck32_64, key) }

func (c *Cipher) mask() uint32 {
	if c.wordBits == 32 {
		return 0xffffffff
	}
	return uint32(1)<<c.wordBits - 1
}

func (c *Cipher) rotl(x uint32, r uint) uint32 {
	return (x<<r | x>>(c.wordBits-r)) & c.mask()
}

func (c *Cipher) rotr(x uint32, r uint) uint32 {
	return (x>>r | x<<(c.wordBits-r)) & c.mask()
}

// roundFunc applies one SPECK round to (x, y) with round key k.
func (c *Cipher) roundFunc(x, y, k uint32) (uint32, uint32) {
	x = (c.rotr(x, c.alpha) + y) & c.mask()
	x ^= k
	y = c.rotl(y, c.beta) ^ x
	return x, y
}

// invRoundFunc inverts roundFunc.
func (c *Cipher) invRoundFunc(x, y, k uint32) (uint32, uint32) {
	y = c.rotr(y^x, c.beta)
	x ^= k
	x = c.rotl((x-y)&c.mask(), c.alpha)
	return x, y
}

// expandKey runs the SPECK key schedule: the key words beyond k[0] form a
// rotating l-register mixed with the same round function.
func (c *Cipher) expandKey(key []byte, m int) {
	bytesPerWord := int(c.wordBits) / 8
	words := make([]uint32, m)
	// key[0..] holds the highest word first; words[0] is k[0] (last).
	for i := 0; i < m; i++ {
		var w uint32
		off := (m - 1 - i) * bytesPerWord
		for j := 0; j < bytesPerWord; j++ {
			w = w<<8 | uint32(key[off+j])
		}
		words[i] = w
	}
	k := words[0]
	l := append([]uint32(nil), words[1:]...)
	c.roundKeys = make([]uint32, c.rounds)
	for i := 0; i < c.rounds; i++ {
		c.roundKeys[i] = k
		if i == c.rounds-1 {
			break
		}
		li, ki := c.roundFunc(l[i%(m-1)], k, uint32(i))
		// roundFunc computes x = (ror(x)+y)^k with k = counter, then
		// y = rol(y)^x: exactly the schedule's update with (l, k).
		l[i%(m-1)] = li
		k = ki
	}
}

// Name implements ciphers.Cipher.
func (c *Cipher) Name() string {
	if c.variant == Speck64_128 {
		return "speck64"
	}
	return "speck32"
}

// BlockBytes implements ciphers.Cipher.
func (c *Cipher) BlockBytes() int { return 2 * int(c.wordBits) / 8 }

// Rounds implements ciphers.Cipher.
func (c *Cipher) Rounds() int { return c.rounds }

// GroupBits implements ciphers.Cipher: bytes, as for SIMON (no S-boxes).
func (c *Cipher) GroupBits() int { return 8 }

func (c *Cipher) loadBE(src []byte) (x, y uint32) {
	bytesPerWord := int(c.wordBits) / 8
	for j := 0; j < bytesPerWord; j++ {
		x = x<<8 | uint32(src[j])
		y = y<<8 | uint32(src[bytesPerWord+j])
	}
	return x, y
}

func (c *Cipher) storeBE(dst []byte, x, y uint32) {
	bytesPerWord := int(c.wordBits) / 8
	for j := bytesPerWord - 1; j >= 0; j-- {
		dst[j] = byte(x)
		dst[bytesPerWord+j] = byte(y)
		x >>= 8
		y >>= 8
	}
}

func (c *Cipher) storeLE(dst []byte, x, y uint32) {
	bytesPerWord := int(c.wordBits) / 8
	for j := 0; j < bytesPerWord; j++ {
		dst[j] = byte(y >> (8 * uint(j)))
		dst[bytesPerWord+j] = byte(x >> (8 * uint(j)))
	}
}

func (c *Cipher) maskLE(mask []byte) (x, y uint32) {
	bytesPerWord := int(c.wordBits) / 8
	for j := 0; j < bytesPerWord; j++ {
		y |= uint32(mask[j]) << (8 * uint(j))
		x |= uint32(mask[bytesPerWord+j]) << (8 * uint(j))
	}
	return x, y
}

// Encrypt implements ciphers.Cipher.
func (c *Cipher) Encrypt(dst, src []byte, fault *ciphers.Fault, trace *ciphers.Trace) {
	fault.Validate(c)
	x, y := c.loadBE(src)
	for r := 1; r <= c.rounds; r++ {
		if fault != nil && fault.Round == r {
			if fault.And != nil {
				ax, ay := c.maskLE(fault.And)
				x &= ax
				y &= ay
			}
			if fault.Mask != nil {
				fx, fy := c.maskLE(fault.Mask)
				x ^= fx
				y ^= fy
			}
		}
		if trace != nil {
			c.storeLE(trace.Inputs[r-1], x, y)
		}
		x, y = c.roundFunc(x, y, c.roundKeys[r-1])
		if trace != nil {
			c.storeLE(trace.PostSub[r-1], x, y)
		}
	}
	c.storeBE(dst, x, y)
	if trace != nil {
		c.storeLE(trace.Ciphertext, x, y)
	}
}

// Decrypt inverts Encrypt.
func (c *Cipher) Decrypt(dst, src []byte) {
	x, y := c.loadBE(src)
	for r := c.rounds; r >= 1; r-- {
		x, y = c.invRoundFunc(x, y, c.roundKeys[r-1])
	}
	c.storeBE(dst, x, y)
}

func init() {
	ciphers.Register(ciphers.Info{
		Name:       "speck64",
		BlockBytes: 8,
		KeyBytes:   16,
		Rounds:     27,
		GroupBits:  8,
		New: func(key []byte) (ciphers.Cipher, error) {
			return New(Speck64_128, key)
		},
	})
	ciphers.Register(ciphers.Info{
		Name:       "speck32",
		BlockBytes: 4,
		KeyBytes:   8,
		Rounds:     22,
		GroupBits:  8,
		New: func(key []byte) (ciphers.Cipher, error) {
			return New(Speck32_64, key)
		},
	})
}
