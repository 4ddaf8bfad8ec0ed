// Package simonspeck implements the SIMON and SPECK block-cipher families
// at trace level (Beaulieu et al., "The SIMON and SPECK lightweight block
// ciphers", DAC 2015): Simon64/128 (44 rounds), Simon32/64 (32 rounds),
// Speck64/128 (27 rounds) and Speck32/64 (22 rounds).
//
// The two families are this repository's structural-diversity examples
// beside the SPN ciphers (AES, GIFT, PRESENT). SIMON is a Feistel cipher
// with AND/rotate round functions; SPECK is an ARX design (modular
// addition, rotation, XOR) whose fault differentials interact with the
// carry chain of the addition. Fault models discovered for the SPN
// ciphers (AES diagonals, GIFT nibbles) do not carry over, while the
// ExploreFault pipeline applies unchanged.
//
// Both families iterate on a pair of n-bit words under a four-word key, so
// one Cipher serves all four variants. The key schedule and the round
// function (scalar, inverse and lane-packed) are per family; the word
// loads and stores, fault injection, trace capture, decryption and the
// fork kernel are shared.
//
// State layout follows the repository convention: the block is x||y with x
// the left/high word as in the specification; internally y occupies state
// bits [0, n) and x bits [n, 2n), so state bit i is bit i%8 of byte i/8.
// "PostSub" records the state after the round's nonlinear step: for SIMON
// the state right after the Feistel swap, for SPECK the state after the
// ARX mixing.
package simonspeck

import (
	"fmt"

	"repro/internal/ciphers"
)

// Variant selects a family member.
type Variant int

const (
	// Simon64_128: 64-bit block, 128-bit key, 44 rounds.
	Simon64_128 Variant = iota
	// Simon32_64: 32-bit block, 64-bit key, 32 rounds.
	Simon32_64
	// Speck64_128: 64-bit block, 128-bit key, 27 rounds.
	Speck64_128
	// Speck32_64: 32-bit block, 64-bit key, 22 rounds.
	Speck32_64
)

// keyWords is the key length in words of every variant.
const keyWords = 4

// z-sequences of the SIMON key schedules (z3 for Simon64/128, z0 for
// Simon32/64), from the SIMON specification.
const (
	z0 = "11111010001001010110000111001101111101000100101011000011100110"
	z3 = "11011011101011000110010111100000010010001010011100110100001111"
)

// variants holds each member's parameters. New, Name and the registry
// entries all read them from here.
var variants = [...]struct {
	name        string
	speck       bool // ARX family; false is SIMON
	wordBits    uint
	rounds      int
	alpha, beta uint   // SPECK: right rotation of x, left rotation of y
	z           string // SIMON: key-schedule constant sequence
}{
	Simon64_128: {name: "simon64", wordBits: 32, rounds: 44, z: z3},
	Simon32_64:  {name: "simon32", wordBits: 16, rounds: 32, z: z0},
	Speck64_128: {name: "speck64", speck: true, wordBits: 32, rounds: 27, alpha: 8, beta: 3},
	Speck32_64:  {name: "speck32", speck: true, wordBits: 16, rounds: 22, alpha: 7, beta: 2},
}

// Cipher is a keyed SIMON or SPECK instance.
type Cipher struct {
	variant     Variant
	speck       bool
	wordBits    uint
	rounds      int
	alpha, beta uint
	roundKeys   []uint32
}

// New creates an instance of variant v. The key is given in the
// specification's byte order, highest key word first.
func New(v Variant, key []byte) (*Cipher, error) {
	if v < 0 || int(v) >= len(variants) {
		return nil, fmt.Errorf("simonspeck: unknown variant %d", v)
	}
	p := &variants[v]
	c := &Cipher{variant: v, speck: p.speck, wordBits: p.wordBits, rounds: p.rounds, alpha: p.alpha, beta: p.beta}
	bytesPerWord := int(c.wordBits) / 8
	if want := keyWords * bytesPerWord; len(key) != want {
		return nil, fmt.Errorf("%s: key must be %d bytes, got %d", p.name, want, len(key))
	}
	// w[0] is the LAST word of the byte string.
	var w [keyWords]uint32
	for i := range w {
		off := (keyWords - 1 - i) * bytesPerWord
		for j := 0; j < bytesPerWord; j++ {
			w[i] = w[i]<<8 | uint32(key[off+j])
		}
	}
	c.roundKeys = make([]uint32, c.rounds)
	if c.speck {
		c.speckSchedule(w)
	} else {
		c.simonSchedule(w, p.z)
	}
	return c, nil
}

// mask is the word mask 2^n - 1 (the shift yields 0 for n = 32).
func (c *Cipher) mask() uint32 { return uint32(1)<<c.wordBits - 1 }

func (c *Cipher) rotl(x uint32, r uint) uint32 {
	return (x<<r | x>>(c.wordBits-r)) & c.mask()
}

func (c *Cipher) rotr(x uint32, r uint) uint32 {
	return (x>>r | x<<(c.wordBits-r)) & c.mask()
}

// simonSchedule computes SIMON's round keys for m = 4 key words.
func (c *Cipher) simonSchedule(w [keyWords]uint32, z string) {
	k := c.roundKeys
	copy(k, w[:])
	cconst := c.mask() ^ 3 // 2^n - 4
	for i := keyWords; i < c.rounds; i++ {
		tmp := c.rotr(k[i-1], 3) ^ k[i-3]
		tmp ^= c.rotr(tmp, 1)
		k[i] = k[i-keyWords] ^ tmp ^ uint32(z[(i-keyWords)%62]-'0') ^ cconst
	}
}

// speckSchedule runs the SPECK key schedule: the key words beyond w[0]
// form a rotating l-register mixed with the round function, keyed by the
// round counter.
func (c *Cipher) speckSchedule(w [keyWords]uint32) {
	k := w[0]
	l := w[1:]
	for i := 0; i < c.rounds; i++ {
		c.roundKeys[i] = k
		if i == c.rounds-1 {
			break
		}
		l[i%(keyWords-1)], k = c.speckRound(l[i%(keyWords-1)], k, uint32(i))
	}
}

// simonF is the SIMON round function.
func (c *Cipher) simonF(x uint32) uint32 {
	return c.rotl(x, 1)&c.rotl(x, 8) ^ c.rotl(x, 2)
}

// speckRound applies one SPECK round to (x, y) with round key k.
func (c *Cipher) speckRound(x, y, k uint32) (uint32, uint32) {
	x = (c.rotr(x, c.alpha) + y) & c.mask()
	x ^= k
	y = c.rotl(y, c.beta) ^ x
	return x, y
}

// speckInvRound inverts speckRound.
func (c *Cipher) speckInvRound(x, y, k uint32) (uint32, uint32) {
	y = c.rotr(y^x, c.beta)
	x ^= k
	x = c.rotl((x-y)&c.mask(), c.alpha)
	return x, y
}

// round applies one round of the instance's family to (x, y) with round
// key k: SPECK's ARX round, or SIMON's Feistel step around simonF.
func (c *Cipher) round(x, y, k uint32) (uint32, uint32) {
	if c.speck {
		return c.speckRound(x, y, k)
	}
	return y ^ c.simonF(x) ^ k, x
}

// invRound inverts round.
func (c *Cipher) invRound(x, y, k uint32) (uint32, uint32) {
	if c.speck {
		return c.speckInvRound(x, y, k)
	}
	return y, x ^ c.simonF(y) ^ k
}

// Name implements ciphers.Cipher.
func (c *Cipher) Name() string { return variants[c.variant].name }

// BlockBytes implements ciphers.Cipher.
func (c *Cipher) BlockBytes() int { return 2 * int(c.wordBits) / 8 }

// Rounds implements ciphers.Cipher.
func (c *Cipher) Rounds() int { return c.rounds }

// GroupBits implements ciphers.Cipher. Neither family has S-boxes; bytes
// are the natural grouping for differential statistics.
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
		x, y = c.round(x, y, c.roundKeys[r-1])
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
		x, y = c.invRound(x, y, c.roundKeys[r-1])
	}
	c.storeBE(dst, x, y)
}

func init() {
	for v, p := range variants {
		ciphers.Register(ciphers.Info{
			Name:       p.name,
			BlockBytes: 2 * int(p.wordBits) / 8,
			KeyBytes:   keyWords * int(p.wordBits) / 8,
			Rounds:     p.rounds,
			GroupBits:  8,
			New: func(key []byte) (ciphers.Cipher, error) {
				return New(Variant(v), key)
			},
		})
	}
}
