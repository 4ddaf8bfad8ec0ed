// Package aes implements AES-128 (FIPS-197) at trace level: every round
// input and post-SubBytes state can be captured, and XOR faults can be
// injected at any round input. crypto/aes cannot serve here because fault
// attacks need access to the iterative structure.
//
// # State layout
//
// The 16-byte state uses the standard flat AES indexing: byte i holds the
// element at row i%4, column i/4, and plaintext/ciphertext bytes map to
// state bytes in order (FIPS-197 §3.4). State bit b (0..127) is bit b%8 of
// state byte b/8, matching the repository-wide convention.
//
// # Diagonals
//
// Diagonal d (d = 0..3) is the byte set {i : (i%4 - i/4) mod 4 == d}; e.g.
// diagonal 2 is {2, 7, 8, 13}, the fault model of Saha et al. that the RL
// agent converges to in §IV-B of the paper. ShiftRows maps a diagonal into
// a single column, which is what makes diagonal faults exploitable.
package aes

import (
	"fmt"

	"repro/internal/ciphers"
)

// NumRounds is the AES-128 round count.
const NumRounds = 10

// BlockBytes is the AES block size in bytes.
const BlockBytes = 16

// KeyBytes is the AES-128 key size in bytes.
const KeyBytes = 16

// sbox and invSbox are generated in init from the GF(2^8) inverse and the
// FIPS-197 affine transform, then spot-checked by the test suite against
// published values. Generating them avoids 512 hand-transcribed constants.
var (
	sbox    [256]byte
	invSbox [256]byte
)

// mulGF multiplies two elements of GF(2^8) modulo x^8+x^4+x^3+x+1.
func mulGF(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

func init() {
	// Build the multiplicative inverse table via the 3-generator trick:
	// 3 is a generator of GF(2^8)*, so exp/log tables give inverses.
	var exp [256]byte
	var log [256]byte
	x := byte(1)
	for i := 0; i < 255; i++ {
		exp[i] = x
		log[x] = byte(i)
		x = mulGF(x, 3)
	}
	inv := func(a byte) byte {
		if a == 0 {
			return 0
		}
		return exp[(255-int(log[a]))%255]
	}
	for i := 0; i < 256; i++ {
		v := inv(byte(i))
		// Affine transform: b ^ rot1 ^ rot2 ^ rot3 ^ rot4 ^ 0x63.
		s := v ^ rotl8(v, 1) ^ rotl8(v, 2) ^ rotl8(v, 3) ^ rotl8(v, 4) ^ 0x63
		sbox[i] = s
		invSbox[s] = byte(i)
	}
}

func rotl8(v byte, k uint) byte { return v<<k | v>>(8-k) }

// SBox returns the forward S-box value (exported for the DFA analyzer).
func SBox(b byte) byte { return sbox[b] }

// InvSBox returns the inverse S-box value.
func InvSBox(b byte) byte { return invSbox[b] }

// MulGF exposes GF(2^8) multiplication (used by the DFA analyzer to check
// MixColumns difference patterns).
func MulGF(a, b byte) byte { return mulGF(a, b) }

// Cipher is an AES-128 instance with an expanded key schedule. rkWords
// holds the round keys as little-endian column words for the T-table
// batch kernel (see batch.go).
type Cipher struct {
	roundKeys [NumRounds + 1][16]byte
	rkWords   [NumRounds + 1][4]uint32
}

// New expands an AES-128 key. The key must be exactly 16 bytes.
func New(key []byte) (*Cipher, error) {
	if len(key) != KeyBytes {
		return nil, fmt.Errorf("aes: key must be %d bytes, got %d", KeyBytes, len(key))
	}
	c := new(Cipher)
	c.expandKey(key)
	return c, nil
}

// expandKey computes the 11 round keys of FIPS-197 §5.2.
func (c *Cipher) expandKey(key []byte) {
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	rcon := byte(1)
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			// RotWord + SubWord + Rcon.
			t = [4]byte{sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			t[0] ^= rcon
			rcon = mulGF(rcon, 2)
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-4][j] ^ t[j]
		}
	}
	for r := 0; r <= NumRounds; r++ {
		for i := 0; i < 4; i++ {
			copy(c.roundKeys[r][4*i:4*i+4], w[4*r+i][:])
		}
		loadWords(&c.rkWords[r], c.roundKeys[r][:])
	}
}

// RoundKey returns round key r (0 = whitening key, 10 = final key).
func (c *Cipher) RoundKey(r int) [16]byte {
	if r < 0 || r > NumRounds {
		panic("aes: round key index out of range")
	}
	return c.roundKeys[r]
}

// Name implements ciphers.Cipher.
func (c *Cipher) Name() string { return "aes128" }

// BlockBytes implements ciphers.Cipher.
func (c *Cipher) BlockBytes() int { return BlockBytes }

// Rounds implements ciphers.Cipher.
func (c *Cipher) Rounds() int { return NumRounds }

// GroupBits implements ciphers.Cipher: AES substitutes bytes.
func (c *Cipher) GroupBits() int { return 8 }

// shiftRows applies ShiftRows in place: row r rotates left by r.
func shiftRows(s *[16]byte) {
	s[1], s[5], s[9], s[13] = s[5], s[9], s[13], s[1]
	s[2], s[6], s[10], s[14] = s[10], s[14], s[2], s[6]
	s[3], s[7], s[11], s[15] = s[15], s[3], s[7], s[11]
}

// invShiftRows applies the inverse of shiftRows in place.
func invShiftRows(s *[16]byte) {
	s[5], s[9], s[13], s[1] = s[1], s[5], s[9], s[13]
	s[10], s[14], s[2], s[6] = s[2], s[6], s[10], s[14]
	s[15], s[3], s[7], s[11] = s[3], s[7], s[11], s[15]
}

// mixColumns applies MixColumns in place.
func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = mulGF(a0, 2) ^ mulGF(a1, 3) ^ a2 ^ a3
		s[4*c+1] = a0 ^ mulGF(a1, 2) ^ mulGF(a2, 3) ^ a3
		s[4*c+2] = a0 ^ a1 ^ mulGF(a2, 2) ^ mulGF(a3, 3)
		s[4*c+3] = mulGF(a0, 3) ^ a1 ^ a2 ^ mulGF(a3, 2)
	}
}

// invMixColumns applies the inverse of mixColumns in place.
func invMixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = mulGF(a0, 0x0e) ^ mulGF(a1, 0x0b) ^ mulGF(a2, 0x0d) ^ mulGF(a3, 0x09)
		s[4*c+1] = mulGF(a0, 0x09) ^ mulGF(a1, 0x0e) ^ mulGF(a2, 0x0b) ^ mulGF(a3, 0x0d)
		s[4*c+2] = mulGF(a0, 0x0d) ^ mulGF(a1, 0x09) ^ mulGF(a2, 0x0e) ^ mulGF(a3, 0x0b)
		s[4*c+3] = mulGF(a0, 0x0b) ^ mulGF(a1, 0x0d) ^ mulGF(a2, 0x09) ^ mulGF(a3, 0x0e)
	}
}

func addRoundKey(s *[16]byte, k *[16]byte) {
	for i := range s {
		s[i] ^= k[i]
	}
}

// Encrypt implements ciphers.Cipher. The input of round r is the state
// after the whitening key (r = 1) or after round r-1's AddRoundKey.
func (c *Cipher) Encrypt(dst, src []byte, fault *ciphers.Fault, trace *ciphers.Trace) {
	fault.Validate(c)
	var s [16]byte
	copy(s[:], src)
	addRoundKey(&s, &c.roundKeys[0])
	for r := 1; r <= NumRounds; r++ {
		if fault != nil && fault.Round == r {
			if fault.And != nil {
				for i := range s {
					s[i] &= fault.And[i]
				}
			}
			if fault.Mask != nil {
				for i := range s {
					s[i] ^= fault.Mask[i]
				}
			}
		}
		if trace != nil {
			copy(trace.Inputs[r-1], s[:])
		}
		for i := range s {
			s[i] = sbox[s[i]]
		}
		if trace != nil {
			copy(trace.PostSub[r-1], s[:])
		}
		shiftRows(&s)
		if r < NumRounds {
			mixColumns(&s)
		}
		addRoundKey(&s, &c.roundKeys[r])
	}
	copy(dst, s[:])
	if trace != nil {
		copy(trace.Ciphertext, s[:])
	}
}

// Decrypt inverts Encrypt (no fault or trace support; used for testing and
// for key-recovery verification).
func (c *Cipher) Decrypt(dst, src []byte) {
	var s [16]byte
	copy(s[:], src)
	addRoundKey(&s, &c.roundKeys[NumRounds])
	invShiftRows(&s)
	for i := range s {
		s[i] = invSbox[s[i]]
	}
	for r := NumRounds - 1; r >= 1; r-- {
		addRoundKey(&s, &c.roundKeys[r])
		invMixColumns(&s)
		invShiftRows(&s)
		for i := range s {
			s[i] = invSbox[s[i]]
		}
	}
	addRoundKey(&s, &c.roundKeys[0])
	copy(dst, s[:])
}

// Diagonal returns the state byte indices of diagonal d (0..3):
// {i : (i%4 - i/4) mod 4 == d}. Diagonal 2 is the paper's {2, 7, 8, 13}.
func Diagonal(d int) [4]int {
	if d < 0 || d > 3 {
		panic("aes: diagonal index out of range")
	}
	var out [4]int
	k := 0
	for i := 0; i < 16; i++ {
		if ((i%4-i/4)%4+4)%4 == d {
			out[k] = i
			k++
		}
	}
	return out
}

// DiagonalOf returns which diagonal state byte i lies on.
func DiagonalOf(i int) int {
	if i < 0 || i > 15 {
		panic("aes: byte index out of range")
	}
	return ((i%4-i/4)%4 + 4) % 4
}

// ShiftRowsIndex returns the state index that byte i moves to under
// ShiftRows (exported for the DFA analyzer's ciphertext-position mapping).
func ShiftRowsIndex(i int) int {
	row, col := i%4, i/4
	newCol := ((col-row)%4 + 4) % 4
	return 4*newCol + row
}

func init() {
	ciphers.Register(ciphers.Info{
		Name:       "aes128",
		BlockBytes: BlockBytes,
		KeyBytes:   KeyBytes,
		Rounds:     NumRounds,
		GroupBits:  8,
		New: func(key []byte) (ciphers.Cipher, error) {
			return New(key)
		},
	})
}
