// The AES fork steps: a T-table/32-bit-word round implementation over a
// block of traces.
//
// The 16-byte state is held as four little-endian column words
// (word c packs state bytes 4c..4c+3), and each inner round fuses
// SubBytes, ShiftRows, MixColumns and AddRoundKey into four table lookups
// plus XORs per column — replacing the reference path's 32 loop-based
// GF(2^8) multiplications per round. Rounds observed by the campaign
// additionally materialize the byte-level round input and post-SubBytes
// state, exactly as the scalar Encrypt records them, so captured traces
// are bit-identical to the reference path. AES packs no traces across
// words, so the same steps serve blocks of every size.
package aes

import (
	"encoding/binary"
	"sync"

	"repro/internal/ciphers"
)

// te0..te3 are the four forward T-tables: te0[x] packs the MixColumns
// column (2·S(x), S(x), S(x), 3·S(x)) as a little-endian word and
// te1..te3 are its byte rotations. identity is the byte table lastRound
// reads once SubBytes has run. Built on first kernel use, after the
// package init has generated the S-box.
var (
	ttableOnce sync.Once
	te0        [256]uint32
	te1        [256]uint32
	te2        [256]uint32
	te3        [256]uint32
	identity   [256]byte
)

func buildTTables() {
	for x := 0; x < 256; x++ {
		s := sbox[x]
		s2 := mulGF(s, 2)
		s3 := mulGF(s, 3)
		w := uint32(s2) | uint32(s)<<8 | uint32(s)<<16 | uint32(s3)<<24
		te0[x] = w
		te1[x] = w<<8 | w>>24
		te2[x] = w<<16 | w>>16
		te3[x] = w<<24 | w>>8
		identity[x] = byte(x)
	}
}

// loadWords packs 16 state bytes into four little-endian column words.
func loadWords(w *[4]uint32, b []byte) {
	w[0] = binary.LittleEndian.Uint32(b[0:])
	w[1] = binary.LittleEndian.Uint32(b[4:])
	w[2] = binary.LittleEndian.Uint32(b[8:])
	w[3] = binary.LittleEndian.Uint32(b[12:])
}

// storeWords is the inverse of loadWords.
func storeWords(b []byte, w *[4]uint32) {
	binary.LittleEndian.PutUint32(b[0:], w[0])
	binary.LittleEndian.PutUint32(b[4:], w[1])
	binary.LittleEndian.PutUint32(b[8:], w[2])
	binary.LittleEndian.PutUint32(b[12:], w[3])
}

// subWords applies box to every byte of the word state.
func subWords(w *[4]uint32, box *[256]byte) {
	for c, v := range w {
		w[c] = uint32(box[byte(v)]) | uint32(box[byte(v>>8)])<<8 | uint32(box[byte(v>>16)])<<16 | uint32(box[byte(v>>24)])<<24
	}
}

// tRound runs one inner round (SubBytes+ShiftRows+MixColumns+AddRoundKey)
// on the word state. Row r of column c comes from column (c+r) mod 4
// after ShiftRows, which is byte r of word (c+r)&3.
func tRound(s *[4]uint32, rk *[4]uint32) {
	s0 := te0[byte(s[0])] ^ te1[byte(s[1]>>8)] ^ te2[byte(s[2]>>16)] ^ te3[byte(s[3]>>24)] ^ rk[0]
	s1 := te0[byte(s[1])] ^ te1[byte(s[2]>>8)] ^ te2[byte(s[3]>>16)] ^ te3[byte(s[0]>>24)] ^ rk[1]
	s2 := te0[byte(s[2])] ^ te1[byte(s[3]>>8)] ^ te2[byte(s[0]>>16)] ^ te3[byte(s[1]>>24)] ^ rk[2]
	s3 := te0[byte(s[3])] ^ te1[byte(s[0]>>8)] ^ te2[byte(s[1]>>16)] ^ te3[byte(s[2]>>24)] ^ rk[3]
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// lastRound runs round 10 (no MixColumns) on the word state, reading
// each byte through box: the S-box for the whole round, identity for the
// rest of it once SubBytes has run.
func lastRound(s *[4]uint32, rk *[4]uint32, box *[256]byte) {
	s0 := uint32(box[byte(s[0])]) | uint32(box[byte(s[1]>>8)])<<8 | uint32(box[byte(s[2]>>16)])<<16 | uint32(box[byte(s[3]>>24)])<<24 ^ rk[0]
	s1 := uint32(box[byte(s[1])]) | uint32(box[byte(s[2]>>8)])<<8 | uint32(box[byte(s[3]>>16)])<<16 | uint32(box[byte(s[0]>>24)])<<24 ^ rk[1]
	s2 := uint32(box[byte(s[2])]) | uint32(box[byte(s[3]>>8)])<<8 | uint32(box[byte(s[0]>>16)])<<16 | uint32(box[byte(s[1]>>24)])<<24 ^ rk[2]
	s3 := uint32(box[byte(s[3])]) | uint32(box[byte(s[0]>>8)])<<8 | uint32(box[byte(s[1]>>16)])<<16 | uint32(box[byte(s[2]>>24)])<<24 ^ rk[3]
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// blockSteps implement ciphers.ForkSteps on the word states of a block
// of traces, and carry the fork snapshot beside them.
type blockSteps struct {
	c        *Cipher
	base, bn int
	s, snap  [ciphers.LaneBlock][4]uint32
}

// NewBatchKernel implements ciphers.BatchEncrypter.
func (c *Cipher) NewBatchKernel() ciphers.BatchKernel {
	ttableOnce.Do(buildTTables)
	k := &blockSteps{c: c}
	return ciphers.NewForkKernel(c, k, k)
}

// Load implements ciphers.ForkSteps: the plaintext words XOR round key 0.
func (k *blockSteps) Load(pts []byte, base, bn int) {
	k.base, k.bn = base, bn
	for t := range k.s[:bn] {
		loadWords(&k.s[t], pts[(base+t)*BlockBytes:])
		for j, w := range k.c.rkWords[0] {
			k.s[t][j] ^= w
		}
	}
}

// Rounds implements ciphers.ForkSteps.
func (k *blockSteps) Rounds(from, to int) {
	rk := &k.c.rkWords
	for t := range k.s[:k.bn] {
		for r := from; r < to; r++ {
			if r == NumRounds {
				lastRound(&k.s[t], &rk[r], &sbox)
			} else {
				tRound(&k.s[t], &rk[r])
			}
		}
	}
}

// Sub implements ciphers.ForkSteps: SubBytes on the word state.
func (k *blockSteps) Sub(int) {
	for t := range k.s[:k.bn] {
		subWords(&k.s[t], &sbox)
	}
}

// Finish implements ciphers.ForkSteps. The last round reads the
// substituted bytes through the identity table; an inner round's
// T-tables fold SubBytes in, so it is undone first.
func (k *blockSteps) Finish(r int) {
	rk := &k.c.rkWords[r]
	for t := range k.s[:k.bn] {
		if r == NumRounds {
			lastRound(&k.s[t], rk, &identity)
		} else {
			subWords(&k.s[t], &invSbox)
			tRound(&k.s[t], rk)
		}
	}
}

// Save implements ciphers.ForkSteps.
func (k *blockSteps) Save() { copy(k.snap[:k.bn], k.s[:k.bn]) }

// Fork implements ciphers.ForkSteps: four word ANDs and four word XORs
// per trace.
func (k *blockSteps) Fork(and, xor []byte) {
	for t := range k.s[:k.bn] {
		s, o := k.snap[t], (k.base+t)*BlockBytes
		var w [4]uint32
		if and != nil {
			loadWords(&w, and[o:])
			s[0], s[1], s[2], s[3] = s[0]&w[0], s[1]&w[1], s[2]&w[2], s[3]&w[3]
		}
		if xor != nil {
			loadWords(&w, xor[o:])
			s[0], s[1], s[2], s[3] = s[0]^w[0], s[1]^w[1], s[2]^w[2], s[3]^w[3]
		}
		k.s[t] = s
	}
}

// Store implements ciphers.ForkSteps. The word state's bytes are the
// state in trace order, which for AES is also Encrypt's dst order.
func (k *blockSteps) Store(dst []byte, stride, off int, _ bool) {
	for t := range k.s[:k.bn] {
		storeWords(dst[(k.base+t)*stride+off:], &k.s[t])
	}
}
