// The batched AES fork kernel: a T-table/32-bit-word round implementation
// with shared-prefix forking.
//
// The 16-byte state is held as four little-endian column words
// (word c packs state bytes 4c..4c+3), and each inner round fuses
// SubBytes, ShiftRows, MixColumns and AddRoundKey into four table lookups
// plus XORs per column — replacing the reference path's 32 loop-based
// GF(2^8) multiplications per round. Rounds observed by the campaign
// additionally materialize the byte-level round input and post-SubBytes
// state, exactly as the scalar Encrypt records them, so captured traces
// are bit-identical to the reference path.
package aes

import (
	"encoding/binary"
	"sync"

	"repro/internal/ciphers"
)

// te0..te3 are the four forward T-tables: te0[x] packs the MixColumns
// column (2·S(x), S(x), S(x), 3·S(x)) as a little-endian word and
// te1..te3 are its byte rotations. Built on first kernel use, after the
// package init has generated the S-box.
var (
	ttableOnce sync.Once
	te0        [256]uint32
	te1        [256]uint32
	te2        [256]uint32
	te3        [256]uint32
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

// storeSubWords writes sbox applied bytewise to the word state: the
// post-SubBytes capture of a round whose input is s.
func storeSubWords(b []byte, w *[4]uint32) {
	for c := 0; c < 4; c++ {
		v := w[c]
		b[4*c] = sbox[byte(v)]
		b[4*c+1] = sbox[byte(v>>8)]
		b[4*c+2] = sbox[byte(v>>16)]
		b[4*c+3] = sbox[byte(v>>24)]
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

// lastRound runs round 10 (no MixColumns) on the word state.
func lastRound(s *[4]uint32, rk *[4]uint32) {
	s0 := uint32(sbox[byte(s[0])]) | uint32(sbox[byte(s[1]>>8)])<<8 | uint32(sbox[byte(s[2]>>16)])<<16 | uint32(sbox[byte(s[3]>>24)])<<24 ^ rk[0]
	s1 := uint32(sbox[byte(s[1])]) | uint32(sbox[byte(s[2]>>8)])<<8 | uint32(sbox[byte(s[3]>>16)])<<16 | uint32(sbox[byte(s[0]>>24)])<<24 ^ rk[1]
	s2 := uint32(sbox[byte(s[2])]) | uint32(sbox[byte(s[3]>>8)])<<8 | uint32(sbox[byte(s[0]>>16)])<<16 | uint32(sbox[byte(s[1]>>24)])<<24 ^ rk[2]
	s3 := uint32(sbox[byte(s[3])]) | uint32(sbox[byte(s[0]>>8)])<<8 | uint32(sbox[byte(s[1]>>16)])<<16 | uint32(sbox[byte(s[2]>>24)])<<24 ^ rk[3]
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}

// advance runs round r on the word state.
func advance(s *[4]uint32, rk *[4]uint32, r int) {
	if r == NumRounds {
		lastRound(s, rk)
	} else {
		tRound(s, rk)
	}
}

// batchKernel implements ciphers.BatchKernel. AES processes traces
// independently (the kernel's speed comes from the word rounds and the
// prefix sharing, not cross-trace packing), so it carries no scratch
// state beyond the cipher's word round keys.
type batchKernel struct {
	c *Cipher
}

// NewBatchKernel implements ciphers.BatchEncrypter.
func (c *Cipher) NewBatchKernel() ciphers.BatchKernel {
	ttableOnce.Do(buildTTables)
	return &batchKernel{c: c}
}

// EncryptForksOps implements ciphers.BatchKernel: the AND half of the
// injection pair costs four extra word ANDs per faulted branch, applied to
// the fork snapshot before the XOR half.
func (k *batchKernel) EncryptForksOps(round int, points []ciphers.BatchPoint, n int, pts []byte, xors, ands, states, cts [][]byte) {
	ciphers.ValidateForksOps(k.c, round, points, n, pts, xors, ands, states, cts)
	masks := xors
	np := len(points)
	rk := &k.c.rkWords
	for i := 0; i < n; i++ {
		var snap [4]uint32
		loadWords(&snap, pts[i*BlockBytes:])
		snap[0] ^= rk[0][0]
		snap[1] ^= rk[0][1]
		snap[2] ^= rk[0][2]
		snap[3] ^= rk[0][3]
		for r := 1; r < round; r++ {
			advance(&snap, &rk[r], r)
		}
		for f := range masks {
			s := snap
			if ands != nil && ands[f] != nil {
				var aw [4]uint32
				loadWords(&aw, ands[f][i*BlockBytes:])
				s[0] &= aw[0]
				s[1] &= aw[1]
				s[2] &= aw[2]
				s[3] &= aw[3]
			}
			if m := masks[f]; m != nil {
				var mw [4]uint32
				loadWords(&mw, m[i*BlockBytes:])
				s[0] ^= mw[0]
				s[1] ^= mw[1]
				s[2] ^= mw[2]
				s[3] ^= mw[3]
			}
			st := states[f]
			base := i * np * BlockBytes
			for r := round; r <= NumRounds; r++ {
				if st != nil {
					for j, p := range points {
						if p.Round != r {
							continue
						}
						if p.PostSub {
							storeSubWords(st[base+j*BlockBytes:], &s)
						} else {
							storeWords(st[base+j*BlockBytes:], &s)
						}
					}
				}
				advance(&s, &rk[r], r)
			}
			if st != nil {
				for j, p := range points {
					if p.Round == 0 {
						storeWords(st[base+j*BlockBytes:], &s)
					}
				}
			}
			if ct := cts[f]; ct != nil {
				storeWords(ct[i*BlockBytes:], &s)
			}
		}
	}
}
