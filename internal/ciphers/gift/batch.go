// The batched GIFT fork kernel: a bitsliced implementation packing 64
// traces per uint64 lane, with shared-prefix forking.
//
// In bitsliced form lane b holds state bit b of 64 traces at once, so one
// round costs a fixed number of word operations for the whole block:
// SubCells becomes the S-box's boolean circuit over 4 lanes per nibble,
// PermBits becomes a lane renumbering, and AddRoundKey complements the
// lanes selected by the precomputed round mask. Blocks smaller than
// eight traces (and the tail of a ragged batch) take a per-trace path
// that reuses the scalar round functions with prefix sharing, so both
// paths are bit-identical to Encrypt.
package gift

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
)

// laneBlock is the number of traces packed per bitsliced block: one per
// bit of a uint64 lane.
const laneBlock = 64

// bitsliceMin is the smallest block worth transposing into lanes; below
// it the per-trace fork path wins.
const bitsliceMin = 8

// kernel implements ciphers.BatchKernel for both GIFT variants.
type kernel struct {
	c     *Cipher
	nbits int
	// lanes/tmp/snap are the bitsliced state, the PermBits double
	// buffer, and the fork snapshot: nbits lanes of 64 traces each.
	lanes, tmp, snap []uint64
	// rows is the transpose scratch: one state word per trace.
	rows [laneBlock]uint64
}

// NewBatchKernel implements ciphers.BatchEncrypter.
func (c *Cipher) NewBatchKernel() ciphers.BatchKernel {
	nbits := 8 * c.BlockBytes()
	return &kernel{
		c:     c,
		nbits: nbits,
		lanes: make([]uint64, nbits),
		tmp:   make([]uint64, nbits),
		snap:  make([]uint64, nbits),
	}
}

// transpose64 converts trace state words to lanes and back; the in-place
// 64x64 bit transpose (an involution) is shared by all bitsliced kernels
// via bitvec.Transpose64.
func transpose64(a *[laneBlock]uint64) { bitvec.Transpose64(a) }

// sboxLanes applies the GIFT S-box to one bitsliced nibble. The circuit
// is the standard software bitslice of GS (Banik et al.); it is verified
// against the lookup table by the test suite.
func sboxLanes(l *[4]uint64) {
	s0, s1, s2, s3 := l[0], l[1], l[2], l[3]
	s1 ^= s0 & s2
	s0 ^= s1 & s3
	s2 ^= s0 | s1
	s3 ^= s2
	s1 ^= s3
	s3 = ^s3
	s2 ^= s0 & s1
	l[0], l[1], l[2], l[3] = s3, s1, s2, s0
}

// subCellsLanes applies the S-box circuit to every nibble of the lanes,
// in place.
func (k *kernel) subCellsLanes() {
	for nib := 0; nib < k.nbits; nib += 4 {
		sboxLanes((*[4]uint64)(k.lanes[nib : nib+4]))
	}
}

// permBitsLanes renumbers the lanes through the variant's bit
// permutation.
func (k *kernel) permBitsLanes(perm []int) {
	for i, p := range perm {
		k.tmp[p] = k.lanes[i]
	}
	k.lanes, k.tmp = k.tmp, k.lanes
}

// addRoundKeyLanes complements every lane selected by round r's
// precomputed AddRoundKey mask (XOR with an all-set key bit is a NOT
// across all 64 traces of the lane).
func (k *kernel) addRoundKeyLanes(r int) {
	m := k.c.rkMask[r-1]
	for wi := 0; wi < (k.nbits+63)/64; wi++ {
		w := m[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			k.lanes[64*wi+b] = ^k.lanes[64*wi+b]
			w &= w - 1
		}
	}
}

// loadRows gathers one state word (words[wi]) per trace of the block
// into k.rows, zero-padding past bn.
func (k *kernel) loadRowsBE(pts []byte, base, bn, wi int) {
	bb := k.c.BlockBytes()
	for t := 0; t < bn; t++ {
		var s state
		s.loadBE(pts[(base+t)*bb:(base+t+1)*bb], bb)
		k.rows[t] = s[wi]
	}
	for t := bn; t < laneBlock; t++ {
		k.rows[t] = 0
	}
}

// loadRowsLE gathers word wi of each trace's little-endian (repository
// bit order) block — the layout of fault masks — into k.rows. The LE
// byte encoding is exactly the little-endian encoding of the state
// words, so this is a direct load.
func (k *kernel) loadRowsLE(masks []byte, base, bn, wi int) {
	bb := k.c.BlockBytes()
	for t := 0; t < bn; t++ {
		off := (base+t)*bb + 8*wi
		if bb-8*wi >= 8 {
			k.rows[t] = binary.LittleEndian.Uint64(masks[off:])
		} else {
			var w uint64
			for j := 0; j < bb-8*wi; j++ {
				w |= uint64(masks[off+j]) << (8 * uint(j))
			}
			k.rows[t] = w
		}
	}
	for t := bn; t < laneBlock; t++ {
		k.rows[t] = 0
	}
}

// captureLanes transposes the current lanes back to per-trace words and
// writes each live trace's state into dst at stride*traceIndex+off,
// little-endian (trace order) or big-endian (ciphertext order). State
// word wi holds bits 64*wi.. of the block: in trace order it is bytes
// 8*wi.. read little-endian, in ciphertext order the eight bytes ending
// 8*wi bytes before the block's end, read big-endian.
func (k *kernel) captureLanes(dst []byte, base, bn, stride, off int, bigEndian bool) {
	bb := k.c.BlockBytes()
	words := (k.nbits + 63) / 64
	for wi := 0; wi < words; wi++ {
		copy(k.rows[:], k.lanes[64*wi:64*wi+64])
		transpose64(&k.rows)
		for t := 0; t < bn; t++ {
			at := dst[(base+t)*stride+off:]
			if bigEndian {
				binary.BigEndian.PutUint64(at[bb-8*(wi+1):], k.rows[t])
			} else {
				binary.LittleEndian.PutUint64(at[8*wi:], k.rows[t])
			}
		}
	}
}

// EncryptForksOps implements ciphers.BatchKernel. In bitsliced form the
// AND half of the injection pair is one extra AND per lane word on the
// faulted branch: the mask rows are transposed exactly like the XOR rows
// and clamp all 64 traces of a lane at once. Dead lanes past bn are ANDed
// with the zero padding, which is harmless because captures never read
// them.
func (k *kernel) EncryptForksOps(round int, points []ciphers.BatchPoint, n int, pts []byte, xors, ands, states, cts [][]byte) {
	ciphers.ValidateForksOps(k.c, round, points, n, pts, xors, ands, states, cts)
	for base := 0; base < n; {
		bn := n - base
		if bn > laneBlock {
			bn = laneBlock
		}
		if bn >= bitsliceMin {
			k.forkBlock(round, points, base, bn, pts, xors, ands, states, cts)
		} else {
			k.forkScalar(round, points, base, bn, pts, xors, ands, states, cts)
		}
		base += bn
	}
}

// forkBlock runs one bitsliced block of bn <= 64 traces.
func (k *kernel) forkBlock(round int, points []ciphers.BatchPoint, base, bn int, pts []byte, masks, ands, states, cts [][]byte) {
	c := k.c
	bb := c.BlockBytes()
	np := len(points)
	words := (k.nbits + 63) / 64
	perm := perm64[:]
	if c.variant == GIFT128 {
		perm = perm128[:]
	}

	// Transpose the block's plaintexts into lanes.
	for wi := 0; wi < words; wi++ {
		k.loadRowsBE(pts, base, bn, wi)
		transpose64(&k.rows)
		copy(k.lanes[64*wi:64*wi+64], k.rows[:])
	}
	// Shared prefix: rounds before the injection point, computed once.
	for r := 1; r < round; r++ {
		k.subCellsLanes()
		k.permBitsLanes(perm)
		k.addRoundKeyLanes(r)
	}
	copy(k.snap, k.lanes)

	for f := range masks {
		if f > 0 {
			copy(k.lanes, k.snap)
		}
		if ands != nil && ands[f] != nil {
			for wi := 0; wi < words; wi++ {
				k.loadRowsLE(ands[f], base, bn, wi)
				transpose64(&k.rows)
				for b := 0; b < 64; b++ {
					k.lanes[64*wi+b] &= k.rows[b]
				}
			}
		}
		if m := masks[f]; m != nil {
			for wi := 0; wi < words; wi++ {
				k.loadRowsLE(m, base, bn, wi)
				transpose64(&k.rows)
				for b := 0; b < 64; b++ {
					k.lanes[64*wi+b] ^= k.rows[b]
				}
			}
		}
		st := states[f]
		for r := round; r <= c.rounds; r++ {
			if st != nil {
				for j, p := range points {
					if p.Round == r && !p.PostSub {
						k.captureLanes(st, base, bn, np*bb, j*bb, false)
					}
				}
			}
			k.subCellsLanes()
			if st != nil {
				for j, p := range points {
					if p.Round == r && p.PostSub {
						k.captureLanes(st, base, bn, np*bb, j*bb, false)
					}
				}
			}
			k.permBitsLanes(perm)
			k.addRoundKeyLanes(r)
		}
		if st != nil {
			for j, p := range points {
				if p.Round == 0 {
					k.captureLanes(st, base, bn, np*bb, j*bb, false)
				}
			}
		}
		if ct := cts[f]; ct != nil {
			k.captureLanes(ct, base, bn, bb, 0, true)
		}
	}
}

// forkScalar runs bn traces through the scalar round functions with
// prefix sharing: the path for blocks too small to amortize the
// transposes. It performs the same state operations as Encrypt.
func (k *kernel) forkScalar(round int, points []ciphers.BatchPoint, base, bn int, pts []byte, masks, ands, states, cts [][]byte) {
	c := k.c
	bb := c.BlockBytes()
	nbits := 8 * bb
	np := len(points)
	perm := perm64[:]
	if c.variant == GIFT128 {
		perm = perm128[:]
	}
	for t := 0; t < bn; t++ {
		i := base + t
		var snap state
		snap.loadBE(pts[i*bb:(i+1)*bb], bb)
		for r := 1; r < round; r++ {
			snap.subCells(nbits, &sbox)
			snap.permBits(nbits, perm)
			snap.xorState(&c.rkMask[r-1])
		}
		for f := range masks {
			s := snap
			if ands != nil && ands[f] != nil {
				s.andLE(ands[f][i*bb : (i+1)*bb])
			}
			if m := masks[f]; m != nil {
				s.xorLE(m[i*bb : (i+1)*bb])
			}
			st := states[f]
			for r := round; r <= c.rounds; r++ {
				if st != nil {
					for j, p := range points {
						if p.Round == r && !p.PostSub {
							s.storeLE(st[(i*np+j)*bb:(i*np+j)*bb+bb], bb)
						}
					}
				}
				s.subCells(nbits, &sbox)
				if st != nil {
					for j, p := range points {
						if p.Round == r && p.PostSub {
							s.storeLE(st[(i*np+j)*bb:(i*np+j)*bb+bb], bb)
						}
					}
				}
				s.permBits(nbits, perm)
				s.xorState(&c.rkMask[r-1])
			}
			if st != nil {
				for j, p := range points {
					if p.Round == 0 {
						s.storeLE(st[(i*np+j)*bb:(i*np+j)*bb+bb], bb)
					}
				}
			}
			if ct := cts[f]; ct != nil {
				s.storeBE(ct[i*bb:(i+1)*bb], bb)
			}
		}
	}
}

// xorState XORs another state in place.
func (s *state) xorState(o *state) {
	s[0] ^= o[0]
	s[1] ^= o[1]
}
