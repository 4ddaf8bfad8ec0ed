// The batched PRESENT fork kernel: a bitsliced implementation packing 64
// traces per uint64 lane, with shared-prefix forking.
//
// PRESENT's 64-bit state slices into exactly 64 lanes, so one round is a
// fixed number of word operations for the whole block: the S-box layer
// becomes its ANF boolean circuit over 4 lanes per nibble, the bit
// permutation becomes a lane renumbering, and the round-key XOR
// complements the lanes selected by the key's set bits. Unlike GIFT,
// PRESENT adds the round key at the top of the round and injects faults
// after it, so the shared prefix includes the fork round's key addition.
// Blocks smaller than eight traces take a per-trace path reusing the
// scalar round functions with prefix sharing; both paths are bit-identical
// to Encrypt.
package present

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
)

// laneBlock is the number of traces packed per bitsliced block.
const laneBlock = 64

// bitsliceMin is the smallest block worth transposing into lanes; below
// it the per-trace fork path wins.
const bitsliceMin = 8

// kernel implements ciphers.BatchKernel for PRESENT-80.
type kernel struct {
	c *Cipher
	// lanes/tmp/snap are the bitsliced state, the permutation double
	// buffer, and the fork snapshot: 64 lanes of 64 traces each.
	lanes, tmp, snap []uint64
	// rows is the transpose scratch: one state word per trace.
	rows [laneBlock]uint64
}

// NewBatchKernel implements ciphers.BatchEncrypter.
func (c *Cipher) NewBatchKernel() ciphers.BatchKernel {
	return &kernel{
		c:     c,
		lanes: make([]uint64, 64),
		tmp:   make([]uint64, 64),
		snap:  make([]uint64, 64),
	}
}

// sboxLanes applies the PRESENT S-box to one bitsliced nibble. The
// circuit is the algebraic normal form of the lookup table with shared
// subterms; it is verified against the table by the test suite.
func sboxLanes(l *[4]uint64) {
	x0, x1, x2, x3 := l[0], l[1], l[2], l[3]
	t01 := x0 & x1
	t02 := x0 & x2
	t12 := x1 & x2
	t012 := t01 & x2
	a := t01 & x3
	b := t02 & x3
	l[0] = x0 ^ x2 ^ t12 ^ x3
	l[1] = x1 ^ t012 ^ x3 ^ x1&x3 ^ a ^ x2&x3 ^ b
	l[2] = ^(t01 ^ x2 ^ x3 ^ x0&x3 ^ x1&x3 ^ a ^ b)
	l[3] = ^(x0 ^ x1 ^ t12 ^ t012 ^ x3 ^ a ^ b)
}

// subLayerLanes applies the S-box circuit to every nibble of the lanes,
// in place.
func (k *kernel) subLayerLanes() {
	for nib := 0; nib < 64; nib += 4 {
		sboxLanes((*[4]uint64)(k.lanes[nib : nib+4]))
	}
}

// permLayerLanes renumbers the lanes through the PRESENT bit permutation.
func (k *kernel) permLayerLanes() {
	for i, p := range perm {
		k.tmp[p] = k.lanes[i]
	}
	k.lanes, k.tmp = k.tmp, k.lanes
}

// addRoundKeyLanes complements every lane selected by the round key's set
// bits (XOR with an all-set key bit is a NOT across the lane's 64 traces).
func (k *kernel) addRoundKeyLanes(rk uint64) {
	for rk != 0 {
		b := bits.TrailingZeros64(rk)
		k.lanes[b] = ^k.lanes[b]
		rk &= rk - 1
	}
}

// loadRowsBE gathers the block's plaintext state words into k.rows,
// zero-padding past bn.
func (k *kernel) loadRowsBE(pts []byte, base, bn int) {
	o := base * BlockBytes
	for t := range k.rows[:bn] {
		k.rows[t] = binary.BigEndian.Uint64(pts[o : o+8])
		o += BlockBytes
	}
	clear(k.rows[bn:])
}

// loadRowsLE gathers each trace's little-endian (repository bit order)
// mask word — the layout of fault masks — into k.rows.
func (k *kernel) loadRowsLE(masks []byte, base, bn int) {
	o := base * BlockBytes
	for t := range k.rows[:bn] {
		k.rows[t] = binary.LittleEndian.Uint64(masks[o : o+8])
		o += BlockBytes
	}
	clear(k.rows[bn:])
}

// captureLanes transposes the current lanes back to per-trace words and
// writes each live trace's state into dst at stride*traceIndex+off,
// little-endian (trace order) or big-endian (ciphertext order).
func (k *kernel) captureLanes(dst []byte, base, bn, stride, off int, bigEndian bool) {
	copy(k.rows[:], k.lanes)
	bitvec.Transpose64(&k.rows)
	o := base*stride + off
	if bigEndian {
		for _, v := range k.rows[:bn] {
			binary.BigEndian.PutUint64(dst[o:o+8], v)
			o += stride
		}
		return
	}
	// The transposed row already is the repository-order (LE) state:
	// state bit i = bit i%8 of byte i/8.
	for _, v := range k.rows[:bn] {
		binary.LittleEndian.PutUint64(dst[o:o+8], v)
		o += stride
	}
}

// EncryptForksOps implements ciphers.BatchKernel: the AND half of the
// injection pair is one extra AND per lane on the faulted branch, with
// mask rows transposed exactly like the XOR rows. Dead lanes past bn are
// ANDed with the zero padding, which is harmless because captures never
// read them.
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
	np := len(points)

	// Transpose the block's plaintexts into lanes.
	k.loadRowsBE(pts, base, bn)
	bitvec.Transpose64(&k.rows)
	copy(k.lanes, k.rows[:])
	// Shared prefix: complete rounds before the injection point plus the
	// fork round's key addition (Encrypt injects after the key XOR).
	for r := 1; r < round; r++ {
		k.addRoundKeyLanes(c.roundKeys[r-1])
		k.subLayerLanes()
		k.permLayerLanes()
	}
	k.addRoundKeyLanes(c.roundKeys[round-1])
	copy(k.snap, k.lanes)

	for f := range masks {
		if f > 0 {
			copy(k.lanes, k.snap)
		}
		if ands != nil && ands[f] != nil {
			k.loadRowsLE(ands[f], base, bn)
			bitvec.Transpose64(&k.rows)
			for b := 0; b < 64; b++ {
				k.lanes[b] &= k.rows[b]
			}
		}
		if m := masks[f]; m != nil {
			k.loadRowsLE(m, base, bn)
			bitvec.Transpose64(&k.rows)
			for b := 0; b < 64; b++ {
				k.lanes[b] ^= k.rows[b]
			}
		}
		st := states[f]
		for r := round; r <= NumRounds; r++ {
			if r > round {
				k.addRoundKeyLanes(c.roundKeys[r-1])
			}
			if st != nil {
				for j, p := range points {
					if p.Round == r && !p.PostSub {
						k.captureLanes(st, base, bn, np*BlockBytes, j*BlockBytes, false)
					}
				}
			}
			k.subLayerLanes()
			if st != nil {
				for j, p := range points {
					if p.Round == r && p.PostSub {
						k.captureLanes(st, base, bn, np*BlockBytes, j*BlockBytes, false)
					}
				}
			}
			k.permLayerLanes()
		}
		k.addRoundKeyLanes(c.roundKeys[NumRounds])
		if st != nil {
			for j, p := range points {
				if p.Round == 0 {
					k.captureLanes(st, base, bn, np*BlockBytes, j*BlockBytes, false)
				}
			}
		}
		if ct := cts[f]; ct != nil {
			k.captureLanes(ct, base, bn, BlockBytes, 0, true)
		}
	}
}

// forkScalar runs bn traces through the scalar round functions with
// prefix sharing: the path for blocks too small to amortize the
// transposes. It performs the same state operations as Encrypt.
func (k *kernel) forkScalar(round int, points []ciphers.BatchPoint, base, bn int, pts []byte, masks, ands, states, cts [][]byte) {
	c := k.c
	np := len(points)
	for t := 0; t < bn; t++ {
		i := base + t
		snap := loadBE(pts[i*BlockBytes:])
		for r := 1; r < round; r++ {
			snap ^= c.roundKeys[r-1]
			snap = subLayer(snap, &sbox)
			snap = permLayer(snap, &perm)
		}
		snap ^= c.roundKeys[round-1]
		for f := range masks {
			s := snap
			if ands != nil && ands[f] != nil {
				s &= loadLE(ands[f][i*BlockBytes:])
			}
			if m := masks[f]; m != nil {
				s ^= loadLE(m[i*BlockBytes:])
			}
			st := states[f]
			for r := round; r <= NumRounds; r++ {
				if r > round {
					s ^= c.roundKeys[r-1]
				}
				if st != nil {
					for j, p := range points {
						if p.Round == r && !p.PostSub {
							storeLE(st[(i*np+j)*BlockBytes:], s)
						}
					}
				}
				s = subLayer(s, &sbox)
				if st != nil {
					for j, p := range points {
						if p.Round == r && p.PostSub {
							storeLE(st[(i*np+j)*BlockBytes:], s)
						}
					}
				}
				s = permLayer(s, &perm)
			}
			s ^= c.roundKeys[NumRounds]
			if st != nil {
				for j, p := range points {
					if p.Round == 0 {
						storeLE(st[(i*np+j)*BlockBytes:], s)
					}
				}
			}
			if ct := cts[f]; ct != nil {
				storeBE(ct[i*BlockBytes:], s)
			}
		}
	}
}
