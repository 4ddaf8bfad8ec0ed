// The batched fork kernel of all three variants: a bitsliced
// implementation packing 64 traces per uint64 lane, with shared-prefix
// forking.
//
// In bitsliced form lane b holds state bit b of 64 traces at once, so one
// round costs a fixed number of word operations for the whole block. A
// GIFT round is one pass over the lanes: each nibble's four lanes go
// through the S-box's boolean circuit, and each output lane is written
// straight to its place under PermBits with its AddRoundKey bit XORed in
// as an all-ones or all-zeros word. PRESENT's circuit runs as a pass of
// its own, followed by the same permutation and key pass. Blocks smaller
// than eight traces (and the tail of a ragged batch) take a per-trace
// path that reuses the scalar round functions with prefix sharing, so
// both paths are bit-identical to Encrypt.
package gift

import (
	"encoding/binary"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
)

// laneBlock is the number of traces packed per bitsliced block: one per
// bit of a uint64 lane.
const laneBlock = 64

// bitsliceMin is the smallest block worth transposing into lanes; below
// it the per-trace fork path wins.
const bitsliceMin = 8

// maxLanes is the lane count of the largest variant. Lane buffers and
// permutation tables have this size for every variant, so the compiler
// drops the bounds checks of an index masked into 0..maxLanes-1; the
// mask leaves every lane index below nbits as it is.
const maxLanes = 128

// kernel implements ciphers.BatchKernel for every variant.
type kernel struct {
	c     *Cipher
	nbits int
	// present selects PRESENT's S-box circuit, which runs as its own pass
	// before roundLanes' permutation and key pass.
	present bool
	// lanes is the bitsliced state, nbits lanes of 64 traces each, and
	// tmp the buffer a round writes into before the two swap; both point
	// into buf. snap is the fork snapshot.
	lanes, tmp *[maxLanes]uint64
	buf        [2][maxLanes]uint64
	snap       [maxLanes]uint64
	// rows is the transpose scratch: one state word per trace.
	rows [laneBlock]uint64
}

// NewBatchKernel implements ciphers.BatchEncrypter.
func (c *Cipher) NewBatchKernel() ciphers.BatchKernel {
	k := &kernel{c: c, nbits: 8 * c.BlockBytes(), present: c.variant == PRESENT80}
	k.lanes, k.tmp = &k.buf[0], &k.buf[1]
	return k
}

// giftSboxLanes applies the GIFT S-box to one bitsliced nibble. The
// circuit is the standard software bitslice of GS (Banik et al.); it is
// verified against the lookup table by the test suite.
func giftSboxLanes(s0, s1, s2, s3 uint64) (y0, y1, y2, y3 uint64) {
	s1 ^= s0 & s2
	s0 ^= s1 & s3
	s2 ^= s0 | s1
	s3 ^= s2
	s1 ^= s3
	s3 = ^s3
	s2 ^= s0 & s1
	return s3, s1, s2, s0
}

// presentSboxLanes applies the PRESENT S-box to one bitsliced nibble. The
// circuit is the algebraic normal form of the lookup table with shared
// subterms; it is verified against the table by the test suite.
func presentSboxLanes(x0, x1, x2, x3 uint64) (y0, y1, y2, y3 uint64) {
	t01 := x0 & x1
	t02 := x0 & x2
	t12 := x1 & x2
	t012 := t01 & x2
	a := t01 & x3
	b := t02 & x3
	y0 = x0 ^ x2 ^ t12 ^ x3
	y1 = x1 ^ t012 ^ x3 ^ x1&x3 ^ a ^ x2&x3 ^ b
	y2 = ^(t01 ^ x2 ^ x3 ^ x0&x3 ^ x1&x3 ^ a ^ b)
	y3 = ^(x0 ^ x1 ^ t12 ^ t012 ^ x3 ^ a ^ b)
	return y0, y1, y2, y3
}

// subCellsLanes applies the S-box circuit to every nibble of the lanes,
// in place: the first half of a round whose post-S-box state is
// captured, and every round's S-box layer on PRESENT.
func (k *kernel) subCellsLanes() {
	l := k.lanes
	if k.present {
		for i := 0; i < 64; i += 4 {
			l[i], l[i+1], l[i+2], l[i+3] = presentSboxLanes(l[i], l[i+1], l[i+2], l[i+3])
		}
		return
	}
	for nib := 0; nib < k.nbits; nib += 4 {
		i := nib & (maxLanes - 4)
		l[i], l[i+1], l[i+2], l[i+3] = giftSboxLanes(l[i], l[i+1], l[i+2], l[i+3])
	}
}

// roundLanes runs round r on the lanes in one pass: SubCells when sub is
// set (otherwise subCellsLanes has run it), then PermBits and
// AddRoundKey. Each output lane i is written straight to lane perm[i],
// XORed with -(m>>i & 1) for the source-ordered round-key mask m: the
// all-ones word where the key flips the bit and zero elsewhere, so the
// loop has no data-dependent branch. PRESENT runs its S-box pass first.
func (k *kernel) roundLanes(r int, sub bool) {
	if sub && k.present {
		k.subCellsLanes()
		sub = false
	}
	src, dst, perm := k.lanes, k.tmp, k.c.perm
	key := &k.c.rkSrc[r-1]
	for nib := 0; nib < k.nbits; nib += 4 {
		i := nib & (maxLanes - 4)
		y0, y1, y2, y3 := src[i], src[i+1], src[i+2], src[i+3]
		if sub {
			y0, y1, y2, y3 = giftSboxLanes(y0, y1, y2, y3)
		}
		m := key[i/64%2] >> (uint(i) % 64)
		dst[perm[i]&(maxLanes-1)] = y0 ^ -(m & 1)
		dst[perm[i+1]&(maxLanes-1)] = y1 ^ -(m >> 1 & 1)
		dst[perm[i+2]&(maxLanes-1)] = y2 ^ -(m >> 2 & 1)
		dst[perm[i+3]&(maxLanes-1)] = y3 ^ -(m >> 3 & 1)
	}
	k.lanes, k.tmp = dst, src
}

// loadRows gathers state word wi of each trace of the block into k.rows,
// zero-padding past bn. In ciphertext (plaintext) order the word is the
// eight bytes ending 8*wi bytes before the block's end, read big-endian;
// in trace order, the layout of fault masks, it is bytes 8*wi.. read
// little-endian.
func (k *kernel) loadRows(src []byte, base, bn, wi int, bigEndian bool) {
	bb := k.c.BlockBytes()
	o := base * bb
	if bigEndian {
		o += bb - 8*(wi+1)
		for t := range k.rows[:bn] {
			k.rows[t] = binary.BigEndian.Uint64(src[o : o+8])
			o += bb
		}
	} else {
		o += 8 * wi
		for t := range k.rows[:bn] {
			k.rows[t] = binary.LittleEndian.Uint64(src[o : o+8])
			o += bb
		}
	}
	clear(k.rows[bn:])
}

// captureLanes transposes the current lanes back to per-trace words and
// writes each live trace's state into dst at stride*traceIndex+off,
// little-endian (trace order) or big-endian (ciphertext order), the
// layouts loadRows reads.
func (k *kernel) captureLanes(dst []byte, base, bn, stride, off int, bigEndian bool) {
	bb := k.c.BlockBytes()
	for wi := 0; wi < k.nbits/64; wi++ {
		copy(k.rows[:], k.lanes[64*wi:64*wi+64])
		bitvec.Transpose64(&k.rows)
		o := base*stride + off
		if bigEndian {
			o += bb - 8*(wi+1)
			for _, v := range k.rows[:bn] {
				binary.BigEndian.PutUint64(dst[o:o+8], v)
				o += stride
			}
		} else {
			o += 8 * wi
			for _, v := range k.rows[:bn] {
				binary.LittleEndian.PutUint64(dst[o:o+8], v)
				o += stride
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
	words := k.nbits / 64

	// Transpose the block's whitened plaintexts into lanes.
	for wi := 0; wi < words; wi++ {
		k.loadRows(pts, base, bn, wi, true)
		for t := range k.rows[:bn] {
			k.rows[t] ^= c.white[wi]
		}
		bitvec.Transpose64(&k.rows)
		copy(k.lanes[64*wi:64*wi+64], k.rows[:])
	}
	// Shared prefix: rounds before the injection point, computed once.
	for r := 1; r < round; r++ {
		k.roundLanes(r, true)
	}
	copy(k.snap[:k.nbits], k.lanes[:k.nbits])

	for f := range masks {
		if f > 0 {
			copy(k.lanes[:k.nbits], k.snap[:k.nbits])
		}
		if ands != nil && ands[f] != nil {
			for wi := 0; wi < words; wi++ {
				k.loadRows(ands[f], base, bn, wi, false)
				bitvec.Transpose64(&k.rows)
				l := (*[laneBlock]uint64)(k.lanes[64*wi:])
				for b, v := range k.rows {
					l[b] &= v
				}
			}
		}
		if m := masks[f]; m != nil {
			for wi := 0; wi < words; wi++ {
				k.loadRows(m, base, bn, wi, false)
				bitvec.Transpose64(&k.rows)
				l := (*[laneBlock]uint64)(k.lanes[64*wi:])
				for b, v := range k.rows {
					l[b] ^= v
				}
			}
		}
		st := states[f]
		for r := round; r <= c.rounds; r++ {
			split := false
			if st != nil {
				for j, p := range points {
					if p.Round == r && !p.PostSub {
						k.captureLanes(st, base, bn, np*bb, j*bb, false)
					}
					split = split || p.Round == r && p.PostSub
				}
			}
			if split {
				k.subCellsLanes()
				for j, p := range points {
					if p.Round == r && p.PostSub {
						k.captureLanes(st, base, bn, np*bb, j*bb, false)
					}
				}
			}
			k.roundLanes(r, !split)
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
	for t := 0; t < bn; t++ {
		i := base + t
		var snap state
		snap.loadBE(pts[i*bb:(i+1)*bb], bb)
		snap.xorState(&c.white)
		for r := 1; r < round; r++ {
			snap.subCells(nbits, c.sbox)
			snap.permBits(nbits, c.perm)
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
				s.subCells(nbits, c.sbox)
				if st != nil {
					for j, p := range points {
						if p.Round == r && p.PostSub {
							s.storeLE(st[(i*np+j)*bb:(i*np+j)*bb+bb], bb)
						}
					}
				}
				s.permBits(nbits, c.perm)
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
