// The batched SIMON/SPECK fork kernel: a lane-packed bitsliced
// implementation with shared-prefix forking, 64 traces per uint64 lane.
//
// Both families bitslice without tables: a rotation of a word is a lane
// index remap (free at codegen time), XOR and AND act lane-wise, and the
// round-key XOR complements the lanes selected by the key's set bits.
// SIMON's round is pure AND/XOR/rotate, ~4 word ops per state bit for 64
// traces. SPECK's modular addition runs as the bitsliced ripple-carry
// adder bitvec.RippleAdd, whose carry recurrence evaluates 64 independent
// additions per lane word (5 ops per bit position for the whole block),
// so the carry chain costs O(n) word ops instead of n sequential scalar
// adds. Only the lane round differs between the families; the loads,
// transposes, captures and prefix sharing are shared. The fault injection
// point matches Encrypt: masks apply at the top of the faulted round.
// Blocks smaller than eight traces take a per-trace path reusing the
// scalar round function with prefix sharing; both paths are bit-identical
// to Encrypt.
package simonspeck

import (
	"encoding/binary"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
)

// laneBlock is the number of traces packed per bitsliced block.
const laneBlock = 64

// bitsliceMin is the smallest block worth transposing into lanes.
const bitsliceMin = 8

// kernel implements ciphers.BatchKernel for all four variants. The 2n
// state bits map to lanes in repository order: lane i holds y bit i for
// i < n and x bit i-n otherwise.
type kernel struct {
	c     *Cipher
	n     int // word bits
	nbits int // state bits (2n)
	// lanes/tmp/snap are the bitsliced state, the round double buffer,
	// and the fork snapshot; xrot (SPECK only) is the gathered
	// rotr(x, alpha) operand fed to the ripple-carry adder.
	lanes, tmp, snap, xrot []uint64
	// rows is the transpose scratch: one packed state word per trace.
	rows [laneBlock]uint64
	// laneRound is the family's lane round, chosen once at construction
	// so that roundLanes inlines into the fork loops with no family test.
	laneRound func(k *kernel, rk uint32)
}

// NewBatchKernel implements ciphers.BatchEncrypter.
func (c *Cipher) NewBatchKernel() ciphers.BatchKernel {
	n := int(c.wordBits)
	k := &kernel{
		c:         c,
		n:         n,
		nbits:     2 * n,
		lanes:     make([]uint64, 2*n),
		tmp:       make([]uint64, 2*n),
		snap:      make([]uint64, 2*n),
		laneRound: (*kernel).simonLanes,
	}
	if c.speck {
		k.xrot = make([]uint64, n)
		k.laneRound = (*kernel).speckLanes
	}
	return k
}

// pack places the (x, y) word pair into a single uint64 in repository bit
// order: y in bits [0, n), x in bits [n, 2n).
func (k *kernel) pack(x, y uint32) uint64 {
	return uint64(y) | uint64(x)<<uint(k.n)
}

// unpack splits a packed state word back into (x, y).
func (k *kernel) unpack(w uint64) (x, y uint32) {
	m := k.c.mask()
	return uint32(w>>uint(k.n)) & m, uint32(w) & m
}

// roundLanes applies one round of the cipher's family across all lanes.
func (k *kernel) roundLanes(rk uint32) {
	k.laneRound(k, rk)
	k.lanes, k.tmp = k.tmp, k.lanes
}

// simonLanes writes one SIMON round of k.lanes into k.tmp: the rotations
// of x become lane index remaps, the Feistel swap lands old x in the new
// y lanes, and the round key complements the selected new-x lanes. The
// rotation remaps i-1, i-2 and i-8 (mod n) wrap only below i = 8, so the
// loop splits at that boundary into wrap-free runs the compiler can
// bounds-check-eliminate, and the key complement is a branchless XOR with
// an all-ones lane derived from the key bit.
func (k *kernel) simonLanes(rk uint32) {
	n := k.n
	y := k.lanes[:n:n]
	x := k.lanes[n : 2*n : 2*n]
	ty := k.tmp[:n:n]
	tx := k.tmp[n : 2*n : 2*n]
	// f(x) bit i = (rotl(x,1) & rotl(x,8) ^ rotl(x,2)) bit i
	//            = (x[i-1] & x[i-8] ^ x[i-2]) with indices mod n.
	tx[0] = y[0] ^ x[n-1]&x[n-8] ^ x[n-2] ^ (^(uint64(rk&1) - 1))
	tx[1] = y[1] ^ x[0]&x[n-7] ^ x[n-1] ^ (^(uint64(rk>>1&1) - 1))
	for i := 2; i < 8; i++ {
		tx[i] = y[i] ^ x[i-1]&x[i+n-8] ^ x[i-2] ^ (^(uint64(rk>>uint(i)&1) - 1))
	}
	for i := 8; i < n; i++ {
		tx[i] = y[i] ^ x[i-1]&x[i-8] ^ x[i-2] ^ (^(uint64(rk>>uint(i)&1) - 1))
	}
	copy(ty, x)
}

// speckLanes writes one SPECK round of k.lanes into k.tmp: gather the
// rotated x lanes, ripple-carry add the old y lanes, complement the key
// bits, and build the new y from the rotated old y XOR the fresh x.
func (k *kernel) speckLanes(rk uint32) {
	n := k.n
	alpha, beta := int(k.c.alpha), int(k.c.beta)
	y := k.lanes[:n:n]
	x := k.lanes[n : 2*n : 2*n]
	// rotr(x, alpha) is a lane remap: two contiguous copies.
	copy(k.xrot[:n-alpha], x[alpha:])
	copy(k.xrot[n-alpha:n], x[:alpha])
	newX := k.tmp[n : 2*n : 2*n]
	bitvec.RippleAdd(newX, k.xrot[:n], y)
	// One fused pass: branchless key complement on the sum, then new y =
	// rotl(y, beta) ^ new x, split at the rotation's wrap boundary.
	ty := k.tmp[:n:n]
	for i := 0; i < beta; i++ {
		v := newX[i] ^ (^(uint64(rk>>uint(i)&1) - 1))
		newX[i] = v
		ty[i] = y[i+n-beta] ^ v
	}
	for i := beta; i < n; i++ {
		v := newX[i] ^ (^(uint64(rk>>uint(i)&1) - 1))
		newX[i] = v
		ty[i] = y[i-beta] ^ v
	}
}

// loadRowsBE gathers the block's plaintexts as packed state words into
// k.rows, zero-padding past bn.
func (k *kernel) loadRowsBE(pts []byte, base, bn int) {
	bb := k.c.BlockBytes()
	o := base * bb
	for t := range k.rows[:bn] {
		k.rows[t] = k.pack(k.c.loadBE(pts[o : o+bb]))
		o += bb
	}
	clear(k.rows[bn:])
}

// loadRowsLE gathers each trace's little-endian (repository bit order)
// mask as packed state words into k.rows.
func (k *kernel) loadRowsLE(masks []byte, base, bn int) {
	bb := k.c.BlockBytes()
	o := base * bb
	for t := range k.rows[:bn] {
		k.rows[t] = k.pack(k.c.maskLE(masks[o : o+bb]))
		o += bb
	}
	clear(k.rows[bn:])
}

// rowsToLanes transposes k.rows into k.lanes (only the first nbits lanes
// carry state; the rest of the transpose output is padding).
func (k *kernel) rowsToLanes() {
	bitvec.Transpose64(&k.rows)
	copy(k.lanes, k.rows[:k.nbits])
}

// captureLanes transposes the current lanes back to per-trace packed
// words and writes each live trace's state into dst at
// stride*traceIndex+off, in trace (LE) or ciphertext (BE) byte order.
func (k *kernel) captureLanes(dst []byte, base, bn, stride, off int, bigEndian bool) {
	copy(k.rows[:k.nbits], k.lanes)
	clear(k.rows[k.nbits:])
	bitvec.Transpose64(&k.rows)
	bb := k.nbits / 8
	o := base*stride + off
	switch {
	case bigEndian:
		for _, v := range k.rows[:bn] {
			x, y := k.unpack(v)
			k.c.storeBE(dst[o:o+bb], x, y)
			o += stride
		}
	case bb == 8:
		// The packed word already is the repository-order (LE) state:
		// state bit i = bit i%8 of byte i/8.
		for _, v := range k.rows[:bn] {
			binary.LittleEndian.PutUint64(dst[o:o+8], v)
			o += stride
		}
	default:
		for _, v := range k.rows[:bn] {
			binary.LittleEndian.PutUint32(dst[o:o+4], uint32(v))
			o += stride
		}
	}
}

// EncryptForksOps implements ciphers.BatchKernel: the AND half of the
// injection pair is one extra AND per lane on the faulted branch.
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

	k.loadRowsBE(pts, base, bn)
	k.rowsToLanes()
	// Shared prefix: rounds before the injection point, computed once
	// (Encrypt injects at the top of the faulted round).
	for r := 1; r < round; r++ {
		k.roundLanes(c.roundKeys[r-1])
	}
	copy(k.snap, k.lanes)

	for f := range masks {
		if f > 0 {
			copy(k.lanes, k.snap)
		}
		if ands != nil && ands[f] != nil {
			k.loadRowsLE(ands[f], base, bn)
			bitvec.Transpose64(&k.rows)
			for b := 0; b < k.nbits; b++ {
				k.lanes[b] &= k.rows[b]
			}
		}
		if m := masks[f]; m != nil {
			k.loadRowsLE(m, base, bn)
			bitvec.Transpose64(&k.rows)
			for b := 0; b < k.nbits; b++ {
				k.lanes[b] ^= k.rows[b]
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
			k.roundLanes(c.roundKeys[r-1])
			if st != nil {
				for j, p := range points {
					if p.Round == r && p.PostSub {
						k.captureLanes(st, base, bn, np*bb, j*bb, false)
					}
				}
			}
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

// forkScalar runs bn traces through the scalar round function with
// prefix sharing: the path for blocks too small to amortize the
// transposes. It performs the same state operations as Encrypt.
func (k *kernel) forkScalar(round int, points []ciphers.BatchPoint, base, bn int, pts []byte, masks, ands, states, cts [][]byte) {
	c := k.c
	bb := c.BlockBytes()
	np := len(points)
	for t := 0; t < bn; t++ {
		i := base + t
		sx, sy := c.loadBE(pts[i*bb:])
		for r := 1; r < round; r++ {
			sx, sy = c.round(sx, sy, c.roundKeys[r-1])
		}
		for f := range masks {
			x, y := sx, sy
			if ands != nil && ands[f] != nil {
				ax, ay := c.maskLE(ands[f][i*bb:])
				x &= ax
				y &= ay
			}
			if m := masks[f]; m != nil {
				fx, fy := c.maskLE(m[i*bb:])
				x ^= fx
				y ^= fy
			}
			st := states[f]
			for r := round; r <= c.rounds; r++ {
				if st != nil {
					for j, p := range points {
						if p.Round == r && !p.PostSub {
							c.storeLE(st[(i*np+j)*bb:], x, y)
						}
					}
				}
				x, y = c.round(x, y, c.roundKeys[r-1])
				if st != nil {
					for j, p := range points {
						if p.Round == r && p.PostSub {
							c.storeLE(st[(i*np+j)*bb:], x, y)
						}
					}
				}
			}
			if st != nil {
				for j, p := range points {
					if p.Round == 0 {
						c.storeLE(st[(i*np+j)*bb:], x, y)
					}
				}
			}
			if ct := cts[f]; ct != nil {
				c.storeBE(ct[i*bb:], x, y)
			}
		}
	}
}
