// The SIMON/SPECK fork steps: lane-packed bitsliced steps, 64 traces per
// uint64 lane, and per-trace word steps for small blocks.
//
// Both families bitslice without tables: a rotation of a word is a lane
// index remap (free at codegen time), XOR and AND act lane-wise, and the
// round-key XOR complements the lanes selected by the key's set bits.
// SIMON's round is pure AND/XOR/rotate, ~4 word ops per state bit for 64
// traces. SPECK's modular addition runs as the bitsliced ripple-carry
// adder bitvec.RippleAdd, whose carry recurrence evaluates 64 independent
// additions per lane word (5 ops per bit position for the whole block),
// so the carry chain costs O(n) word ops instead of n sequential scalar
// adds. Only the lane round differs between the families. The per-trace
// steps reuse the scalar round function; both are bit-identical to
// Encrypt.
package simonspeck

import (
	"encoding/binary"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
)

// laneSteps are the lane-packed fork steps of all four variants. The 2n
// state bits map to lanes in repository order: lane i holds y bit i for
// i < n and x bit i-n otherwise.
type laneSteps struct {
	c        *Cipher
	n        int // word bits
	nbits    int // state bits (2n)
	base, bn int // the block's traces in the batch
	// lanes/tmp/snap are the bitsliced state, the round double buffer,
	// and the fork snapshot; xrot (SPECK only) is the gathered
	// rotr(x, alpha) operand fed to the ripple-carry adder.
	lanes, tmp, snap, xrot []uint64
	// rows is the transpose scratch: one packed state word per trace.
	rows [ciphers.LaneBlock]uint64
	// laneRound is the family's lane round, chosen once at construction
	// so that roundLanes inlines into the steps with no family test.
	laneRound func(k *laneSteps, rk uint32)
}

// NewBatchKernel implements ciphers.BatchEncrypter.
func (c *Cipher) NewBatchKernel() ciphers.BatchKernel {
	n := int(c.wordBits)
	k := &laneSteps{
		c:         c,
		n:         n,
		nbits:     2 * n,
		lanes:     make([]uint64, 2*n),
		tmp:       make([]uint64, 2*n),
		snap:      make([]uint64, 2*n),
		laneRound: (*laneSteps).simonLanes,
	}
	if c.speck {
		k.xrot = make([]uint64, n)
		k.laneRound = (*laneSteps).speckLanes
	}
	return ciphers.NewForkKernel(c, k, &wordSteps{c: c})
}

// roundLanes applies one round of the cipher's family across all lanes.
func (k *laneSteps) roundLanes(rk uint32) {
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
func (k *laneSteps) simonLanes(rk uint32) {
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
func (k *laneSteps) speckLanes(rk uint32) {
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

// loadRows gathers the block's plaintexts (Encrypt's src order) or, with
// le set, its masks (repository bit order) into k.rows as packed state
// words, y in bits [0, n) and x in bits [n, 2n), zero-padding past bn.
func (k *laneSteps) loadRows(src []byte, le bool) {
	bb := k.c.BlockBytes()
	for t := range k.rows[:k.bn] {
		o := (k.base + t) * bb
		var x, y uint32
		if le {
			x, y = k.c.maskLE(src[o : o+bb])
		} else {
			x, y = k.c.loadBE(src[o : o+bb])
		}
		k.rows[t] = uint64(y) | uint64(x)<<uint(k.n)
	}
	clear(k.rows[k.bn:])
}

// Store implements ciphers.ForkSteps: it transposes the lanes back to
// per-trace packed words and writes them in trace (LE) or ciphertext (BE)
// byte order.
func (k *laneSteps) Store(dst []byte, stride, off int, ct bool) {
	copy(k.rows[:k.nbits], k.lanes)
	clear(k.rows[k.nbits:])
	bitvec.Transpose64(&k.rows)
	bb, m := k.nbits/8, k.c.mask()
	o := k.base*stride + off
	switch {
	case ct:
		for _, v := range k.rows[:k.bn] {
			k.c.storeBE(dst[o:o+bb], uint32(v>>uint(k.n))&m, uint32(v)&m)
			o += stride
		}
	case bb == 8:
		// The packed word already is the repository-order (LE) state:
		// state bit i = bit i%8 of byte i/8.
		for _, v := range k.rows[:k.bn] {
			binary.LittleEndian.PutUint64(dst[o:o+8], v)
			o += stride
		}
	default:
		for _, v := range k.rows[:k.bn] {
			binary.LittleEndian.PutUint32(dst[o:o+4], uint32(v))
			o += stride
		}
	}
}

// Load implements ciphers.ForkSteps: the plaintexts, transposed into
// lanes.
func (k *laneSteps) Load(pts []byte, base, bn int) {
	k.base, k.bn = base, bn
	k.loadRows(pts, false)
	bitvec.Transpose64(&k.rows)
	copy(k.lanes, k.rows[:k.nbits])
}

// Rounds implements ciphers.ForkSteps.
func (k *laneSteps) Rounds(from, to int) {
	for r := from; r < to; r++ {
		k.roundLanes(k.c.roundKeys[r-1])
	}
}

// Sub implements ciphers.ForkSteps: the whole round, since PostSub is the
// state after it.
func (k *laneSteps) Sub(r int) { k.roundLanes(k.c.roundKeys[r-1]) }

// Finish implements ciphers.ForkSteps: Sub has run the whole round.
func (k *laneSteps) Finish(int) {}

// Save implements ciphers.ForkSteps.
func (k *laneSteps) Save() { copy(k.snap, k.lanes) }

// Fork implements ciphers.ForkSteps: each mask half is one extra AND or
// XOR per lane.
func (k *laneSteps) Fork(and, xor []byte) {
	copy(k.lanes, k.snap)
	if and != nil {
		k.loadRows(and, true)
		bitvec.Transpose64(&k.rows)
		for b := 0; b < k.nbits; b++ {
			k.lanes[b] &= k.rows[b]
		}
	}
	if xor != nil {
		k.loadRows(xor, true)
		bitvec.Transpose64(&k.rows)
		for b := 0; b < k.nbits; b++ {
			k.lanes[b] ^= k.rows[b]
		}
	}
}

// wordSteps are the per-trace fork steps: the scalar round function on one
// word pair per trace, the path for blocks too small to amortize the
// transposes. They perform the same state operations as Encrypt.
type wordSteps struct {
	c        *Cipher
	base, bn int
	// s holds each trace's (x, y) word pair; snap is the fork snapshot.
	s, snap [ciphers.LaneBlock][2]uint32
}

// Load implements ciphers.ForkSteps.
func (w *wordSteps) Load(pts []byte, base, bn int) {
	w.base, w.bn = base, bn
	bb := w.c.BlockBytes()
	for t := range w.s[:bn] {
		w.s[t][0], w.s[t][1] = w.c.loadBE(pts[(base+t)*bb:])
	}
}

// Rounds implements ciphers.ForkSteps.
func (w *wordSteps) Rounds(from, to int) {
	c := w.c
	for t := range w.s[:w.bn] {
		x, y := w.s[t][0], w.s[t][1]
		for r := from; r < to; r++ {
			x, y = c.round(x, y, c.roundKeys[r-1])
		}
		w.s[t] = [2]uint32{x, y}
	}
}

// Sub implements ciphers.ForkSteps: the whole round, as for the lanes.
func (w *wordSteps) Sub(r int) { w.Rounds(r, r+1) }

// Finish implements ciphers.ForkSteps: Sub has run the whole round.
func (w *wordSteps) Finish(int) {}

// Save implements ciphers.ForkSteps.
func (w *wordSteps) Save() { copy(w.snap[:w.bn], w.s[:w.bn]) }

// Fork implements ciphers.ForkSteps.
func (w *wordSteps) Fork(and, xor []byte) {
	bb := w.c.BlockBytes()
	for t := range w.s[:w.bn] {
		i := w.base + t
		x, y := w.snap[t][0], w.snap[t][1]
		if and != nil {
			ax, ay := w.c.maskLE(and[i*bb:])
			x &= ax
			y &= ay
		}
		if xor != nil {
			fx, fy := w.c.maskLE(xor[i*bb:])
			x ^= fx
			y ^= fy
		}
		w.s[t] = [2]uint32{x, y}
	}
}

// Store implements ciphers.ForkSteps.
func (w *wordSteps) Store(dst []byte, stride, off int, ct bool) {
	for t, s := range w.s[:w.bn] {
		o := (w.base+t)*stride + off
		if ct {
			w.c.storeBE(dst[o:], s[0], s[1])
		} else {
			w.c.storeLE(dst[o:], s[0], s[1])
		}
	}
}
