// The fork steps of all three variants: bitsliced lanes packing 64 traces
// per uint64, and per-trace words for small blocks.
//
// In bitsliced form lane b holds state bit b of 64 traces at once, so one
// round costs a fixed number of word operations for the whole block. A
// GIFT round is one pass over the lanes: each nibble's four lanes go
// through the S-box's boolean circuit, and each output lane is written
// straight to its place under PermBits with its AddRoundKey bit XORed in
// as an all-ones or all-zeros word. PRESENT's circuit runs as a pass of
// its own, followed by the same permutation and key pass. The per-trace
// steps reuse the scalar round functions; both are bit-identical to
// Encrypt.
package gift

import (
	"encoding/binary"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
)

// maxLanes is the lane count of the largest variant. Lane buffers and
// permutation tables have this size for every variant, so the compiler
// drops the bounds checks of an index masked into 0..maxLanes-1; the
// mask leaves every lane index below nbits as it is.
const maxLanes = 128

// NewBatchKernel implements ciphers.BatchEncrypter.
func (c *Cipher) NewBatchKernel() ciphers.BatchKernel {
	k := &laneSteps{c: c, nbits: 8 * c.BlockBytes(), present: c.variant == PRESENT80}
	k.lanes, k.tmp = &k.buf[0], &k.buf[1]
	return ciphers.NewForkKernel(c, k, &wordSteps{c: c})
}

// laneSteps are the bitsliced fork steps of every variant.
type laneSteps struct {
	c     *Cipher
	nbits int
	// present selects PRESENT's S-box circuit, which runs as its own pass
	// before roundLanes' permutation and key pass.
	present  bool
	base, bn int // the block's traces in the batch
	// lanes is the bitsliced state, nbits lanes of 64 traces each, and
	// tmp the buffer a round writes into before the two swap; both point
	// into buf. snap is the fork snapshot.
	lanes, tmp *[maxLanes]uint64
	buf        [2][maxLanes]uint64
	snap       [maxLanes]uint64
	// rows is the transpose scratch: one state word per trace.
	rows [ciphers.LaneBlock]uint64
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

// Sub implements ciphers.ForkSteps: the S-box circuit on every nibble of
// the lanes, in place. It is also every round's S-box layer on PRESENT.
func (k *laneSteps) Sub(int) {
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
// set (otherwise Sub has run it), then PermBits and AddRoundKey. Each
// output lane i is written straight to lane perm[i], XORed with
// -(m>>i & 1) for the source-ordered round-key mask m: the all-ones word
// where the key flips the bit and zero elsewhere, so the loop has no
// data-dependent branch. PRESENT runs its S-box pass first.
func (k *laneSteps) roundLanes(r int, sub bool) {
	if sub && k.present {
		k.Sub(r)
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

// Rounds implements ciphers.ForkSteps.
func (k *laneSteps) Rounds(from, to int) {
	for r := from; r < to; r++ {
		k.roundLanes(r, true)
	}
}

// Finish implements ciphers.ForkSteps: PermBits and AddRoundKey.
func (k *laneSteps) Finish(r int) { k.roundLanes(r, false) }

// Save implements ciphers.ForkSteps.
func (k *laneSteps) Save() { copy(k.snap[:k.nbits], k.lanes[:k.nbits]) }

// loadRows gathers state word wi of each trace of the block into k.rows,
// zero-padding past bn. In ciphertext (plaintext) order the word is the
// eight bytes ending 8*wi bytes before the block's end, read big-endian;
// in trace order, the layout of fault masks, it is bytes 8*wi.. read
// little-endian.
func (k *laneSteps) loadRows(src []byte, wi int, bigEndian bool) {
	bb := k.c.BlockBytes()
	o := k.base * bb
	if bigEndian {
		o += bb - 8*(wi+1)
		for t := range k.rows[:k.bn] {
			k.rows[t] = binary.BigEndian.Uint64(src[o : o+8])
			o += bb
		}
	} else {
		o += 8 * wi
		for t := range k.rows[:k.bn] {
			k.rows[t] = binary.LittleEndian.Uint64(src[o : o+8])
			o += bb
		}
	}
	clear(k.rows[k.bn:])
}

// Load implements ciphers.ForkSteps: the whitened plaintexts, transposed
// into lanes.
func (k *laneSteps) Load(pts []byte, base, bn int) {
	k.base, k.bn = base, bn
	for wi := 0; wi < k.nbits/64; wi++ {
		k.loadRows(pts, wi, true)
		for t := range k.rows[:bn] {
			k.rows[t] ^= k.c.white[wi]
		}
		bitvec.Transpose64(&k.rows)
		copy(k.lanes[64*wi:64*wi+64], k.rows[:])
	}
}

// Fork implements ciphers.ForkSteps. In bitsliced form each mask half is
// one extra AND or XOR per lane word: the mask rows are transposed like
// the plaintext rows and act on all 64 traces of a lane at once. Dead
// lanes past bn are ANDed with the zero padding, which is harmless
// because captures never read them.
func (k *laneSteps) Fork(and, xor []byte) {
	copy(k.lanes[:k.nbits], k.snap[:k.nbits])
	for wi := 0; wi < k.nbits/64; wi++ {
		l := (*[ciphers.LaneBlock]uint64)(k.lanes[64*wi:])
		if and != nil {
			k.loadRows(and, wi, false)
			bitvec.Transpose64(&k.rows)
			for b, v := range k.rows {
				l[b] &= v
			}
		}
		if xor != nil {
			k.loadRows(xor, wi, false)
			bitvec.Transpose64(&k.rows)
			for b, v := range k.rows {
				l[b] ^= v
			}
		}
	}
}

// Store implements ciphers.ForkSteps: it transposes the lanes back to
// per-trace words and writes them little-endian (trace order) or
// big-endian (ciphertext order), the layouts loadRows reads.
func (k *laneSteps) Store(dst []byte, stride, off int, ct bool) {
	bb := k.c.BlockBytes()
	for wi := 0; wi < k.nbits/64; wi++ {
		copy(k.rows[:], k.lanes[64*wi:64*wi+64])
		bitvec.Transpose64(&k.rows)
		o := k.base*stride + off
		if ct {
			o += bb - 8*(wi+1)
			for _, v := range k.rows[:k.bn] {
				binary.BigEndian.PutUint64(dst[o:o+8], v)
				o += stride
			}
		} else {
			o += 8 * wi
			for _, v := range k.rows[:k.bn] {
				binary.LittleEndian.PutUint64(dst[o:o+8], v)
				o += stride
			}
		}
	}
}

// wordSteps are the per-trace fork steps: the scalar round functions on
// one state per trace, the path for blocks too small to amortize the
// transposes. They perform the same state operations as Encrypt.
type wordSteps struct {
	c        *Cipher
	base, bn int
	s, snap  [ciphers.LaneBlock]state
}

// Load implements ciphers.ForkSteps.
func (w *wordSteps) Load(pts []byte, base, bn int) {
	w.base, w.bn = base, bn
	bb := w.c.BlockBytes()
	for t := range w.s[:bn] {
		i := base + t
		w.s[t].loadBE(pts[i*bb:(i+1)*bb], bb)
		w.s[t].xorState(&w.c.white)
	}
}

// Rounds implements ciphers.ForkSteps.
func (w *wordSteps) Rounds(from, to int) {
	for r := from; r < to; r++ {
		w.Sub(r)
		w.Finish(r)
	}
}

// Sub implements ciphers.ForkSteps.
func (w *wordSteps) Sub(int) {
	for t := range w.s[:w.bn] {
		w.s[t].subCells(8*w.c.BlockBytes(), w.c.sbox)
	}
}

// Finish implements ciphers.ForkSteps: PermBits and AddRoundKey.
func (w *wordSteps) Finish(r int) {
	for t := range w.s[:w.bn] {
		w.s[t].permBits(8*w.c.BlockBytes(), w.c.perm)
		w.s[t].xorState(&w.c.rkMask[r-1])
	}
}

// Save implements ciphers.ForkSteps.
func (w *wordSteps) Save() { copy(w.snap[:w.bn], w.s[:w.bn]) }

// Fork implements ciphers.ForkSteps.
func (w *wordSteps) Fork(and, xor []byte) {
	bb := w.c.BlockBytes()
	for t := range w.s[:w.bn] {
		i := w.base + t
		w.s[t] = w.snap[t]
		if and != nil {
			w.s[t].andLE(and[i*bb : (i+1)*bb])
		}
		if xor != nil {
			w.s[t].xorLE(xor[i*bb : (i+1)*bb])
		}
	}
}

// Store implements ciphers.ForkSteps.
func (w *wordSteps) Store(dst []byte, stride, off int, ct bool) {
	bb := w.c.BlockBytes()
	for t := range w.s[:w.bn] {
		o := (w.base+t)*stride + off
		if ct {
			w.s[t].storeBE(dst[o:o+bb], bb)
		} else {
			w.s[t].storeLE(dst[o:o+bb], bb)
		}
	}
}
