// Package bitvec implements fixed-width dense bit vectors used to represent
// cipher states, fault patterns, and fault masks, and the lane primitives
// of the bitsliced cipher kernels.
//
// Widths up to 256 bits are supported (the largest block size considered in
// the paper). Bit i of a vector refers to bit i of the cipher state using
// the cipher's own numbering convention; see the ciphers package for how
// each cipher maps bits to bytes or nibbles.
//
// A bitsliced kernel packs 64 traces per uint64 lane: lane b holds state
// bit b of all 64 traces. Transpose64 converts 64 per-trace state words
// to 64 lanes and back; every bitsliced kernel (GIFT, PRESENT, SIMON,
// SPECK) calls it on each plaintext load, mask load and state capture.
// It has a Go body, which runs on every GOARCH and is the reference, and
// an AVX2 body that init selects where internal/cpuid reports AVX2.
// RippleAdd adds lane-sliced words for the ARX kernels.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxBits is the largest supported vector width.
const MaxBits = 256

const wordBits = 64

// Vector is a fixed-width bit vector. The zero value is an empty vector of
// width 0; use New for a usable vector. Vectors are value types: assignment
// copies them, and all methods that mutate do so on the receiver pointer.
type Vector struct {
	words [MaxBits / wordBits]uint64
	n     int // width in bits
}

// New returns an all-zero vector of width n bits. It panics if n is
// negative or exceeds MaxBits.
func New(n int) Vector {
	if n < 0 || n > MaxBits {
		panic(fmt.Sprintf("bitvec: invalid width %d", n))
	}
	return Vector{n: n}
}

// FromBits returns a vector of width n with the listed bits set.
func FromBits(n int, bits ...int) Vector {
	v := New(n)
	for _, b := range bits {
		v.Set(b)
	}
	return v
}

// FromBytes returns a vector of width 8*len(p) whose bit i is bit i%8 of
// byte i/8 (little-endian within each byte). This matches the cipher
// convention where state byte k occupies bits 8k..8k+7.
func FromBytes(p []byte) Vector {
	v := New(8 * len(p))
	for i, b := range p {
		v.words[i/8] |= uint64(b) << (8 * uint(i%8))
	}
	return v
}

// Len returns the width in bits.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: bit %d out of range [0,%d)", i, v.n))
	}
}

// Bit reports whether bit i is set.
func (v *Vector) Bit(i int) bool {
	v.check(i)
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Flip toggles bit i.
func (v *Vector) Flip(i int) {
	v.check(i)
	v.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Reset clears every bit, keeping the width.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsZero reports whether no bit is set.
func (v *Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether v and o have identical width and contents.
func (v *Vector) Equal(o *Vector) bool {
	return v.n == o.n && v.words == o.words
}

func (v *Vector) checkWidth(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", v.n, o.n))
	}
}

// Xor sets v to v XOR o. Widths must match.
func (v *Vector) Xor(o *Vector) {
	v.checkWidth(o)
	for i := range v.words {
		v.words[i] ^= o.words[i]
	}
}

// And sets v to v AND o. Widths must match.
func (v *Vector) And(o *Vector) {
	v.checkWidth(o)
	for i := range v.words {
		v.words[i] &= o.words[i]
	}
}

// Or sets v to v OR o. Widths must match.
func (v *Vector) Or(o *Vector) {
	v.checkWidth(o)
	for i := range v.words {
		v.words[i] |= o.words[i]
	}
}

// AndNot clears from v every bit set in o. Widths must match.
func (v *Vector) AndNot(o *Vector) {
	v.checkWidth(o)
	for i := range v.words {
		v.words[i] &^= o.words[i]
	}
}

// SubsetOf reports whether every set bit of v is also set in o.
func (v *Vector) SubsetOf(o *Vector) bool {
	v.checkWidth(o)
	for i := range v.words {
		if v.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether v and o share any set bit.
func (v *Vector) Intersects(o *Vector) bool {
	v.checkWidth(o)
	for i := range v.words {
		if v.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Bits returns the indices of the set bits in ascending order.
func (v *Vector) Bits() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// Bytes returns the vector packed into bytes, bit i of the vector mapping
// to bit i%8 of byte i/8. The slice has ceil(n/8) bytes.
func (v *Vector) Bytes() []byte {
	out := make([]byte, (v.n+7)/8)
	for i := range out {
		out[i] = byte(v.words[i/8] >> (8 * uint(i%8)))
	}
	return out
}

// PutBytes writes the vector into dst using the same byte mapping as
// Bytes, without allocating. dst must hold at least ceil(n/8) bytes.
func (v *Vector) PutBytes(dst []byte) {
	nb := (v.n + 7) / 8
	if len(dst) < nb {
		panic(fmt.Sprintf("bitvec: destination %d bytes, need %d", len(dst), nb))
	}
	for i := 0; i < nb; i++ {
		dst[i] = byte(v.words[i/8] >> (8 * uint(i%8)))
	}
}

// ApplyToBytes XORs the vector into dst in place using the same byte
// mapping as Bytes. dst must hold at least ceil(n/8) bytes.
func (v *Vector) ApplyToBytes(dst []byte) {
	nb := (v.n + 7) / 8
	if len(dst) < nb {
		panic(fmt.Sprintf("bitvec: destination %d bytes, need %d", len(dst), nb))
	}
	for i := 0; i < nb; i++ {
		dst[i] ^= byte(v.words[i/8] >> (8 * uint(i%8)))
	}
}

// Groups returns, for group size g (e.g. 4 for nibbles, 8 for bytes), the
// ascending indices of the groups that contain at least one set bit.
// Group k covers bits [k*g, (k+1)*g).
func (v *Vector) Groups(g int) []int {
	if g <= 0 {
		panic("bitvec: non-positive group size")
	}
	var out []int
	last := -1
	for _, b := range v.Bits() {
		if grp := b / g; grp != last {
			out = append(out, grp)
			last = grp
		}
	}
	return out
}

// String renders the set bits, e.g. "{3, 17, 76}/128".
func (v *Vector) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, b := range v.Bits() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d", b)
	}
	fmt.Fprintf(&sb, "}/%d", v.n)
	return sb.String()
}

// RandomSource is the subset of prng.Source that bitvec needs; it is an
// interface so bitvec does not depend on the prng package.
type RandomSource interface {
	Uint64() uint64
	Intn(n int) int
}

// RandomMask returns a uniformly random non-zero sub-mask of pattern: each
// set bit of pattern is kept with probability 1/2, re-drawing until at
// least one bit survives. This models a random fault confined to the
// pattern. It panics if pattern is all-zero.
func RandomMask(pattern *Vector, src RandomSource) Vector {
	if pattern.IsZero() {
		panic("bitvec: RandomMask of empty pattern")
	}
	for {
		m := *pattern
		for i := range m.words {
			if m.words[i] != 0 {
				m.words[i] &= src.Uint64()
			}
		}
		if !m.IsZero() {
			return m
		}
	}
}

// RandomSubset returns a uniformly random sub-mask of pattern: each set bit
// is kept with probability 1/2. Unlike RandomMask the empty sub-mask is
// allowed — there is no redraw, so a draw consumes exactly one Uint64 per
// nonzero pattern word. Fault models that can leave the state untouched
// (biased-AND, random byte/nibble values) use this; the resulting
// ineffective traces are what SIFA-style analyses condition on.
func RandomSubset(pattern *Vector, src RandomSource) Vector {
	m := *pattern
	for i := range m.words {
		if m.words[i] != 0 {
			m.words[i] &= src.Uint64()
		}
	}
	return m
}
