// Bitsliced lane primitives shared by the batched cipher kernels: a
// boolean gate on lanes evaluates 64 traces at once. The two operations
// every kernel needs, converting between per-trace state words and lanes
// and (for ARX ciphers) adding two lane-sliced words, live here so new
// kernels (SPECK today, SIMECK next) inherit them instead of
// reimplementing them.

package bitvec

// transposeAsm is Transpose64's assembly body, set at init where this
// GOARCH has one and the CPU can run it (transpose_amd64.go). While it is
// nil, Transpose64 runs transpose64Go.
var transposeAsm func(a *[64]uint64)

// Transpose64 transposes the 64x64 bit matrix in place: bit k of word i
// becomes bit i of word k. It is an involution, so the same routine
// converts trace state words to lanes and back.
func Transpose64(a *[64]uint64) {
	if transposeAsm != nil {
		transposeAsm(a)
		return
	}
	transpose64Go(a)
}

// transpose64Go is Transpose64's body on every GOARCH, and the reference
// its assembly body is tested against (Hacker's Delight 7-3). Stage j,
// for j = 32, 16, ..., 1, exchanges the j-bit blocks of words k and k+j
// that lie off the diagonal; each stage swaps one bit of the row index
// with the same bit of the column index, so the stages commute.
func transpose64Go(a *[64]uint64) {
	m := uint64(0x00000000ffffffff)
	for j := 32; j != 0; {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
		j >>= 1
		m ^= m << uint(j)
	}
}

// RippleAdd computes dst = a + b (mod 2^len) over bitsliced lanes: lane i
// of dst receives the i-th sum bit of 64 independent additions whose i-th
// operand bits are lane i of a and b. The carry chain is the textbook
// ripple-carry recurrence evaluated across lanes —
//
//	sum_i   = a_i XOR b_i XOR c_i
//	c_{i+1} = (a_i AND b_i) OR (c_i AND (a_i XOR b_i))
//
// — which costs 5 word ops per bit position for all 64 traces at once.
// This is the bitsliced modular addition used by the SPECK kernel; any
// future ARX kernel should reuse it. dst may alias a or b. The final
// carry out of the top lane is discarded (addition mod 2^len).
func RippleAdd(dst, a, b []uint64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("bitvec: RippleAdd operand length mismatch")
	}
	// Re-slice to a common length so the loop body needs no bounds checks.
	dst = dst[:len(a)]
	b = b[:len(a)]
	var c uint64
	for i := range a {
		ai, bi := a[i], b[i]
		s := ai ^ bi
		dst[i] = s ^ c
		c = ai&bi | c&s
	}
}
