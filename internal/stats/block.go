package stats

import "fmt"

// BlockRows is the capacity of a Block: the most rows one AddBlock call
// folds. It equals a campaign shard (evaluate.ShardSize), so the fault
// campaign draws, encrypts and folds a shard's traces as one block.
const BlockRows = 256

// Block stages up to BlockRows rows of group values for
// Accumulator.AddBlock. Values are unsigned integers of a fixed width of
// 1, 2, 4 or 8 bits, stored column-major as uint8: column j of row r is
// cols[j*BlockRows+r], so AddBlock's per-column and per-pair loops read
// contiguous memory. A Block also owns AddBlock's scratch, so reusing one
// Block keeps AddBlock allocation-free. A Block is not safe for
// concurrent use.
type Block struct {
	groups   int
	width    int // bits per group value
	rowBytes int // bytes per packed row
	rows     int
	cols     []uint8
	// Packed operands of the pair products, per column like cols and
	// filled by AddBlock (see addNibbleBlock and addByteBlock); made on
	// first use by an accumulator that reads them.
	u, v []uint64
	// A, G and the column sums of the Gram body (see gramAsm); made on
	// its first use.
	gramA        []int16
	gramG, gramS []int32
	row          []float64 // one row, for the float path of orders >= 3
}

// NewBlock returns an empty block for rows of groups values, each width
// bits wide (1, 2, 4 or 8).
func NewBlock(groups, width int) *Block {
	if groups < 1 {
		panic(fmt.Sprintf("stats: NewBlock requires groups >= 1, got %d", groups))
	}
	switch width {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("stats: NewBlock requires a width of 1, 2, 4 or 8 bits, got %d", width))
	}
	return &Block{
		groups:   groups,
		width:    width,
		rowBytes: (groups*width + 7) / 8,
		cols:     make([]uint8, groups*BlockRows),
		row:      make([]float64, groups),
	}
}

// SetRows replaces the block's contents with rows packed rows read from
// src. Row r starts at src[r*stride] and holds the groups values in
// little-endian bit order: value j occupies bits j*width..(j+1)*width-1,
// counting from the least significant bit of the row's first byte. This
// is the layout of a cipher state split into width-bit groups.
func (b *Block) SetRows(src []byte, stride, rows int) {
	if rows < 0 || rows > BlockRows {
		panic(fmt.Sprintf("stats: SetRows of %d rows, a block holds 0..%d", rows, BlockRows))
	}
	if rows > 0 && len(src) < (rows-1)*stride+b.rowBytes {
		panic(fmt.Sprintf("stats: SetRows source of %d bytes is too short for %d rows of stride %d", len(src), rows, stride))
	}
	b.rows = rows
	switch b.width {
	case 8:
		for j := 0; j < b.groups; j++ {
			col, off := b.cols[j*BlockRows:][:rows], j
			for r := range col {
				col[r] = src[off]
				off += stride
			}
		}
	case 4:
		// Both nibbles of a source byte in one pass.
		for j := 0; j < b.groups; j += 2 {
			lo := b.cols[j*BlockRows:][:rows]
			if j+1 == b.groups {
				for r := range lo {
					lo[r] = src[r*stride+j/2] & 0xf
				}
				break
			}
			hi := b.cols[(j+1)*BlockRows:][:rows]
			off := j / 2
			for r := range lo {
				v := src[off]
				lo[r], hi[r] = v&0xf, v>>4
				off += stride
			}
		}
	default:
		w := uint(b.width)
		mask := uint8(1)<<w - 1
		perByte := 8 / b.width
		for j := 0; j < b.groups; j++ {
			col := b.cols[j*BlockRows:][:rows]
			k, shift := j/perByte, uint(j%perByte)*w
			for r := range col {
				col[r] = src[r*stride+k] >> shift & mask
			}
		}
	}
}

// AddBlock folds the block's rows into the running sums.
//
// For orders <= 2 it sums the block in integer arithmetic — per column the
// powers Σx^k (k <= 4), per column pair Σx_i x_j, Σx_i² x_j, Σx_i x_j² and
// Σx_i² x_j² — and adds each sum to its float64 total once. Values are at
// most 255, so every term is below 2^32 and every sum of a block of up to
// 256 rows below 2^40, and the integer arithmetic is exact. Add rounds
// nothing either while a total stays below 2^53, that is for at least
// 2^21 rows: both paths then hold the exact integer totals, so they
// produce the same float64 bits for any split of the rows into blocks.
// Order 2 reads its sums off one Gram matrix per block where gramAsm has
// a body (addGramBlock); order 1, and order 2 elsewhere, runs the
// packed-lane Go bodies, which compute the same integers.
//
// Orders >= 3 keep Add's row-wise float path, in row order: their sums
// of x^6 and beyond are not exact in float64, so only the same sequence
// of additions reproduces Add's bits.
func (a *Accumulator) AddBlock(b *Block) {
	a.mutable()
	if b.groups != a.groups {
		panic(fmt.Sprintf("stats: block has %d columns, accumulator has %d", b.groups, a.groups))
	}
	n := b.rows
	if n == 0 {
		return
	}
	switch {
	case a.maxOrder > 2:
		for r := 0; r < n; r++ {
			for j := range b.row {
				b.row[j] = float64(b.cols[j*BlockRows+r])
			}
			a.Add(b.row)
		}
		return
	case a.cross != nil && gramAsm != nil:
		a.addGramBlock(b)
	case b.width <= 4:
		a.addNibbleBlock(b)
	default:
		a.addByteBlock(b)
	}
	a.n += n
}

// The kernels sum rows in segments of segRows, which bounds each lane of
// a packed product (see addNibbleBlock). A block is padded with
// zero rows to a whole number of segments; zero rows add nothing to any
// sum. Sums whose lanes would overflow over a whole block run in chunks
// of chunkRows rows: the Gram body's passes and addNibbleBlock's power
// word.
const (
	segRows   = 8
	chunkRows = 64
)

// padRows zeroes the rows of every column from the block's row count up to
// the next segment boundary and returns that padded count. With operands
// set it also makes the packed operands u and v on their first use.
func (b *Block) padRows(operands bool) int {
	if operands && b.u == nil {
		b.u = make([]uint64, b.groups*BlockRows)
		b.v = make([]uint64, b.groups*BlockRows)
	}
	padded := (b.rows + segRows - 1) / segRows * segRows
	for j := 0; j < b.groups; j++ {
		clear(b.cols[j*BlockRows+b.rows : j*BlockRows+padded])
	}
	return padded
}

// Lane masks of the packed products.
const (
	mask15 = 1<<15 - 1
	mask19 = 1<<19 - 1
	mask27 = 1<<27 - 1
	mask30 = 1<<30 - 1
)

// addNibbleBlock folds a block of values of at most 4 bits, one multiply
// per row and column pair. With u = x + x²·2^15 and
// v = x + x²·2^30 the product u_i·v_j holds x_i x_j, x_i² x_j, x_i x_j² and
// x_i² x_j² in the bit lanes starting at 0, 15, 30 and 45. For x <= 15 a
// segment of 8 rows sums at most 8·15·15, 8·15³, 8·15³ and 8·15⁴ into
// them, which fit in 15, 15, 15 and 19 bits, so no lane carries into the
// next. After each segment the lanes move into two words with 30 bits per
// sum: e gathers the lanes at 0 and 30, o the lanes at 15 and 45.
//
// The power sums pack the same way: x + x²·2^10 + x³·2^24 + x⁴·2^42 summed
// over a chunk of at most 64 rows keeps Σx, Σx², Σx³ and Σx⁴ below 2^10,
// 2^14, 2^18 and 2^22, so one word per column and chunk holds all four;
// past 68 rows of 15 the Σx lane would carry, so each chunk's word is
// split into the block's four sums. Order 1 reads no pair products, so it
// packs no operands.
func (a *Accumulator) addNibbleBlock(b *Block) {
	pairs := a.cross != nil
	padded := b.padRows(pairs)
	for j := 0; j < a.groups; j++ {
		col := b.cols[j*BlockRows:][:padded]
		var s1, s2, s3, s4 uint64
		for lo := 0; lo < padded; lo += chunkRows {
			hi := min(lo+chunkRows, padded)
			var p uint64
			if pairs {
				cu, cv := b.u[j*BlockRows:][lo:hi], b.v[j*BlockRows:][lo:hi]
				for r, c := range col[lo:hi] {
					t := &nibbleTable[c&0xf]
					p += t.powers
					cu[r], cv[r] = t.u, t.v
				}
			} else {
				for _, c := range col[lo:hi] {
					p += nibbleTable[c&0xf].powers
				}
			}
			s1 += p & (1<<10 - 1)
			s2 += p >> 10 & (1<<14 - 1)
			s3 += p >> 24 & (1<<18 - 1)
			s4 += p >> 42
		}
		a.addPowers(j, s1, s2, s3, s4)
	}
	if !pairs {
		return
	}
	c := 0
	for i := 0; i < a.groups; i++ {
		ui := b.u[i*BlockRows:][:padded]
		for j := i + 1; j < a.groups; j++ {
			e, o := nibbleSums(ui, b.v[j*BlockRows:][:padded])
			addPair(a.cross[c:c+4], e&mask30, o&mask30, e>>30, o>>30)
			c += 4
		}
	}
}

// nibbleTable holds, per value x <= 15, the packed power term and the
// u and v operands of addNibbleBlock.
var nibbleTable = func() (t [16]struct{ powers, u, v uint64 }) {
	for x := uint64(0); x < 16; x++ {
		t[x].powers = x | x*x<<10 | x*x*x<<24 | x*x*x*x<<42
		t[x].u = x | x*x<<15
		t[x].v = x | x*x<<30
	}
	return t
}()

// nibbleSums returns the e and o words of Σ u[r]·v[r] (see addNibbleBlock).
// len(u) must be a multiple of segRows and len(v) at least len(u).
func nibbleSums(u, v []uint64) (e, o uint64) {
	for r := 0; r+segRows <= len(u); r += segRows {
		x := (*[segRows]uint64)(u[r:])
		y := (*[segRows]uint64)(v[r:])
		m := x[0]*y[0] + x[1]*y[1] + x[2]*y[2] + x[3]*y[3] + x[4]*y[4] + x[5]*y[5] + x[6]*y[6] + x[7]*y[7]
		e += m & (mask15 | mask15<<30)
		o += m >> 15 & (mask15 | mask19<<30)
	}
	return e, o
}

// addByteBlock folds a block of 8-bit values, two multiplies per row and
// column pair. With u = x + x²·2^27 the product u_i·x_j holds
// x_i x_j and x_i² x_j in the lanes starting at 0 and 27; over a 256-row
// block they sum to at most 256·255² < 2^24 and 256·255³ < 2^32, so the
// block sum is exact. The product u_i·x_j² holds x_i x_j² and x_i² x_j² in
// the same lanes; a segment of 8 rows sums at most 8·255³ < 2^27 and
// 8·255⁴ < 2^35 into them, after which the lanes are split off. A column
// paired with itself yields Σx², Σx³ and Σx⁴ the same way.
func (a *Accumulator) addByteBlock(b *Block) {
	padded := b.padRows(true)
	for j := 0; j < a.groups; j++ {
		u := b.u[j*BlockRows:][:padded]
		v := b.v[j*BlockRows:][:padded]
		col := b.cols[j*BlockRows:][:padded]
		var s1 uint64
		for r, c := range col {
			x := uint64(c)
			s1 += x
			u[r] = x | x*x<<27
			v[r] = x * x
		}
		m, _, hi := byteSums(u, col, v)
		a.addPowers(j, s1, m&mask27, m>>27, hi)
	}
	if a.cross == nil {
		return
	}
	c := 0
	for i := 0; i < a.groups; i++ {
		ui := b.u[i*BlockRows:][:padded]
		for j := i + 1; j < a.groups; j++ {
			m, lo, hi := byteSums(ui, b.cols[j*BlockRows:][:padded], b.v[j*BlockRows:][:padded])
			addPair(a.cross[c:c+4], m&mask27, m>>27, lo, hi)
			c += 4
		}
	}
}

// byteSums returns Σ u[r]·x[r] and the two lane sums of Σ u[r]·q[r]
// (see addByteBlock). len(u) must be a multiple of segRows and x and q at
// least as long.
func byteSums(u []uint64, x []uint8, q []uint64) (m, lo, hi uint64) {
	for r := 0; r+segRows <= len(u); r += segRows {
		a := (*[segRows]uint64)(u[r:])
		b := (*[segRows]uint8)(x[r:])
		c := (*[segRows]uint64)(q[r:])
		m += a[0]*uint64(b[0]) + a[1]*uint64(b[1]) + a[2]*uint64(b[2]) + a[3]*uint64(b[3]) +
			a[4]*uint64(b[4]) + a[5]*uint64(b[5]) + a[6]*uint64(b[6]) + a[7]*uint64(b[7])
		s := a[0]*c[0] + a[1]*c[1] + a[2]*c[2] + a[3]*c[3] + a[4]*c[4] + a[5]*c[5] + a[6]*c[6] + a[7]*c[7]
		lo += s & mask27
		hi += s >> 27
	}
	return m, lo, hi
}

// addPowers adds one block's Σx, Σx², Σx³ and Σx⁴ of column j to the
// power totals the accumulator keeps (the first two for order 1).
func (a *Accumulator) addPowers(j int, s1, s2, s3, s4 uint64) {
	sums := [4]uint64{s1, s2, s3, s4}
	for k, s := range sums[:a.powers] {
		a.pow[j*a.powers+k] += float64(s)
	}
}

// addPair adds one block's sums of a column pair to its four cross
// totals, in the order Σx_i x_j, Σx_i² x_j, Σx_i x_j², Σx_i² x_j².
func addPair(cross []float64, ij, iij, ijj, iijj uint64) {
	cross = cross[:4]
	cross[0] += float64(ij)
	cross[1] += float64(iij)
	cross[2] += float64(ijj)
	cross[3] += float64(iijj)
}
