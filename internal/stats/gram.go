package stats

import "fmt"

// AddBlock's order-2 assembly bodies, set at init where this GOARCH has
// them and the CPU can run them (gram_amd64.go). While one is nil, blocks
// of its widths run the packed-lane Go bodies, addNibbleBlock and
// addByteBlock; tests set them to nil to force those.
//
// gramAsm serves byte blocks (width 8). It adds the Gram matrix G = AᵀA
// of one chunk of a block to g. A has chunkRows rows, one per chunk row,
// zero past rows, so stale column bytes add nothing. cols starts at the
// chunk's first row, and column j at cols[j*BlockRows:]. A's columns are
// small integers widened from the block's groups columns,
//
//	A = [x | h | l], x² = 256·h + l, h, l <= 255,
//
// so A has m = 3·groups columns, padded with zero columns to mpad, the
// next multiple of 4. Row a of g, at g[a*mpad:], receives G[a][b] for
// every b from a&^3 up to mpad; G is symmetric, and the upper triangle
// holds every sum AddBlock needs (see addGramBlock). sums[j] receives Σx
// of column j. gram zeroes these entries and runs gramAsm once per chunk,
// so they end up holding the block's sums.
//
// Every entry of A is at most 255, so one multiply-add lane (two
// products) is at most 2·255² = 130,050 and an entry of G summed over a
// whole block at most 256·255² = 16,646,400 < 2^24: no int32 lane can
// overflow, and every entry is the exact integer.
var gramAsm func(g, sums []int32, a []int16, cols []uint8, groups, rows int)

// laneGramAsm serves blocks of values of at most 4 bits (widths 1, 2 and
// 4), whose products fit byte lanes. It reads the first rows rows of the
// groups columns of cols, column j at cols[j*BlockRows:], and stages each
// column in its laneColBytes stripe of lanes in steps of 32 rows: per
// step x, q = x² looked up in a 16-entry table of squares, and q widened
// to 16 bits. The rows of the last step past rows are masked to zero, so
// stale column bytes add nothing, and an odd step count gets a step of
// zeros, so the products run 64 rows at a time. sums[j] receives Σx of
// column j. Then, for every column pair a <= b in order (a ascending, b
// from a up), it writes four int32 to tri, the order addPair takes them
// in:
//
//	Σx_a x_b, Σq_a x_b, Σx_a q_b, Σq_a q_b,
//
// which for a == b are Σx², Σx³, Σx³ and Σx⁴. The first three multiply
// unsigned bytes (x or q <= 225) by signed bytes (x <= 15, so never
// negative) with VPMADDUBSW, whose 16-bit lanes each add two products:
// at most 2·225·15 = 6,750. Four such results, 128 rows, go into one
// 16-bit lane before it is widened to 32 bits, and 4·6,750 = 27,000
// stays below 32,767, so no lane saturates. q·q reaches 225² = 50,625,
// which no signed 16-bit lane holds, so Σq_a q_b multiplies 16-bit q on
// VPMADDWD lanes. Every sum of a 256-row block is at most 256·225² =
// 12,960,000 < 2^24, so each is the exact integer, reduced across lanes
// once per block. Live values must be below 16.
var laneGramAsm func(tri, sums []int32, lanes, cols []uint8, groups, rows int)

// laneColBytes is the size of one column's stripe in laneGramAsm's lanes:
// per 32-row step, 32 bytes each of x and q, then 32 16-bit q.
const laneColBytes = 4 * BlockRows

// laneTriLen returns the length of laneGramAsm's tri for groups columns:
// four sums for each of the groups·(groups+1)/2 pairs a <= b.
func laneTriLen(groups int) int { return 2 * groups * (groups + 1) }

// gramShape returns A's column count and its padded count for a byte
// block of groups columns.
func gramShape(groups int) (m, mpad int) {
	m = 3 * groups
	return m, (m + 3) &^ 3
}

// gram checks the operand lengths, zeroes the entries gramAsm adds into,
// and runs gramAsm over the rows of cols in chunks of chunkRows.
func gram(g, sums []int32, a []int16, cols []uint8, groups, rows int) {
	m, mpad := gramShape(groups)
	if groups < 1 || rows < 0 || rows > BlockRows || len(cols) < groups*BlockRows ||
		len(a) < mpad*chunkRows || len(g) < m*mpad || len(sums) < groups {
		panic(fmt.Sprintf("stats: gram of %d groups and %d rows with operands of %d, %d, %d and %d elements",
			groups, rows, len(g), len(sums), len(a), len(cols)))
	}
	clear(sums[:groups])
	for r := 0; r < m; r++ {
		clear(g[r*mpad+r&^3 : (r+1)*mpad])
	}
	for lo := 0; lo < rows; lo += chunkRows {
		gramAsm(g, sums, a, cols[lo:], groups, min(chunkRows, rows-lo))
	}
}

// laneGram checks the operand lengths and runs laneGramAsm.
func laneGram(tri, sums []int32, lanes, cols []uint8, groups, rows int) {
	if groups < 1 || rows < 0 || rows > BlockRows || len(cols) < groups*BlockRows ||
		len(lanes) < groups*laneColBytes || len(tri) < laneTriLen(groups) || len(sums) < groups {
		panic(fmt.Sprintf("stats: laneGram of %d groups and %d rows with operands of %d, %d, %d and %d elements",
			groups, rows, len(tri), len(sums), len(lanes), len(cols)))
	}
	laneGramAsm(tri, sums, lanes, cols, groups, rows)
}

// addGramBlock folds an order-2 byte block through gramAsm. With G from
// gram, n = groups, x_j = column j, h_j = column n+j and l_j = column
// 2n+j, each x² term splits as 256·h + l:
//
//	Σx_i x_j = G[x_i][x_j],
//	Σx_i² x_j = 256·G[x_j][h_i] + G[x_j][l_i],
//	Σx_i x_j² = 256·G[x_i][h_j] + G[x_i][l_j],
//	Σx_i² x_j² = 65536·G[h_i][h_j] + 256·(G[h_i][l_j] + G[h_j][l_i]) + G[l_i][l_j],
//	Σx² = G[x][x], Σx³ = 256·G[x][h] + G[x][l], Σx⁴ = 65536·G[h][h] + 512·G[h][l] + G[l][l].
//
// These are the integers addByteBlock computes, added to the same float64
// totals, so both bodies leave the same bits.
func (a *Accumulator) addGramBlock(b *Block) {
	m, mpad := gramShape(b.groups)
	if b.gramG == nil {
		b.gramA = make([]int16, mpad*chunkRows)
		b.gramG = make([]int32, m*mpad)
		b.gramS = make([]int32, b.groups)
	}
	g, s := b.gramG, b.gramS
	gram(g, s, b.gramA, b.cols, b.groups, b.rows)
	n := a.groups
	at := func(r, c int) uint64 { return uint64(g[r*mpad+c]) }
	h, l := n, 2*n
	for j := 0; j < n; j++ {
		a.addPowers(j, uint64(s[j]), at(j, j), at(j, h+j)<<8+at(j, l+j),
			at(h+j, h+j)<<16+at(h+j, l+j)<<9+at(l+j, l+j))
	}
	c := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			addPair(a.cross[c:c+4], at(i, j),
				at(j, h+i)<<8+at(j, l+i),
				at(i, h+j)<<8+at(i, l+j),
				at(h+i, h+j)<<16+(at(h+i, l+j)+at(h+j, l+i))<<8+at(l+i, l+j))
			c += 4
		}
	}
}

// addLaneBlock folds an order-2 block of values of at most 4 bits through
// laneGramAsm. Its tri holds, per column a, the diagonal sums Σx², Σx³,
// Σx³ and Σx⁴ and then the four cross sums of every pair (a, b > a) in
// the accumulator's pair order, so the fold walks tri and the cross
// totals side by side. These are the integers addNibbleBlock computes,
// added to the same float64 totals, so both bodies leave the same bits.
func (a *Accumulator) addLaneBlock(b *Block) {
	n := b.groups
	if b.laneT == nil {
		b.lanes = make([]uint8, n*laneColBytes)
		b.laneT = make([]int32, laneTriLen(n))
		b.gramS = make([]int32, n)
	}
	laneGram(b.laneT, b.gramS, b.lanes, b.cols, n, b.rows)
	t, cross := b.laneT, a.cross
	for j, s := range b.gramS {
		a.addPowers(j, uint64(s), uint64(t[0]), uint64(t[1]), uint64(t[3]))
		k := 4 * (n - 1 - j)
		pairs, totals := t[4:4+k], cross[:k]
		for i, v := range pairs {
			totals[i] += float64(v)
		}
		t, cross = t[4+k:], cross[k:]
	}
}
