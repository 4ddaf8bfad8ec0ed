package stats

import "fmt"

// gramAsm is the order-2 block body of AddBlock, set at init where this
// GOARCH has one and the CPU can run it (gram_amd64.go). While it is nil,
// AddBlock runs the packed-lane Go bodies, addNibbleBlock and
// addByteBlock; tests set it to nil to force them.
//
// It adds the Gram matrix G = AᵀA of one chunk of a block to g. A has
// chunkRows rows, one per chunk row, zero past rows, so stale column bytes
// add nothing. cols starts at the chunk's first row, and column j at
// cols[j*BlockRows:]. A's columns are small integers widened from the
// block's groups columns:
//
//	widths 1, 2, 4: A = [x | q], q = x² <= 225
//	width 8:        A = [x | h | l], x² = 256·h + l, h, l <= 255
//
// so A has m = 2·groups or 3·groups columns, padded with zero columns to
// mpad, the next multiple of 4. Row a of g, at g[a*mpad:], receives
// G[a][b] for every b from a&^3 up to mpad; G is symmetric, and the upper
// triangle holds every sum AddBlock needs (see addGramBlock). sums[j]
// receives Σx of column j. gram zeroes these entries and runs gramAsm
// once per chunk, so they end up holding the block's sums.
//
// Every entry of A is at most 255, so one multiply-add lane (two
// products) is at most 2·255² = 130,050 and an entry of G summed over a
// whole block at most 256·255² = 16,646,400 < 2^24: no int32 lane can
// overflow, and every entry is the exact integer.
var gramAsm func(g, sums []int32, a []int16, cols []uint8, groups, rows int, bytes bool)

// gramShape returns A's column count and its padded count for a block of
// groups columns, split into x, h and l columns when bytes is set.
func gramShape(groups int, bytes bool) (m, mpad int) {
	m = 2 * groups
	if bytes {
		m = 3 * groups
	}
	return m, (m + 3) &^ 3
}

// gram checks the operand lengths, zeroes the entries gramAsm adds into,
// and runs gramAsm over the rows of cols in chunks of chunkRows.
func gram(g, sums []int32, a []int16, cols []uint8, groups, rows int, bytes bool) {
	m, mpad := gramShape(groups, bytes)
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
		gramAsm(g, sums, a, cols[lo:], groups, min(chunkRows, rows-lo), bytes)
	}
}

// addGramBlock folds an order-2 block through gramAsm. With G from gram,
// n = groups, x_j = column j and, for widths up to 4, q_j = column n+j:
//
//	Σx_i x_j = G[x_i][x_j], Σx_i² x_j = G[x_j][q_i],
//	Σx_i x_j² = G[x_i][q_j], Σx_i² x_j² = G[q_i][q_j],
//	Σx² = G[x][x], Σx³ = G[x][q], Σx⁴ = G[q][q].
//
// For width 8, h_j = column n+j and l_j = column 2n+j, and each x² term
// splits as 256·h + l:
//
//	Σx_i² x_j = 256·G[x_j][h_i] + G[x_j][l_i],
//	Σx_i x_j² = 256·G[x_i][h_j] + G[x_i][l_j],
//	Σx_i² x_j² = 65536·G[h_i][h_j] + 256·(G[h_i][l_j] + G[h_j][l_i]) + G[l_i][l_j],
//	Σx³ = 256·G[x][h] + G[x][l], Σx⁴ = 65536·G[h][h] + 512·G[h][l] + G[l][l].
//
// These are the integers addNibbleBlock and addByteBlock compute, added
// to the same float64 totals, so both bodies leave the same bits.
func (a *Accumulator) addGramBlock(b *Block) {
	bytes := b.width == 8
	m, mpad := gramShape(b.groups, bytes)
	if b.gramG == nil {
		b.gramA = make([]int16, mpad*chunkRows)
		b.gramG = make([]int32, m*mpad)
		b.gramS = make([]int32, b.groups)
	}
	g, s := b.gramG, b.gramS
	gram(g, s, b.gramA, b.cols, b.groups, b.rows, bytes)
	n := a.groups
	at := func(r, c int) uint64 { return uint64(g[r*mpad+c]) }
	if !bytes {
		for j := 0; j < n; j++ {
			a.addPowers(j, uint64(s[j]), at(j, j), at(j, n+j), at(n+j, n+j))
		}
		c := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				addPair(a.cross[c:c+4], at(i, j), at(j, n+i), at(i, n+j), at(n+i, n+j))
				c += 4
			}
		}
		return
	}
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
