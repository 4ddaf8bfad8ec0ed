package stats

import (
	"fmt"
	"testing"

	"repro/internal/prng"
)

// forEachGramBody runs f under AddBlock's packed-lane Go bodies and then,
// where the init probe selected one, under the Gram body. It restores the
// probe's choice when f returns or fails.
func forEachGramBody(f func(body string)) {
	asm := gramAsm
	defer func() { gramAsm = asm }()
	gramAsm = nil
	f("go")
	if asm != nil {
		gramAsm = asm
		f("gram")
	}
}

// refGram is the Gram body's reference: the triple loop over A's columns
// and rows, with A built as gramAsm documents it.
func refGram(cols []uint8, groups, rows int, bytes bool) (g [][]int64, sums []int64) {
	m, _ := gramShape(groups, bytes)
	a := make([][BlockRows]int64, m)
	sums = make([]int64, groups)
	for j := 0; j < groups; j++ {
		for r := 0; r < rows; r++ {
			x := int64(cols[j*BlockRows+r])
			sums[j] += x
			a[j][r] = x
			if bytes {
				a[groups+j][r], a[2*groups+j][r] = x*x>>8, x*x&0xff
			} else {
				a[groups+j][r] = x * x
			}
		}
	}
	g = make([][]int64, m)
	for i := range g {
		g[i] = make([]int64, m)
	}
	for i := range g {
		for j := i; j < m; j++ {
			for r := 0; r < rows; r++ {
				g[i][j] += a[i][r] * a[j][r]
			}
			g[j][i] = g[i][j]
		}
	}
	return g, sums
}

// TestGramAVX2 checks gram, the chunk loop over the assembly body,
// against refGram entry for entry: 1 to 64 columns, so every count of pad
// columns; groups-1 live rows (so 0 to 63, inside the first chunk), rows
// that end just past a chunk (65), on a chunk boundary (128) and inside
// the last chunk (255), with stale bytes past them, and full blocks of
// random and of maximal values (15 for the nibble split, 255 for the byte
// split). Entries the body does not own — left of a&^3 in row a, past
// m·mpad, past the groups sums, past A's 64 rows — keep a guard.
func TestGramAVX2(t *testing.T) {
	if gramAsm == nil {
		t.Skip("AddBlock has no Gram body on this CPU")
	}
	const guard = -7
	rng := prng.New(1)
	for _, bytes := range []bool{false, true} {
		max := uint8(15)
		if bytes {
			max = 255
		}
		for groups := 1; groups <= 64; groups++ {
			counts := []int{groups - 1, chunkRows + 1, 2 * chunkRows, BlockRows - 1, BlockRows, BlockRows}
			for trial, rows := range counts {
				full := trial == len(counts)-1
				cols := make([]uint8, groups*BlockRows)
				for i := range cols {
					cols[i] = uint8(rng.Uint64())
					if i%BlockRows < rows {
						cols[i] &= max
						if full {
							cols[i] = max
						}
					}
				}
				m, mpad := gramShape(groups, bytes)
				g := make([]int32, m*mpad+5)
				sums := make([]int32, groups+3)
				a := make([]int16, mpad*chunkRows+9)
				for _, s := range [][]int32{g, sums} {
					for i := range s {
						s[i] = guard
					}
				}
				for i := range a {
					a[i] = guard
				}
				gram(g[:m*mpad], sums[:groups], a[:mpad*chunkRows], cols, groups, rows, bytes)
				want, wantSums := refGram(cols, groups, rows, bytes)
				name := fmt.Sprintf("bytes=%v groups=%d rows=%d", bytes, groups, rows)
				for j, s := range sums {
					if w := int64(guard); j < groups {
						w = wantSums[j]
						if int64(s) != w {
							t.Fatalf("%s: sums[%d] = %d, want %d", name, j, s, w)
						}
					} else if s != guard {
						t.Fatalf("%s: sums[%d] = %d past the columns", name, j, s)
					}
				}
				for i, v := range g {
					r, c := i/mpad, i%mpad
					w := int64(guard)
					if r < m && c >= r&^3 {
						w = 0
						if c < m {
							w = want[r][c]
						}
					}
					if int64(v) != w {
						t.Fatalf("%s: G[%d][%d] = %d, want %d", name, r, c, v, w)
					}
				}
				for _, v := range a[mpad*chunkRows:] {
					if v != guard {
						t.Fatalf("%s: a written past its %d columns", name, mpad)
					}
				}
			}
		}
	}
}

func TestGramRejectsShortOperands(t *testing.T) {
	if gramAsm == nil {
		t.Skip("AddBlock has no Gram body on this CPU")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("gram with a short G did not panic")
		}
	}()
	m, mpad := gramShape(3, false)
	gram(make([]int32, m*mpad-1), make([]int32, 3), make([]int16, mpad*chunkRows), make([]uint8, 3*BlockRows), 3, BlockRows, false)
}
