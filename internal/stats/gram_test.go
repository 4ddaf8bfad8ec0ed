package stats

import (
	"fmt"
	"testing"

	"repro/internal/prng"
)

// forEachGramBody runs f under AddBlock's packed-lane Go bodies and then,
// where the init probe selected them, under its assembly bodies: the
// byte-lane body for widths up to 4 and the Gram body for width 8. It
// restores the probe's choice when f returns or fails.
func forEachGramBody(f func(body string)) {
	asm, lanes := gramAsm, laneGramAsm
	defer func() { gramAsm, laneGramAsm = asm, lanes }()
	gramAsm, laneGramAsm = nil, nil
	f("go")
	if asm != nil || lanes != nil {
		gramAsm, laneGramAsm = asm, lanes
		f("gram")
	}
}

// refGram is the reference of both assembly bodies: the triple loop over
// A's columns and rows, with A = [x | h | l] built as gramAsm documents it
// for bytes and A = [x | q], q = x², otherwise.
func refGram(cols []uint8, groups, rows int, bytes bool) (g [][]int64, sums []int64) {
	m := 2 * groups
	if bytes {
		m = 3 * groups
	}
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

// TestGramAVX2 checks gram, the chunk loop over the byte body, against
// refGram entry for entry: 1 to 64 columns, so every count of pad
// columns; groups-1 live rows (so 0 to 63, inside the first chunk), rows
// that end just past a chunk (65), on a chunk boundary (128) and inside
// the last chunk (255), with stale bytes past them, and full blocks of
// random and of maximal values (255). Entries the body does not own —
// left of a&^3 in row a, past m·mpad, past the groups sums, past A's 64
// rows — keep a guard.
func TestGramAVX2(t *testing.T) {
	if gramAsm == nil {
		t.Skip("AddBlock has no Gram body on this CPU")
	}
	const guard = -7
	rng := prng.New(1)
	for groups := 1; groups <= 64; groups++ {
		counts := []int{groups - 1, chunkRows + 1, 2 * chunkRows, BlockRows - 1, BlockRows, BlockRows}
		for trial, rows := range counts {
			full := trial == len(counts)-1
			cols := make([]uint8, groups*BlockRows)
			for i := range cols {
				cols[i] = uint8(rng.Uint64())
				if full && i%BlockRows < rows {
					cols[i] = 255
				}
			}
			m, mpad := gramShape(groups)
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
			gram(g[:m*mpad], sums[:groups], a[:mpad*chunkRows], cols, groups, rows)
			want, wantSums := refGram(cols, groups, rows, true)
			name := fmt.Sprintf("groups=%d rows=%d", groups, rows)
			checkSums(t, name, sums, wantSums, guard)
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

// checkSums requires sums to hold want and then the guard.
func checkSums(t *testing.T, name string, sums []int32, want []int64, guard int32) {
	t.Helper()
	for j, s := range sums {
		if j >= len(want) {
			if s != guard {
				t.Fatalf("%s: sums[%d] = %d past the columns", name, j, s)
			}
		} else if int64(s) != want[j] {
			t.Fatalf("%s: sums[%d] = %d, want %d", name, j, s, want[j])
		}
	}
}

// TestLaneGramAVX2 checks laneGram, the byte-lane body, against refGram
// entry for entry: widths 1, 2 and 4; 1 to 64 columns and 128 (the bit
// columns of a 128-bit state); rows on both sides of the 32-row steps
// and of the 128-row widening, with stale bytes past them, and full
// blocks of maximal values, where the 16-bit lanes come closest to
// saturating. Entries past tri's pairs, past the groups sums and past
// the columns' stripes keep a guard.
func TestLaneGramAVX2(t *testing.T) {
	if laneGramAsm == nil {
		t.Skip("AddBlock has no byte-lane body on this CPU")
	}
	const guard = -7
	rng := prng.New(2)
	counts := []int{0, 1, 31, 32, 33, 127, 128, 129, 255, 256}
	for _, width := range []int{1, 2, 4} {
		max := uint8(1)<<width - 1
		for groups := 1; groups <= 128; groups++ {
			if groups > 64 && groups < 128 {
				continue
			}
			for trial := 0; trial <= len(counts); trial++ {
				full := trial == len(counts)
				rows := BlockRows
				if !full {
					rows = counts[trial]
				}
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
				n := laneTriLen(groups)
				tri := make([]int32, n+5)
				sums := make([]int32, groups+3)
				lanes := make([]uint8, groups*laneColBytes+9)
				for _, s := range [][]int32{tri, sums} {
					for i := range s {
						s[i] = guard
					}
				}
				for i := range lanes {
					lanes[i] = guard & 0xff
				}
				laneGram(tri[:n], sums[:groups], lanes[:groups*laneColBytes], cols, groups, rows)
				want, wantSums := refGram(cols, groups, rows, false)
				name := fmt.Sprintf("width=%d groups=%d rows=%d", width, groups, rows)
				checkSums(t, name, sums, wantSums, guard)
				k := 0
				for a := 0; a < groups; a++ {
					for b := a; b < groups; b++ {
						w := [4]int64{want[a][b], want[groups+a][b], want[a][groups+b], want[groups+a][groups+b]}
						for i, v := range tri[k : k+4] {
							if int64(v) != w[i] {
								t.Fatalf("%s: pair (%d, %d) sum %d = %d, want %d", name, a, b, i, v, w[i])
							}
						}
						k += 4
					}
				}
				for i, v := range tri[n:] {
					if v != guard {
						t.Fatalf("%s: tri[%d] = %d past the pairs", name, n+i, v)
					}
				}
				for _, v := range lanes[groups*laneColBytes:] {
					if v != guard&0xff {
						t.Fatalf("%s: lanes written past %d columns", name, groups)
					}
				}
			}
		}
	}
}

// TestGramRejectsShortOperands requires both wrappers to panic on an
// operand one element short instead of running their body past it.
func TestGramRejectsShortOperands(t *testing.T) {
	m, mpad := gramShape(3)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"gram", func() {
			gram(make([]int32, m*mpad-1), make([]int32, 3), make([]int16, mpad*chunkRows), make([]uint8, 3*BlockRows), 3, BlockRows)
		}},
		{"laneGram", func() {
			laneGram(make([]int32, laneTriLen(3)), make([]int32, 3), make([]uint8, 3*laneColBytes-1), make([]uint8, 3*BlockRows), 3, BlockRows)
		}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short operand did not panic", c.name)
				}
			}()
			c.run()
		}()
	}
}
