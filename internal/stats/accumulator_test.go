package stats

import (
	"math"
	"testing"

	"repro/internal/prng"
)

// randomMatrix builds rows x cols of small-integer group values like the
// fault campaigns produce (byte grouping: 0..255).
func randomMatrix(rng *prng.Source, rows, cols, maxVal int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		row := make([]float64, cols)
		for j := range row {
			row[j] = float64(rng.Intn(maxVal + 1))
		}
		m[i] = row
	}
	return m
}

func fill(t *testing.T, groups, maxOrder int, m [][]float64) *Accumulator {
	t.Helper()
	a := NewAccumulator(groups, maxOrder)
	for _, row := range m {
		a.Add(row)
	}
	return a
}

func closeEnough(t *testing.T, name string, got, want float64) {
	t.Helper()
	diff := math.Abs(got - want)
	scale := math.Max(1, math.Abs(want))
	if diff/scale > 1e-9 {
		t.Errorf("%s: streaming %v vs matrix %v (relative diff %g)", name, got, want, diff/scale)
	}
}

// TestAccumulatorMatchesMatrix is the exact-match contract with the
// matrix-based tests: every order's streaming statistic must agree with
// FirstOrder/SecondOrder/HigherOrder on the same data to within 1e-9.
func TestAccumulatorMatchesMatrix(t *testing.T) {
	cases := []struct {
		name         string
		rowsA, rowsB int
		cols, maxVal int
		maxOrder     int
	}{
		{"bytes-order2", 300, 257, 16, 255, 2},
		{"nibbles-order3", 200, 200, 16, 15, 3},
		{"bits-order4", 128, 96, 64, 1, 4},
		{"bytes-unbalanced", 512, 64, 8, 255, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := prng.New(0x5eed + uint64(tc.maxOrder))
			ma := randomMatrix(rng, tc.rowsA, tc.cols, tc.maxVal)
			mb := randomMatrix(rng, tc.rowsB, tc.cols, tc.maxVal)
			a := fill(t, tc.cols, tc.maxOrder, ma)
			b := fill(t, tc.cols, tc.maxOrder, mb)

			for order := 1; order <= tc.maxOrder; order++ {
				var want TTestResult
				switch order {
				case 1:
					want = FirstOrder(ma, mb)
				case 2:
					want = SecondOrder(ma, mb)
				default:
					want = HigherOrder(order, ma, mb)
				}
				got := a.T(order, b)
				closeEnough(t, tc.name, got.T, want.T)
				if got.Order != want.Order || got.PosI != want.PosI || got.PosJ != want.PosJ {
					t.Errorf("order %d: position (%d,%d,%d) vs matrix (%d,%d,%d)",
						order, got.Order, got.PosI, got.PosJ, want.Order, want.PosI, want.PosJ)
				}
			}

			gotMax := a.MaxT(tc.maxOrder, b)
			wantMax := MaxUpToOrder(tc.maxOrder, ma, mb)
			closeEnough(t, tc.name+"/max", gotMax.T, wantMax.T)
			if gotMax.Order != wantMax.Order {
				t.Errorf("MaxT picked order %d, MaxUpToOrder picked %d", gotMax.Order, wantMax.Order)
			}
		})
	}
}

// TestAccumulatorMergeBitIdentical checks that sharded accumulation merged
// in shard order reproduces the serial accumulation bit for bit, which is
// what the parallel campaign relies on.
func TestAccumulatorMergeBitIdentical(t *testing.T) {
	rng := prng.New(42)
	const rows, cols, maxOrder = 300, 16, 3
	m := randomMatrix(rng, rows, cols, 15)

	serial := fill(t, cols, maxOrder, m)

	merged := NewAccumulator(cols, maxOrder)
	for start := 0; start < rows; start += 77 { // ragged shards
		end := start + 77
		if end > rows {
			end = rows
		}
		shard := NewAccumulator(cols, maxOrder)
		for _, row := range m[start:end] {
			shard.Add(row)
		}
		merged.Merge(shard)
	}

	if merged.N() != serial.N() {
		t.Fatalf("merged N %d != serial N %d", merged.N(), serial.N())
	}
	for i := range serial.pow {
		if math.Float64bits(merged.pow[i]) != math.Float64bits(serial.pow[i]) {
			t.Fatalf("pow[%d]: merged %v != serial %v", i, merged.pow[i], serial.pow[i])
		}
	}
	for i := range serial.cross {
		if math.Float64bits(merged.cross[i]) != math.Float64bits(serial.cross[i]) {
			t.Fatalf("cross[%d]: merged %v != serial %v", i, merged.cross[i], serial.cross[i])
		}
	}
}

// TestAccumulatorDegenerate mirrors Welch's degenerate-case handling:
// constant equal populations give t = 0, constant distinct populations hit
// the cap.
func TestAccumulatorDegenerate(t *testing.T) {
	constant := func(v float64, rows int) *Accumulator {
		a := NewAccumulator(1, 2)
		for i := 0; i < rows; i++ {
			a.Add([]float64{v})
		}
		return a
	}
	same := constant(3, 50).T(1, constant(3, 50))
	if same.T != 0 {
		t.Errorf("identical constant populations: t = %v, want 0", same.T)
	}
	diff := constant(3, 50).T(1, constant(5, 50))
	if diff.T != tCap {
		t.Errorf("distinct constant populations: t = %v, want cap %v", diff.T, tCap)
	}
	tiny := constant(3, 1).T(1, constant(5, 50))
	if tiny.T != 0 {
		t.Errorf("n < 2 population: t = %v, want 0", tiny.T)
	}
}

// TestFrozenReferenceT pins Freeze's moment cache: T at every order
// 1..MaxTestOrder and MaxT up to every order against a frozen reference
// return the same bits as against an unfrozen copy, for 1 to 32 groups at
// every group width.
func TestFrozenReferenceT(t *testing.T) {
	rng := prng.New(11)
	for _, width := range []int{1, 2, 4, 8} {
		maxVal := 1<<width - 1
		for groups := 1; groups <= 32; groups++ {
			refRows := randomMatrix(rng, 40, groups, maxVal)
			ref := fill(t, groups, MaxTestOrder, refRows)
			frozen := fill(t, groups, MaxTestOrder, refRows)
			frozen.Freeze()
			// A cell skewed towards small values, so its statistics are
			// neither zero nor the cap.
			cellRows := randomMatrix(rng, 30, groups, maxVal)
			for _, row := range cellRows[:10] {
				for j := range row {
					row[j] = math.Floor(row[j] / 2)
				}
			}
			cell := fill(t, groups, MaxTestOrder, cellRows)
			same := func(a, b TTestResult) bool {
				return math.Float64bits(a.T) == math.Float64bits(b.T) &&
					a.Order == b.Order && a.PosI == b.PosI && a.PosJ == b.PosJ
			}
			for order := 1; order <= MaxTestOrder; order++ {
				if got, want := cell.T(order, frozen), cell.T(order, ref); !same(got, want) {
					t.Fatalf("width %d, %d groups: T(%d) = %+v against the frozen reference, %+v against its copy",
						width, groups, order, got, want)
				}
				if got, want := cell.MaxT(order, frozen), cell.MaxT(order, ref); !same(got, want) {
					t.Fatalf("width %d, %d groups: MaxT(%d) = %+v against the frozen reference, %+v against its copy",
						width, groups, order, got, want)
				}
			}
		}
	}
}

// TestFrozenReferenceReadOnly: every call that would change a frozen
// accumulator panics and leaves it as it was.
func TestFrozenReferenceReadOnly(t *testing.T) {
	calls := []struct {
		name string
		call func(a *Accumulator)
	}{
		{"Add", func(a *Accumulator) { a.Add([]float64{1, 2}) }},
		{"AddBlock", func(a *Accumulator) { a.AddBlock(NewBlock(2, 4)) }},
		{"Merge", func(a *Accumulator) { a.Merge(NewAccumulator(2, 2)) }},
		{"Reset", func(a *Accumulator) { a.Reset() }},
	}
	for _, c := range calls {
		a := NewAccumulator(2, 2)
		a.Add([]float64{3, 4})
		a.Freeze()
		want := NewAccumulator(2, 2)
		want.Add([]float64{3, 4})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen accumulator did not panic", c.name)
				}
			}()
			c.call(a)
		}()
		requireEqual(t, c.name, want, a)
	}
}
