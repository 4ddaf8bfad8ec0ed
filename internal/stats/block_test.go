package stats

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

// TestSetRowsStride reads rows out of an interleaved buffer, the layout
// of a fault campaign's per-point states.
func TestSetRowsStride(t *testing.T) {
	src := []byte{0x21, 0xaa, 0x43, 0xbb, 0x65}
	blk := NewBlock(2, 4)
	blk.SetRows(src, 2, 3)
	want := [][2]uint8{{1, 2}, {3, 4}, {5, 6}}
	for r, row := range want {
		for j, v := range row {
			if got := blk.cols[j*BlockRows+r]; got != v {
				t.Errorf("row %d group %d = %d, want %d", r, j, got, v)
			}
		}
	}
	if blk.rows != 3 {
		t.Errorf("rows = %d, want 3", blk.rows)
	}
}

// TestAddBlockEmptyIsNoOp pins that a block of zero rows changes nothing,
// including on an accumulator that already holds rows.
func TestAddBlockEmptyIsNoOp(t *testing.T) {
	for maxOrder := 1; maxOrder <= 3; maxOrder++ {
		want := NewAccumulator(4, maxOrder)
		got := NewAccumulator(4, maxOrder)
		blk := NewBlock(4, 8)
		got.AddBlock(blk)
		requireEqual(t, "empty block into empty accumulator", want, got)

		blk.SetRows([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 4, 2)
		want.AddBlock(blk)
		got.AddBlock(blk)
		blk.SetRows(nil, 4, 0)
		got.AddBlock(blk)
		requireEqual(t, "empty block after rows", want, got)
	}
}

// TestEmptyAccumulatorT pins the statistic of a population with no rows —
// a SIFA shard in which no fault was ineffective: T is 0, never NaN, at
// every order and through MaxT.
func TestEmptyAccumulatorT(t *testing.T) {
	rng := prng.New(3)
	ref := NewAccumulator(16, 3)
	blk := NewBlock(16, 4)
	src := make([]byte, BlockRows*8)
	rng.Fill(src)
	blk.SetRows(src, 8, BlockRows)
	ref.AddBlock(blk)
	empty := NewAccumulator(16, 3)
	for order := 1; order <= 3; order++ {
		if r := empty.T(order, ref); r.T != 0 || math.IsNaN(r.T) {
			t.Errorf("order %d: T = %v, want 0", order, r.T)
		}
	}
	if r := empty.MaxT(3, ref); r.T != 0 || math.IsNaN(r.T) {
		t.Errorf("MaxT = %v, want 0", r.T)
	}
}

// TestAddBlockConstantColumns pins Welch's degenerate rules on block-fed
// populations: a column that is constant in both populations gives 0 when
// the constants agree and the cap when they differ, at orders 1 and 2.
func TestAddBlockConstantColumns(t *testing.T) {
	constant := func(v byte) *Accumulator {
		a := NewAccumulator(2, 2)
		blk := NewBlock(2, 8)
		src := make([]byte, 2*BlockRows)
		for r := 0; r < BlockRows; r++ {
			src[2*r], src[2*r+1] = v, byte(r) // column 0 constant, column 1 varying
		}
		blk.SetRows(src, 2, BlockRows)
		a.AddBlock(blk)
		return a
	}
	if r := constant(7).T(1, constant(7)); r.T != 0 {
		t.Errorf("equal constants, order 1: T = %v, want 0", r.T)
	}
	if r := constant(7).T(1, constant(9)); r.T != tCap || r.PosI != 0 {
		t.Errorf("distinct constants, order 1: T = %v at %d, want cap at 0", r.T, r.PosI)
	}
	// Centered at order 2, a constant column is the constant 0 in both
	// populations whatever its value, so its (0,0) statistic is 0.
	if r := constant(7).T(2, constant(9)); r.T != 0 {
		t.Errorf("distinct constants, order 2: T = %v, want 0", r.T)
	}
}

// BenchmarkAccumulate times folding one full block of a 16-column
// observation point into an order-2 accumulator, row by row through Add
// and at once through AddBlock under each of its bodies, for every group
// width. ns/op is per block; ns/row divides it by the block's BlockRows
// rows, so blocks of different sizes compare.
func BenchmarkAccumulate(b *testing.B) {
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*BlockRows), "ns/row")
	}
	for _, width := range []int{1, 2, 4, 8} {
		const groups = 16
		rowBytes := groups * width / 8
		src := make([]byte, BlockRows*rowBytes)
		prng.New(1).Fill(src)
		rows := make([][]float64, BlockRows)
		for r := range rows {
			rows[r] = unpackRow(src[r*rowBytes:(r+1)*rowBytes], groups, width)
		}
		b.Run(fmt.Sprintf("add-w%d", width), func(b *testing.B) {
			a := NewAccumulator(groups, 2)
			for i := 0; i < b.N; i++ {
				for _, row := range rows {
					a.Add(row)
				}
			}
			perRow(b)
		})
		forEachGramBody(func(body string) {
			b.Run(fmt.Sprintf("addblock-w%d/%s", width, body), func(b *testing.B) {
				a := NewAccumulator(groups, 2)
				blk := NewBlock(groups, width)
				for i := 0; i < b.N; i++ {
					blk.SetRows(src, rowBytes, BlockRows)
					a.AddBlock(blk)
				}
				perRow(b)
			})
		})
	}
}

// TestOrderOneNibbleBlockPacksNoOperands requires an order-1 AddBlock of
// nibbles to leave a fresh Block's packed pair operands unmade, and an
// order-2 AddBlock of the same Block afterwards, under each AddBlock
// body, to equal the rows fed one by one through Add.
func TestOrderOneNibbleBlockPacksNoOperands(t *testing.T) {
	const groups, rows, stride = 16, 200, 8
	src := make([]byte, rows*stride)
	prng.New(7).Fill(src)
	want := NewAccumulator(groups, 2)
	for r := 0; r < rows; r++ {
		want.Add(unpackRow(src[r*stride:(r+1)*stride], groups, 4))
	}
	forEachGramBody(func(body string) {
		blk := NewBlock(groups, 4)
		blk.SetRows(src, stride, rows)
		NewAccumulator(groups, 1).AddBlock(blk)
		if blk.u != nil || blk.v != nil {
			t.Fatalf("%s: an order-1 nibble AddBlock made the pair operands", body)
		}
		got := NewAccumulator(groups, 2)
		got.AddBlock(blk)
		requireEqual(t, body+": order 2 after order 1", want, got)
	})
}
