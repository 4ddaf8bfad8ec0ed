package stats

import (
	"testing"
)

// FuzzAccumulatorMerge checks the streaming-moment invariants the sharded
// campaign depends on: splitting a sample stream at any point, feeding
// the halves into separate accumulators and merging must reproduce the
// sequential accumulator exactly, and merge must be order-independent.
// Rows are small integers, for which the float64 power sums are exact, so
// every comparison is bit-exact (this is the same property that makes the
// worker-count-independent campaign results bit-identical).
func FuzzAccumulatorMerge(f *testing.F) {
	f.Add(byte(2), byte(2), byte(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(byte(1), byte(1), byte(0), []byte{0})
	f.Add(byte(5), byte(3), byte(7), []byte{15, 0, 3, 9, 12, 1, 2, 4, 8, 15, 7, 11, 5, 14, 6, 10})
	f.Fuzz(func(t *testing.T, groupsSel, orderSel, splitSel byte, data []byte) {
		groups := 1 + int(groupsSel)%6
		maxOrder := 1 + int(orderSel)%3

		// Decode rows of small-int group values (nibble range, matching
		// the cipher differential values fed to the real accumulators).
		var rows [][]float64
		for len(data) >= groups {
			row := make([]float64, groups)
			for j := 0; j < groups; j++ {
				row[j] = float64(data[j] % 16)
			}
			rows = append(rows, row)
			data = data[groups:]
		}
		if len(rows) == 0 {
			t.Skip("not enough data for one row")
		}
		split := int(splitSel) % (len(rows) + 1)

		seq := NewAccumulator(groups, maxOrder)
		left := NewAccumulator(groups, maxOrder)
		right := NewAccumulator(groups, maxOrder)
		for i, row := range rows {
			seq.Add(row)
			if i < split {
				left.Add(row)
			} else {
				right.Add(row)
			}
		}

		merged := NewAccumulator(groups, maxOrder)
		merged.Merge(left)
		merged.Merge(right)
		requireEqual(t, "left+right", seq, merged)

		reversed := NewAccumulator(groups, maxOrder)
		reversed.Merge(right)
		reversed.Merge(left)
		requireEqual(t, "right+left", seq, reversed)
	})
}

// requireEqual asserts two accumulators hold bit-identical sums.
func requireEqual(t *testing.T, label string, want, got *Accumulator) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("%s: N = %d, want %d", label, got.N(), want.N())
	}
	wantPow, wantCross := want.RawSums()
	gotPow, gotCross := got.RawSums()
	for i := range wantPow {
		if wantPow[i] != gotPow[i] {
			t.Fatalf("%s: pow[%d] = %v, want %v (not bit-identical)", label, i, gotPow[i], wantPow[i])
		}
	}
	for i := range wantCross {
		if wantCross[i] != gotCross[i] {
			t.Fatalf("%s: cross[%d] = %v, want %v (not bit-identical)", label, i, gotCross[i], wantCross[i])
		}
	}
}

// FuzzAccumulatorBlock checks that AddBlock is a drop-in replacement for
// Add: rows of any group width (1, 2, 4 or 8 bits), order (1..3) and 1 to
// 32 groups (GIFT-128's nibble count), cut into blocks of every size from
// empty to full and split at an arbitrary point into two merged
// accumulators, and cut into whole blocks as a campaign shard is, must
// leave N and the raw sums bit-identical to the same rows fed one by one
// through Add, under every AddBlock body. Rows are decoded for Add by a
// bit reader independent of Block.SetRows, so the unpacking is checked
// too. The row count is rowsSel plus BlockRows times the bits of
// groupsSel above the group count, 0 to 2,047 rows.
func FuzzAccumulatorBlock(f *testing.F) {
	// The largest value of every width in full blocks, where the packed
	// lanes of the order-2 kernels come closest to overflowing: 512 rows
	// of 16 groups here and of 32 groups below.
	for widthSel := byte(0); widthSel < 4; widthSel++ {
		f.Add(widthSel, byte(1), byte(15+2*32), byte(0), byte(128), []byte{0xff})
	}
	f.Add(byte(2), byte(1), byte(15), byte(200), byte(3), []byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0xff})
	f.Add(byte(3), byte(2), byte(7), byte(255), byte(200), []byte{0xff, 0x00, 0x80, 0x7f, 0x01})
	f.Add(byte(0), byte(0), byte(12), byte(100), byte(9), []byte{0xa5, 0x3c})
	f.Add(byte(1), byte(2), byte(5), byte(1), byte(0), []byte{0xe4})
	for widthSel := byte(0); widthSel < 4; widthSel++ {
		f.Add(widthSel, byte(1), byte(31+2*32), byte(0), byte(128), []byte{0xff})
	}
	f.Fuzz(func(t *testing.T, widthSel, orderSel, groupsSel, rowsSel, splitSel byte, data []byte) {
		if len(data) == 0 {
			t.Skip("no row data")
		}
		width := []int{1, 2, 4, 8}[widthSel%4]
		maxOrder := 1 + int(orderSel)%3
		groups := 1 + int(groupsSel)%32
		rows := int(rowsSel) + BlockRows*int(groupsSel/32)
		rowBytes := (groups*width + 7) / 8
		packed := make([]byte, rows*rowBytes)
		for i := range packed {
			packed[i] = data[i%len(data)]
		}
		split := int(splitSel) * rows / 256

		addRows := func(a *Accumulator, from, to int) {
			for r := from; r < to; r++ {
				a.Add(unpackRow(packed[r*rowBytes:(r+1)*rowBytes], groups, width))
			}
		}
		blk := NewBlock(groups, width)
		// Block sizes cycle through 0..BlockRows from a split-dependent
		// start, so every run mixes empty, partial and full blocks.
		k := int(splitSel)
		addBlocks := func(a *Accumulator, from, to int) {
			for r := from; r < to; {
				size := min(k%(BlockRows+1), to-r)
				k += 29
				blk.SetRows(packed[r*rowBytes:], rowBytes, size)
				a.AddBlock(blk)
				r += size
			}
		}

		wantAll := NewAccumulator(groups, maxOrder)
		addRows(wantAll, 0, rows)
		wantL, wantR := NewAccumulator(groups, maxOrder), NewAccumulator(groups, maxOrder)
		addRows(wantL, 0, split)
		addRows(wantR, split, rows)
		wantL.Merge(wantR)
		start := k
		forEachGramBody(func(body string) {
			k = start
			gotAll := NewAccumulator(groups, maxOrder)
			addBlocks(gotAll, 0, rows)
			requireEqual(t, body+": all rows", wantAll, gotAll)

			gotShards := NewAccumulator(groups, maxOrder)
			for r := 0; r < rows; r += BlockRows {
				blk.SetRows(packed[r*rowBytes:], rowBytes, min(BlockRows, rows-r))
				gotShards.AddBlock(blk)
			}
			requireEqual(t, body+": whole blocks", wantAll, gotShards)

			gotL, gotR := NewAccumulator(groups, maxOrder), NewAccumulator(groups, maxOrder)
			addBlocks(gotL, 0, split)
			addBlocks(gotR, split, rows)
			gotL.Merge(gotR)
			requireEqual(t, body+": merged split", wantL, gotL)
		})
	})
}

// unpackRow decodes one packed row bit by bit: value j is bits
// j*width..(j+1)*width-1 of the row, least significant bit first.
func unpackRow(row []byte, groups, width int) []float64 {
	out := make([]float64, groups)
	for j := range out {
		v := 0
		for b := 0; b < width; b++ {
			bit := j*width + b
			v |= int(row[bit/8]>>(bit%8)&1) << b
		}
		out[j] = float64(v)
	}
	return out
}
