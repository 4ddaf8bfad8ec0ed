package gift

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/prng"
)

// TestTranspose64 checks that transpose64 is a true bit transpose and an
// involution.
func TestTranspose64(t *testing.T) {
	rng := prng.New(3)
	var a, orig [laneBlock]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	orig = a
	transpose64(&a)
	for i := 0; i < 64; i++ {
		for k := 0; k < 64; k++ {
			if a[i]>>uint(k)&1 != orig[k]>>uint(i)&1 {
				t.Fatalf("transpose64: bit (%d,%d) not transposed", i, k)
			}
		}
	}
	transpose64(&a)
	if a != orig {
		t.Fatal("transpose64 is not an involution")
	}
}

// TestSboxLanesMatchesTable runs the bitsliced S-box circuit on all 16
// inputs replicated across lanes and compares against the lookup table.
func TestSboxLanesMatchesTable(t *testing.T) {
	for x := 0; x < 16; x++ {
		var l [4]uint64
		for b := 0; b < 4; b++ {
			if x>>uint(b)&1 == 1 {
				l[b] = ^uint64(0)
			}
		}
		sboxLanes(&l)
		got := 0
		for b := 0; b < 4; b++ {
			switch l[b] {
			case ^uint64(0):
				got |= 1 << uint(b)
			case 0:
			default:
				t.Fatalf("sboxLanes(%#x): lane %d not constant: %#x", x, b, l[b])
			}
		}
		if got != int(sbox[x]) {
			t.Fatalf("sboxLanes(%#x) = %#x, want %#x", x, got, sbox[x])
		}
	}
}

// TestBatchKernelMatchesScalar cross-checks the bitsliced fork kernel of
// both variants against the scalar reference path, covering the
// bitsliced block path, the small-block scalar path (n < 8) and ragged
// tails (n % 64 != 0).
func TestBatchKernelMatchesScalar(t *testing.T) {
	rng := prng.New(11)
	for _, variant := range []Variant{GIFT64, GIFT128} {
		key := make([]byte, KeyBytes)
		rng.Fill(key)
		c, err := New(variant, key)
		if err != nil {
			t.Fatal(err)
		}
		kern := c.NewBatchKernel()
		bb := c.BlockBytes()
		last := c.Rounds()
		for _, round := range []int{1, last / 2, last - 2, last} {
			points := []ciphers.BatchPoint{
				{Round: 0},
				{Round: round},
				{Round: round, PostSub: true},
				{Round: last, PostSub: true},
			}
			np := len(points)
			for _, n := range []int{1, 3, 8, 64, 72, 130} {
				t.Run(fmt.Sprintf("%v/round=%d/n=%d", variant, round, n), func(t *testing.T) {
					pts := make([]byte, n*bb)
					rng.Fill(pts)
					maskA := make([]byte, n*bb)
					maskB := make([]byte, n*bb)
					rng.Fill(maskA)
					rng.Fill(maskB)
					masks := [][]byte{nil, maskA, maskB}
					mkBufs := func() ([][]byte, [][]byte) {
						states := make([][]byte, len(masks))
						cts := make([][]byte, len(masks))
						for f := range masks {
							states[f] = make([]byte, n*np*bb)
							cts[f] = make([]byte, n*bb)
						}
						states[1] = nil
						cts[2] = nil
						return states, cts
					}
					wantStates, wantCts := mkBufs()
					ciphers.ScalarForksOps(c, round, points, n, pts, masks, nil, wantStates, wantCts)
					gotStates, gotCts := mkBufs()
					kern.EncryptForksOps(round, points, n, pts, masks, nil, gotStates, gotCts)
					for f := range masks {
						if !bytes.Equal(gotStates[f], wantStates[f]) {
							t.Errorf("branch %d point states differ from scalar path", f)
						}
						if !bytes.Equal(gotCts[f], wantCts[f]) {
							t.Errorf("branch %d ciphertexts differ from scalar path", f)
						}
					}
				})
			}
		}
	}
}
