package present

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/prng"
)

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

// TestBatchKernelMatchesScalar cross-checks the bitsliced fork kernel
// against the scalar reference path, covering the bitsliced block path,
// the small-block scalar path (n < 8), ragged tails (n % 64 != 0), and
// the generalized (AND, XOR) injection op.
func TestBatchKernelMatchesScalar(t *testing.T) {
	rng := prng.New(13)
	key := make([]byte, KeyBytes)
	rng.Fill(key)
	c, err := New(key)
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
			for _, withAnds := range []bool{false, true} {
				t.Run(fmt.Sprintf("round=%d/n=%d/ands=%v", round, n, withAnds), func(t *testing.T) {
					pts := make([]byte, n*bb)
					rng.Fill(pts)
					maskA := make([]byte, n*bb)
					maskB := make([]byte, n*bb)
					rng.Fill(maskA)
					rng.Fill(maskB)
					masks := [][]byte{nil, maskA, maskB}
					var ands [][]byte
					if withAnds {
						andB := make([]byte, n*bb)
						rng.Fill(andB)
						ands = [][]byte{nil, nil, andB}
					}
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
					ciphers.ScalarForksOps(c, round, points, n, pts, masks, ands, wantStates, wantCts)
					gotStates, gotCts := mkBufs()
					kern.EncryptForksOps(round, points, n, pts, masks, ands, gotStates, gotCts)
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
