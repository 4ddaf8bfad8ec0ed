package simon

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/prng"
)

// TestBatchKernelMatchesScalar cross-checks the lane-packed fork kernel
// of both variants against the scalar reference path, covering the
// bitsliced block path, the small-block scalar path (n < 8), ragged
// tails, and the generalized (AND, XOR) injection op.
func TestBatchKernelMatchesScalar(t *testing.T) {
	rng := prng.New(17)
	for _, variant := range []Variant{Simon64_128, Simon32_64} {
		keyLen := 16
		if variant == Simon32_64 {
			keyLen = 8
		}
		key := make([]byte, keyLen)
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
				for _, withAnds := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v/round=%d/n=%d/ands=%v", variant, round, n, withAnds), func(t *testing.T) {
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
}
