package speck

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
// tails, and the generalized (AND, XOR) injection op. The "carry" mode
// is stuck-at-1 over the whole block: the faulted branch enters the
// adder as all ones, the carry-heaviest operand.
func TestBatchKernelMatchesScalar(t *testing.T) {
	rng := prng.New(19)
	for vi, p := range variants {
		c := newRandom(t, p.v, p.keyLen, rng)
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
				for _, mode := range []string{"xor", "ands", "carry"} {
					t.Run(fmt.Sprintf("%d/round=%d/n=%d/%s", vi, round, n, mode), func(t *testing.T) {
						pts := make([]byte, n*bb)
						rng.Fill(pts)
						maskA := make([]byte, n*bb)
						maskB := make([]byte, n*bb)
						rng.Fill(maskA)
						rng.Fill(maskB)
						var ands [][]byte
						switch mode {
						case "ands":
							andB := make([]byte, n*bb)
							rng.Fill(andB)
							ands = [][]byte{nil, nil, andB}
						case "carry":
							for i := range maskB {
								maskB[i] = 0xff
							}
							ands = [][]byte{nil, nil, make([]byte, n*bb)}
						}
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
