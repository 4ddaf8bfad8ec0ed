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
// tails, and the generalized (AND, XOR) injection op. Carry propagation
// through the bitsliced adder gets dedicated coverage: one sub-case
// forces all-ones states via the fault masks so additions ripple across
// the full word width.
func TestBatchKernelMatchesScalar(t *testing.T) {
	rng := prng.New(19)
	for _, variant := range []Variant{Speck64_128, Speck32_64} {
		keyLen := 16
		if variant == Speck32_64 {
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
				for _, mode := range []string{"xor", "ands", "carry"} {
					t.Run(fmt.Sprintf("%v/round=%d/n=%d/%s", variant, round, n, mode), func(t *testing.T) {
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
							// Stuck-at-1 over the whole block: the faulted
							// branch enters the adder as all-ones, the
							// carry-heaviest operand.
							for i := range maskB {
								maskB[i] = 0xff
							}
							andZ := make([]byte, n*bb)
							ands = [][]byte{nil, nil, andZ}
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
