package aes

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/prng"
)

// TestTTablesMatchReference checks every T-table entry against the
// defining MixColumns column of the S-box output.
func TestTTablesMatchReference(t *testing.T) {
	ttableOnce.Do(buildTTables)
	for x := 0; x < 256; x++ {
		s := sbox[x]
		want0 := uint32(mulGF(s, 2)) | uint32(s)<<8 | uint32(s)<<16 | uint32(mulGF(s, 3))<<24
		if te0[x] != want0 {
			t.Fatalf("te0[%#02x] = %#08x, want %#08x", x, te0[x], want0)
		}
		if te1[x] != want0<<8|want0>>24 || te2[x] != want0<<16|want0>>16 || te3[x] != want0<<24|want0>>8 {
			t.Fatalf("te1..te3[%#02x] are not byte rotations of te0", x)
		}
	}
}

// TestBatchKernelMatchesScalar cross-checks the T-table fork kernel
// against the scalar reference path (ScalarForksOps): ciphertexts and every
// captured point state must be bit-identical for clean and faulted
// branches alike.
func TestBatchKernelMatchesScalar(t *testing.T) {
	rng := prng.New(7)
	key := make([]byte, KeyBytes)
	rng.Fill(key)
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	kern := c.NewBatchKernel()
	bb := BlockBytes
	for _, round := range []int{1, 5, 8, NumRounds} {
		points := []ciphers.BatchPoint{
			{Round: 0},
			{Round: round},
			{Round: round, PostSub: true},
			{Round: NumRounds, PostSub: true},
		}
		np := len(points)
		for _, n := range []int{1, 5, 64, 130} {
			t.Run(fmt.Sprintf("round=%d/n=%d", round, n), func(t *testing.T) {
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
					// Branch 1 skips point capture, branch 2 skips the
					// ciphertext: nil buffers must be tolerated.
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
