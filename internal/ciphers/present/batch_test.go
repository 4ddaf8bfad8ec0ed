package present

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/ciphers/gift"
	"repro/internal/prng"
)

// TestSboxLanesMatchesTable reads the S-box off the bitsliced circuit:
// one 64-trace block forks at round 1 into chosen states, nibble i of
// trace j set to (i+j) mod 16 so that every lane and every nibble sees
// all 16 inputs, and each post-S-box capture must be the specification's
// S-box of its round-1 input.
func TestSboxLanesMatchesTable(t *testing.T) {
	c, err := gift.New(gift.PRESENT80, make([]byte, 10))
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	bb := c.BlockBytes()
	pts := make([]byte, n*bb)
	prng.New(21).Fill(pts)
	xors := make([]byte, n*bb)
	for j := 0; j < n; j++ {
		for i := 0; i < 16; i++ {
			xors[j*bb+i/2] |= byte(i+j) % 16 << (4 * uint(i%2))
		}
	}
	points := []ciphers.BatchPoint{{Round: 1}, {Round: 1, PostSub: true}}
	states := make([]byte, n*len(points)*bb)
	c.NewBatchKernel().EncryptForksOps(1, points, n, pts,
		[][]byte{xors}, [][]byte{make([]byte, n*bb)}, [][]byte{states}, [][]byte{nil})
	for j := 0; j < n; j++ {
		in := states[2*j*bb : (2*j+1)*bb]
		out := states[(2*j+1)*bb : (2*j+2)*bb]
		for i := 0; i < 16; i++ {
			x := nibble(in, i)
			if want := byte(i+j) % 16; x != want {
				t.Fatalf("trace %d nibble %d: round-1 input %#x, want the chosen %#x", j, i, x, want)
			}
			if got := nibble(out, i); got != sbox[x] {
				t.Fatalf("trace %d nibble %d: S(%#x) = %#x, want %#x", j, i, x, got, sbox[x])
			}
		}
	}
}

// TestBatchKernelMatchesScalar cross-checks PRESENT-80's bitsliced fork
// kernel against the scalar reference path through the exported API,
// covering the bitsliced block path,
// the small-block scalar path (n < 8), ragged tails (n % 64 != 0), and
// the generalized (AND, XOR) injection op.
func TestBatchKernelMatchesScalar(t *testing.T) {
	rng := prng.New(13)
	key := make([]byte, 10)
	rng.Fill(key)
	c, err := gift.New(gift.PRESENT80, key)
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
