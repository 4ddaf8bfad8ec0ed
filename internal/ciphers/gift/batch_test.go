package gift

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/ciphers"
	"repro/internal/prng"
)

// TestSboxLanesMatchesTable runs each bitsliced S-box circuit on all 16
// inputs replicated across lanes and compares against its lookup table.
func TestSboxLanesMatchesTable(t *testing.T) {
	for _, tc := range []struct {
		v       Variant
		circuit func(x0, x1, x2, x3 uint64) (y0, y1, y2, y3 uint64)
	}{{GIFT64, giftSboxLanes}, {PRESENT80, presentSboxLanes}} {
		for x := 0; x < 16; x++ {
			var l [4]uint64
			for b := 0; b < 4; b++ {
				if x>>uint(b)&1 == 1 {
					l[b] = ^uint64(0)
				}
			}
			l[0], l[1], l[2], l[3] = tc.circuit(l[0], l[1], l[2], l[3])
			got := 0
			for b := 0; b < 4; b++ {
				switch l[b] {
				case ^uint64(0):
					got |= 1 << uint(b)
				case 0:
				default:
					t.Fatalf("variant %d circuit(%#x): lane %d not constant: %#x", tc.v, x, b, l[b])
				}
			}
			if want := variants[tc.v].sbox[x]; got != int(want) {
				t.Fatalf("variant %d circuit(%#x) = %#x, want %#x", tc.v, x, got, want)
			}
		}
	}
}

// TestBatchKernelMatchesScalar cross-checks the bitsliced fork kernel of
// every variant against the scalar reference path, forking at every round
// 1..R. Each fork observes what a sweep observes, the inputs and
// post-S-box states of the last three rounds (those from the fork round
// on) and the ciphertext, so every round with a post-S-box capture runs
// split and every other round, the shared prefix included, runs in one
// pass. n covers the per-trace path (1, 3), a partial bitsliced block
// (8), a full one (64), a full one followed by a partial one (72) and by
// a per-trace tail (130); the faulted branches use XOR masks, AND masks,
// and both. The XOR branch has no state buffer, so it runs every round in
// one pass, and the AND branch has no ciphertext buffer.
func TestBatchKernelMatchesScalar(t *testing.T) {
	rng := prng.New(11)
	for _, variant := range []Variant{GIFT64, GIFT128, PRESENT80} {
		key := make([]byte, variants[variant].keyBytes)
		rng.Fill(key)
		c, err := New(variant, key)
		if err != nil {
			t.Fatal(err)
		}
		kern := c.NewBatchKernel()
		bb := c.BlockBytes()
		last := c.Rounds()
		for round := 1; round <= last; round++ {
			points := []ciphers.BatchPoint{{Round: 0}}
			for r := max(round, last-2); r <= last; r++ {
				points = append(points, ciphers.BatchPoint{Round: r}, ciphers.BatchPoint{Round: r, PostSub: true})
			}
			np := len(points)
			for _, n := range []int{1, 3, 8, 64, 72, 130} {
				t.Run(fmt.Sprintf("%v/round=%d/n=%d", variant, round, n), func(t *testing.T) {
					pts := make([]byte, n*bb)
					rng.Fill(pts)
					draw := func() []byte {
						m := make([]byte, n*bb)
						rng.Fill(m)
						return m
					}
					xors := [][]byte{nil, draw(), nil, draw()}
					ands := [][]byte{nil, nil, draw(), draw()}
					mkBufs := func() ([][]byte, [][]byte) {
						states := make([][]byte, len(xors))
						cts := make([][]byte, len(xors))
						for f := range xors {
							states[f] = make([]byte, n*np*bb)
							cts[f] = make([]byte, n*bb)
						}
						states[1] = nil
						cts[2] = nil
						return states, cts
					}
					wantStates, wantCts := mkBufs()
					ciphers.ScalarForksOps(c, round, points, n, pts, xors, ands, wantStates, wantCts)
					gotStates, gotCts := mkBufs()
					kern.EncryptForksOps(round, points, n, pts, xors, ands, gotStates, gotCts)
					for f := range xors {
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
