package evaluate

import (
	"context"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/ciphers/aes"
	_ "repro/internal/ciphers/gift"
	"repro/internal/fault"
	"repro/internal/prng"
)

// bytePattern builds a byte-granular fault pattern for an n-byte state.
func bytePattern(stateBytes int, bytes ...int) bitvec.Vector {
	v := bitvec.New(stateBytes * 8)
	for _, b := range bytes {
		for j := 0; j < 8; j++ {
			v.Set(8*b + j)
		}
	}
	return v
}

func newAESEngine(t *testing.T, samples int) *Engine {
	t.Helper()
	rng := prng.New(12345)
	key := make([]byte, 16)
	rng.Fill(key)
	c, err := ciphers.New("aes128", key)
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(t, c, Config{Samples: samples, Seed: rng.Split().Uint64()})
}

func newGIFTEngine(t *testing.T, samples int) *Engine {
	t.Helper()
	rng := prng.New(54321)
	key := make([]byte, 16)
	rng.Fill(key)
	c, err := ciphers.New("gift64", key)
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(t, c, Config{Samples: samples, Seed: rng.Split().Uint64()})
}

// TestTableIShape reproduces the core of Table I: byte and diagonal faults
// at AES round 8 are invisible to the first-order t-test but clearly
// exposed by the second-order test.
func TestTableIShape(t *testing.T) {
	a := newAESEngine(t, 2048)
	for _, tc := range []struct {
		name    string
		pattern bitvec.Vector
	}{
		{"byte", bytePattern(16, 0)},
		{"diagonal", bytePattern(16, 2, 7, 8, 13)},
	} {
		o1, err := a.AssessOrder(context.Background(), &tc.pattern, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := a.AssessOrder(context.Background(), &tc.pattern, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if o1.T > a.Threshold() {
			t.Errorf("%s fault: first-order t = %.2f, want < %.1f", tc.name, o1.T, a.Threshold())
		}
		if o2.T < 3*a.Threshold() {
			t.Errorf("%s fault: second-order t = %.2f, want strongly above %.1f", tc.name, o2.T, a.Threshold())
		}
	}
}

func TestDiagonalBoundary(t *testing.T) {
	// Patterns confined to one diagonal leak; spanning two diagonals or
	// adding even one off-diagonal byte destroys the structure.
	a := newAESEngine(t, 2048)
	leaky := []bitvec.Vector{
		bytePattern(16, 2),                    // single byte
		bytePattern(16, 2, 7),                 // two bytes, one diagonal
		bytePattern(16, 2, 7, 8, 13),          // full diagonal (paper's model)
		bitvec.FromBits(128, 77),              // single bit
		bitvec.FromBits(128, 29, 34, 35, 118), // scattered bits inside diagonal 3 (see below)
	}
	// Bits 29,34,35 are in bytes 3,4 — diagonal 3 — and 118 is byte 14,
	// also diagonal 3 (Table I's diagonal fault bits are from that model).
	for i, p := range leaky {
		res, err := a.Assess(context.Background(), &p, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Leaky {
			t.Errorf("pattern %d (%v) should be exploitable at round 8, t = %.2f", i, p.String(), res.T)
		}
	}
	notLeaky := []bitvec.Vector{
		bytePattern(16, 0, 5, 10, 15, 2, 7, 8, 13), // two diagonals
		bytePattern(16, 2, 7, 8, 13, 0),            // diagonal + extra byte
		bytePattern(16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
	}
	for i, p := range notLeaky {
		res, err := a.Assess(context.Background(), &p, 8)
		if err != nil {
			t.Fatal(err)
		}
		if res.Leaky {
			t.Errorf("wide pattern %d should not be exploitable at round 8, t = %.2f", i, res.T)
		}
	}
}

func TestLateRoundFaultsLeakViaCiphertext(t *testing.T) {
	a := newAESEngine(t, 1024)
	for _, round := range []int{9, 10} {
		p := bytePattern(16, 0)
		res, err := a.Assess(context.Background(), &p, round)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Leaky {
			t.Errorf("byte fault at round %d not detected", round)
		}
		if res.Best.Point.Kind != fault.CiphertextPoint {
			t.Errorf("round-%d leak found at %v, expected ciphertext", round, res.Best.Point)
		}
		// Late-round faults leave zero bytes: a first-order effect.
		if res.Best.Stat.Order != 1 {
			t.Errorf("round-%d leak order %d, want 1", round, res.Best.Stat.Order)
		}
	}
}

func TestEarlyRoundFaultNotExploitable(t *testing.T) {
	// A fault in round 1 is fully diffused by the observable window
	// (last 3 rounds), matching the restriction in the paper's §III-C
	// footnote: only the last few rounds are reachable by an attacker.
	a := newAESEngine(t, 1024)
	p := bytePattern(16, 0)
	res, err := a.Assess(context.Background(), &p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaky {
		t.Errorf("round-1 fault reported exploitable, t = %.2f", res.T)
	}
}

func TestGIFTNibbleModels(t *testing.T) {
	a := newGIFTEngine(t, 2048)
	leaky := [][]int{
		{0},                    // single nibble (prior work)
		{8, 9, 10, 11, 12, 14}, // the paper's newly discovered model
		{10, 11},               // Table V 2-nibble model
	}
	for _, nibs := range leaky {
		p := nibblePattern(64, nibs...)
		res, err := a.Assess(context.Background(), &p, 25)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Leaky {
			t.Errorf("GIFT nibbles %v should be exploitable at round 25, t = %.2f", nibs, res.T)
		}
	}
	full := nibblePattern(64, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
	res, err := a.Assess(context.Background(), &full, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaky {
		t.Errorf("full-state GIFT fault should not be exploitable, t = %.2f", res.T)
	}
}

func TestGIFTObservationWindowMatchesPaper(t *testing.T) {
	// Fault at round 25 of GIFT-64 must be observed from round 27 onward
	// (post-S-box of the 27th round "and later", §IV-D).
	g, err := ciphers.New("gift64", make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	pts := fault.PointsWindow(g, 25, fault.DefaultLag, fault.DefaultWindow)
	wantFirst := fault.Point{Kind: fault.RoundInput, Round: 27}
	if pts[0] != wantFirst {
		t.Errorf("first observation point %v, want %v", pts[0], wantFirst)
	}
}

func TestStopAtThresholdTruncates(t *testing.T) {
	rng := prng.New(7)
	key := make([]byte, 16)
	rng.Fill(key)
	c, _ := ciphers.New("gift64", key)
	a := newEngine(t, c, Config{Samples: 512, StopAtThreshold: true, Seed: rng.Split().Uint64()})
	p := nibblePattern(64, 0)
	res, err := a.Assess(context.Background(), &p, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Leaky {
		t.Fatal("expected leaky result")
	}
	// 5 points exist (r27, r28 input+postsub, ciphertext); the first
	// already exceeds the threshold, so the sweep must stop early.
	if len(res.PerPoint) >= 5 {
		t.Errorf("StopAtThreshold evaluated all %d points", len(res.PerPoint))
	}
}

func TestAssessRejectsEmptyPattern(t *testing.T) {
	a := newAESEngine(t, 256)
	p := bitvec.New(128)
	if _, err := a.Assess(context.Background(), &p, 8); err == nil {
		t.Error("Assess accepted empty pattern")
	}
}

func TestEngineAccessors(t *testing.T) {
	a := newAESEngine(t, 256)
	if a.StateBits() != 128 {
		t.Errorf("StateBits = %d", a.StateBits())
	}
	if a.Threshold() != 4.5 {
		t.Errorf("Threshold = %v", a.Threshold())
	}
	if a.Cipher().Name() != "aes128" {
		t.Errorf("Cipher name = %s", a.Cipher().Name())
	}
}

func TestBitGroupingOverride(t *testing.T) {
	// Bit-level grouping also detects a late-round fault (constant-zero
	// differential bits vs uniform reference bits).
	rng := prng.New(11)
	key := make([]byte, 16)
	rng.Fill(key)
	c, _ := ciphers.New("aes128", key)
	a := newEngine(t, c, Config{Samples: 1024, GroupBits: 1, Seed: rng.Split().Uint64()})
	p := bytePattern(16, 0)
	res, err := a.Assess(context.Background(), &p, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Leaky {
		t.Errorf("bit-grouped assessment missed a round-9 byte fault, t = %.2f", res.T)
	}
}

func TestDiagonalHelperAgreesWithLeakage(t *testing.T) {
	// Every one of the four AES diagonals must be exploitable at round 8
	// (the symmetry-extension step of §III-F relies on this).
	a := newAESEngine(t, 1024)
	for d := 0; d < 4; d++ {
		diag := aes.Diagonal(d)
		p := bytePattern(16, diag[:]...)
		res, err := a.Assess(context.Background(), &p, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Leaky {
			t.Errorf("diagonal %d not exploitable, t = %.2f", d, res.T)
		}
	}
}

func BenchmarkAssessDiagonal(b *testing.B) {
	rng := prng.New(1)
	key := make([]byte, 16)
	rng.Fill(key)
	c, _ := ciphers.New("aes128", key)
	a := newEngine(b, c, Config{Samples: 1024, Seed: rng.Split().Uint64()})
	p := bytePattern(16, 2, 7, 8, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Assess(context.Background(), &p, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssessStopAtThreshold(b *testing.B) {
	rng := prng.New(2)
	key := make([]byte, 16)
	rng.Fill(key)
	c, _ := ciphers.New("gift64", key)
	a := newEngine(b, c, Config{Samples: 1024, StopAtThreshold: true, Seed: rng.Split().Uint64()})
	p := nibblePattern(64, 8, 9, 10, 11, 12, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Assess(context.Background(), &p, 25); err != nil {
			b.Fatal(err)
		}
	}
}
