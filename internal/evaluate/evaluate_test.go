package evaluate

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	_ "repro/internal/ciphers/gift"
	"repro/internal/fault"
	"repro/internal/prng"
	"repro/internal/stats"
)

func giftCipher(t *testing.T) ciphers.Cipher {
	t.Helper()
	key := make([]byte, 16)
	prng.New(0xbead).Fill(key)
	c, err := ciphers.New("gift64", key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newEngine builds an engine, failing the test on a rejected config.
func newEngine(tb testing.TB, c ciphers.Cipher, cfg Config) *Engine {
	tb.Helper()
	e, err := New(c, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

func nibblePattern(stateBits int, groups ...int) bitvec.Vector {
	v := bitvec.New(stateBits)
	for _, g := range groups {
		for b := 0; b < 4; b++ {
			v.Set(4*g + b)
		}
	}
	return v
}

// TestEngineWorkerDeterminism: the same engine config must produce a
// byte-identical Assessment for any worker count, including a sample
// count that leaves a ragged final shard.
func TestEngineWorkerDeterminism(t *testing.T) {
	c := giftCipher(t)
	pattern := nibblePattern(64, 5)
	var got []Assessment
	for _, workers := range []int{1, 4, 7} {
		e := newEngine(t, c, Config{Samples: ShardSize*2 + 100, Seed: 99, Workers: workers})
		a, err := e.Assess(context.Background(), &pattern, 25)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, a)
	}
	for i := 1; i < len(got); i++ {
		if math.Float64bits(got[i].T) != math.Float64bits(got[0].T) {
			t.Fatalf("workers case %d: T %v != %v", i, got[i].T, got[0].T)
		}
		if !reflect.DeepEqual(got[i], got[0]) {
			t.Fatalf("workers case %d: assessment differs:\n%+v\n%+v", i, got[i], got[0])
		}
	}
}

// TestEngineIsPure: assessing the same (pattern, round) twice on one
// engine gives identical results — the property the oracle cache relies on.
func TestEngineIsPure(t *testing.T) {
	c := giftCipher(t)
	pattern := nibblePattern(64, 3)
	e := newEngine(t, c, Config{Samples: 300, Seed: 7})
	a1, err := e.Assess(context.Background(), &pattern, 25)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := e.Assess(context.Background(), &pattern, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("repeated assessment differs:\n%+v\n%+v", a1, a2)
	}
}

// TestEngineMatchesMatrixPath cross-validates the full streaming engine
// against the matrix-based statistics on identical draws: each shard's
// trace matrix is re-collected with Campaign.Collect from the same shard
// seed, concatenated, and tested with MaxUpToOrder against a matrix
// reference built from the Reference stream.
func TestEngineMatchesMatrixPath(t *testing.T) {
	c := giftCipher(t)
	pattern := nibblePattern(64, 2, 9)
	const samples = ShardSize + 150 // ragged second shard
	const seed = 1234
	cfg := Config{Samples: samples, Seed: seed, MaxOrder: 2}
	e := newEngine(t, c, cfg)
	got, err := e.Assess(context.Background(), &pattern, 25)
	if err != nil {
		t.Fatal(err)
	}

	base := fault.Campaign{
		Cipher:  c,
		Pattern: pattern,
		Round:   25,
		Samples: samples,
	}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	campaignSeed := PatternSeed(seed, &pattern, 25)
	matrices := make([][][]float64, len(base.Points))
	for shard := 0; shard*ShardSize < samples; shard++ {
		n := ShardSize
		if rem := samples - shard*ShardSize; rem < n {
			n = rem
		}
		cp := base
		cp.Samples = n
		res, err := cp.Collect(prng.New(ShardSeed(campaignSeed, shard)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range matrices {
			matrices[i] = append(matrices[i], res.Matrices[i]...)
		}
	}
	refAcc := Reference(samples, base.GroupBits, base.Groups(), 2, CanonicalRefSeed)
	refRNG := prng.New(splitmix(CanonicalRefSeed ^ 0xc0ffee))
	refMatrix := fault.UniformReference(samples, base.GroupBits, base.Groups(), refRNG)
	if refAcc.N() != samples {
		t.Fatalf("reference accumulator has %d samples, want %d", refAcc.N(), samples)
	}

	var want Assessment
	for i, p := range base.Points {
		st := stats.MaxUpToOrder(2, matrices[i], refMatrix)
		pr := PointResult{Point: p, Stat: st}
		want.PerPoint = append(want.PerPoint, pr)
		if st.T > want.T {
			want.T = st.T
			want.Best = pr
		}
	}

	if len(got.PerPoint) != len(want.PerPoint) {
		t.Fatalf("point count %d != %d", len(got.PerPoint), len(want.PerPoint))
	}
	for i := range want.PerPoint {
		g, w := got.PerPoint[i].Stat, want.PerPoint[i].Stat
		if math.Abs(g.T-w.T)/math.Max(1, math.Abs(w.T)) > 1e-9 {
			t.Errorf("point %v: streaming T %v vs matrix T %v", want.PerPoint[i].Point, g.T, w.T)
		}
		if g.Order != w.Order || g.PosI != w.PosI || g.PosJ != w.PosJ {
			t.Errorf("point %v: stat identity (%d,%d,%d) vs (%d,%d,%d)",
				want.PerPoint[i].Point, g.Order, g.PosI, g.PosJ, w.Order, w.PosI, w.PosJ)
		}
	}
	if math.Abs(got.T-want.T)/math.Max(1, want.T) > 1e-9 {
		t.Errorf("overall T %v vs matrix %v", got.T, want.T)
	}
}

// TestReferenceShared: equal shapes must share one accumulator instance.
func TestReferenceShared(t *testing.T) {
	a := Reference(128, 4, 16, 2, CanonicalRefSeed)
	b := Reference(128, 4, 16, 2, CanonicalRefSeed)
	if a != b {
		t.Error("equal reference shapes returned distinct accumulators")
	}
	c := Reference(128, 4, 16, 2, 77)
	if c == a {
		t.Error("distinct seeds shared an accumulator")
	}
}

// TestPatternSeed: distinct patterns or rounds must decorrelate seeds.
func TestPatternSeed(t *testing.T) {
	p1 := nibblePattern(64, 1)
	p2 := nibblePattern(64, 2)
	if PatternSeed(5, &p1, 25) == PatternSeed(5, &p2, 25) {
		t.Error("distinct patterns gave equal seeds")
	}
	if PatternSeed(5, &p1, 25) == PatternSeed(5, &p1, 26) {
		t.Error("distinct rounds gave equal seeds")
	}
	if PatternSeed(5, &p1, 25) != PatternSeed(5, &p1, 25) {
		t.Error("equal inputs gave distinct seeds")
	}
}

// TestEngineStopAtThreshold: the short-circuit must truncate PerPoint.
func TestEngineStopAtThreshold(t *testing.T) {
	c := giftCipher(t)
	// A single-nibble fault at round 25 is the paper's canonical GIFT
	// exploitable model; its differential is still localized at the first
	// observation point, so the sweep stops there.
	pattern := nibblePattern(64, 5)
	e := newEngine(t, c, Config{Samples: 1024, Seed: 3, StopAtThreshold: true})
	a, err := e.Assess(context.Background(), &pattern, 25)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Leaky {
		t.Fatal("single-nibble round-25 GIFT fault should be leaky")
	}
	pts := fault.PointsWindow(c, 25, fault.DefaultLag, fault.DefaultWindow)
	if len(a.PerPoint) >= len(pts) {
		t.Errorf("StopAtThreshold did not truncate: %d of %d points", len(a.PerPoint), len(pts))
	}
}

// TestEngineSIFAWithoutIneffectiveTraces pins the degenerate SIFA
// campaign: a flip-all XOR fault changes every ciphertext, so no trace is
// ineffective and every shard's population is empty. The statistic must
// be 0, not NaN, and the pattern not leaky.
func TestEngineSIFAWithoutIneffectiveTraces(t *testing.T) {
	c := giftCipher(t)
	pattern := nibblePattern(64, 5)
	e := newEngine(t, c, Config{Samples: ShardSize + 50, Seed: 8, Oracle: fault.OracleSIFA, Mode: fault.FlipAll})
	a, err := e.Assess(context.Background(), &pattern, 25)
	if err != nil {
		t.Fatal(err)
	}
	if a.T != 0 || math.IsNaN(a.T) || a.Leaky {
		t.Fatalf("assessment %+v, want T = 0 and not leaky", a)
	}
	for _, p := range a.PerPoint {
		if p.Stat.T != 0 {
			t.Errorf("point %v: T = %v, want 0", p.Point, p.Stat.T)
		}
	}
}

// TestEngineThresholdIsStrict pins that a statistic exactly equal to the
// threshold θ is not leaky: leakage needs T > θ.
func TestEngineThresholdIsStrict(t *testing.T) {
	c := giftCipher(t)
	pattern := nibblePattern(64, 5)
	cfg := Config{Samples: 300, Seed: 4}
	first, err := newEngine(t, c, cfg).Assess(context.Background(), &pattern, 25)
	if err != nil {
		t.Fatal(err)
	}
	if first.T <= 0 {
		t.Fatalf("T = %v, want a positive statistic", first.T)
	}
	for _, tc := range []struct {
		threshold float64
		leaky     bool
	}{
		{first.T, false},
		{math.Nextafter(first.T, 0), true},
	} {
		cfg.Threshold = tc.threshold
		a, err := newEngine(t, c, cfg).Assess(context.Background(), &pattern, 25)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.T) != math.Float64bits(first.T) || a.Leaky != tc.leaky {
			t.Errorf("θ = %v: T = %v leaky %v, want T = %v leaky %v", tc.threshold, a.T, a.Leaky, first.T, tc.leaky)
		}
	}
}

// TestRunShardedRecycle: accumulators handed back through Recycle are
// reset before reuse, so repeated campaigns of one shape reproduce the
// first one's sums bit for bit.
func TestRunShardedRecycle(t *testing.T) {
	c := giftCipher(t)
	cp := fault.Campaign{Cipher: c, Pattern: nibblePattern(64, 3), Round: 25, Samples: 2*ShardSize + 10}
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func() [][]float64 {
		accs, err := RunSharded(context.Background(), cp.Samples, 2, len(cp.Points), cp.Groups(), 2, 5,
			func(rng *prng.Source, _, n int, accs []*stats.Accumulator) error {
				return cp.CollectInto(rng, n, accs)
			})
		if err != nil {
			t.Fatal(err)
		}
		var sums [][]float64
		for _, a := range accs {
			if a.N() != cp.Samples {
				t.Fatalf("N = %d, want %d", a.N(), cp.Samples)
			}
			pow, cross := a.RawSums()
			sums = append(sums, pow, cross)
		}
		Recycle(accs)
		return sums
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d differs from the first", i+2)
		}
	}
}
