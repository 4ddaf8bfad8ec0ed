// Package fault implements the fault-simulation engine: it runs paired
// (correct, faulty) encryptions over random plaintexts, injecting faults
// drawn from a bit pattern into a chosen round, and collects the state
// differentials at configurable observation points as grouped trace
// matrices ready for the t-test machinery in internal/evaluate.
package fault

import (
	"bytes"
	"context"
	"crypto/subtle"
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/prng"
	"repro/internal/stats"
)

// Mode selects how fault values are drawn from a pattern for each trace.
type Mode int

const (
	// RandomMask injects a uniformly random non-zero sub-mask of the
	// pattern per trace: every selected bit flips independently with
	// probability 1/2. This models an imprecise injection confined to
	// the targeted bits and is the paper's "random fault" (§IV-B,
	// Fig. 5 injects "100 random faults" per model).
	RandomMask Mode = iota
	// FlipAll deterministically flips every bit of the pattern in every
	// trace (a fully-controlled injection).
	FlipAll
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case RandomMask:
		return "random-mask"
	case FlipAll:
		return "flip-all"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// PointKind identifies the kind of observation point.
type PointKind int

const (
	// RoundInput observes the state at the input of a round.
	RoundInput PointKind = iota
	// PostSub observes the state after a round's substitution layer.
	PostSub
	// CiphertextPoint observes the final ciphertext.
	CiphertextPoint
)

// Point is one observation point of a fault campaign.
type Point struct {
	Kind  PointKind
	Round int // 1-based; ignored for CiphertextPoint
}

// String implements fmt.Stringer.
func (p Point) String() string {
	switch p.Kind {
	case RoundInput:
		return fmt.Sprintf("input(r%d)", p.Round)
	case PostSub:
		return fmt.Sprintf("postsub(r%d)", p.Round)
	case CiphertextPoint:
		return "ciphertext"
	default:
		return fmt.Sprintf("Point(%d,%d)", int(p.Kind), p.Round)
	}
}

// DefaultLag is the default distance between the injection round and the
// first observed round. Observing from round r+2 onwards reproduces the
// paper's setup (AES: inject round 8, check the round-10 input, Fig. 1;
// GIFT: inject round 25, check post-S-box round 27 and later) and is what
// bounds "too wide" fault patterns: at lag 1 even a 12-byte AES fault
// leaves trivially-detectable zero bytes, at lag 2 only structured faults
// survive.
const DefaultLag = 2

// DefaultWindow is the default observation window: only the last
// DefaultWindow rounds (plus the ciphertext) are observable. The paper
// restricts t-tests to "the input/output or intermediate computations of
// the last few rounds" because an attacker reaches intermediate states by
// partially decrypting from the ciphertext, which is only feasible for a
// few rounds; this is also why early-round faults are not exploitable.
const DefaultWindow = 3

// DefaultPoints returns the observation points for a fault injected at
// round in cipher c with the default window: round inputs and
// post-substitution states of the observable rounds, plus the ciphertext.
func DefaultPoints(c ciphers.Cipher, round, lag int) []Point {
	return PointsWindow(c, round, lag, DefaultWindow)
}

// PointsWindow returns the observation points for a fault injected at
// round: the round inputs and post-substitution states of every round r
// satisfying both r >= round+lag (strictly after the fault, so the
// injection itself is not "observed") and r > Rounds()-window (reachable
// by partial decryption), plus the ciphertext.
func PointsWindow(c ciphers.Cipher, round, lag, window int) []Point {
	first := round + lag
	if w := c.Rounds() - window + 1; w > first {
		first = w
	}
	var pts []Point
	for r := first; r <= c.Rounds(); r++ {
		pts = append(pts, Point{Kind: RoundInput, Round: r}, Point{Kind: PostSub, Round: r})
	}
	pts = append(pts, Point{Kind: CiphertextPoint})
	return pts
}

// Campaign describes one fault-simulation experiment: a keyed cipher, a
// bit pattern and injection round, an injection mode, the number of random
// plaintexts, the observation points, and the grouping granularity used to
// turn differentials into t-test columns.
type Campaign struct {
	Cipher  ciphers.Cipher
	Pattern bitvec.Vector // width must equal 8*Cipher.BlockBytes()
	Round   int
	Mode    Mode
	// Model is the typed fault model applied to the pattern bits. The
	// zero value XorFlip reproduces the engine's historical XOR-mask
	// behavior bit-identically (Mode only applies to XorFlip).
	Model Model
	// Oracle selects what the campaign emits: grouped (clean XOR faulty)
	// differentials for OracleWelch (the default), or grouped clean state
	// values of the ineffective-fault sub-distribution for OracleSIFA.
	// SIFA campaigns have a data-dependent trace count, so they are only
	// supported through the accumulator path (CollectInto), not Collect.
	Oracle  OracleKind
	Samples int
	Points  []Point
	// GroupBits is the differential grouping granularity: 1 (bits),
	// 4 (nibbles) or 8 (bytes). Zero selects the cipher's native
	// substitution width (Cipher.GroupBits()).
	GroupBits int
	// NoBatch forces the scalar reference path even when the cipher
	// provides a batch kernel (ciphers.BatchEncrypter). Both paths are
	// bit-identical; the knob exists for equivalence tests and
	// benchmarks.
	NoBatch bool
	// Metrics, if non-nil, receives campaign throughput counters
	// (traces, batch versus scalar encryption path). Instrumentation
	// never touches the PRNG stream, so results are bit-identical with
	// metrics on or off; a nil registry costs one branch per block.
	Metrics *obs.Registry
}

// Validate normalizes defaults (GroupBits, Points) and reports
// configuration errors. Collect calls it implicitly; callers that shard a
// campaign themselves (internal/evaluate) call it once up front.
func (cp *Campaign) Validate() error {
	if cp.Cipher == nil {
		return fmt.Errorf("fault: campaign has no cipher")
	}
	stateBits := 8 * cp.Cipher.BlockBytes()
	if cp.Pattern.Len() != stateBits {
		return fmt.Errorf("fault: pattern width %d != state width %d", cp.Pattern.Len(), stateBits)
	}
	if cp.Pattern.IsZero() {
		return fmt.Errorf("fault: empty fault pattern")
	}
	if cp.Round < 1 || cp.Round > cp.Cipher.Rounds() {
		return fmt.Errorf("fault: round %d out of range 1..%d", cp.Round, cp.Cipher.Rounds())
	}
	if cp.Samples <= 1 {
		return fmt.Errorf("fault: need at least 2 samples, got %d", cp.Samples)
	}
	if int(cp.Model) < 0 || int(cp.Model) >= numModels {
		return fmt.Errorf("fault: invalid fault model %d", int(cp.Model))
	}
	switch cp.Oracle {
	case OracleWelch, OracleSIFA:
	default:
		return fmt.Errorf("fault: invalid oracle %d", int(cp.Oracle))
	}
	if cp.GroupBits == 0 {
		cp.GroupBits = cp.Cipher.GroupBits()
	}
	switch cp.GroupBits {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("fault: unsupported group size %d bits", cp.GroupBits)
	}
	if len(cp.Points) == 0 {
		cp.Points = DefaultPoints(cp.Cipher, cp.Round, DefaultLag)
	}
	for _, p := range cp.Points {
		if p.Kind != CiphertextPoint && (p.Round < 1 || p.Round > cp.Cipher.Rounds()) {
			return fmt.Errorf("fault: observation point %v out of range", p)
		}
		if p.Kind != CiphertextPoint && p.Round <= cp.Round {
			return fmt.Errorf("fault: observation point %v not after injection round %d", p, cp.Round)
		}
	}
	return nil
}

// Groups returns the number of t-test columns per observation point.
func (cp *Campaign) Groups() int {
	return 8 * cp.Cipher.BlockBytes() / cp.GroupBits
}

// BatchPath names the encryption engine the campaign's collection will
// use: "kernel" when the cipher provides a batch kernel and NoBatch is
// unset, "scalar-fallback" otherwise. Campaign events carry the value so
// run logs show which ciphers actually exercised the fast path.
func (cp *Campaign) BatchPath() string {
	return BatchPathOf(cp.Cipher, cp.NoBatch)
}

// BatchPathOf is BatchPath for callers that drive ciphers.EncryptForksOps
// directly instead of through a Campaign.
func BatchPathOf(c ciphers.Cipher, noBatch bool) string {
	if _, ok := c.(ciphers.BatchEncrypter); ok && !noBatch {
		return "kernel"
	}
	return "scalar-fallback"
}

// Result holds the collected differential matrices, one per observation
// point, each Samples x Groups of group values.
type Result struct {
	Points   []Point
	Matrices [][][]float64 // Matrices[i] belongs to Points[i]
}

// batchBlock is the number of traces drawn and encrypted per batch call:
// the bitsliced GIFT kernel packs exactly this many traces per uint64
// lane, and it divides evaluate.ShardSize so shards batch evenly. Each
// block reaches the accumulators as one stats.Block, which sets its size.
const batchBlock = stats.BlockRows

// Collect runs the campaign: for each of Samples random plaintexts it
// encrypts once cleanly and once with a fault drawn from the pattern, and
// records the grouped XOR differential at every observation point.
func (cp *Campaign) Collect(rng *prng.Source) (*Result, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	if cp.Oracle == OracleSIFA {
		// The ineffective-fault sub-distribution has a data-dependent
		// size, so there is no Samples x Groups matrix to build.
		return nil, fmt.Errorf("fault: the SIFA oracle requires accumulator collection (CollectInto)")
	}
	groups := cp.Groups()
	bb := cp.Cipher.BlockBytes()
	res := &Result{Points: cp.Points, Matrices: make([][][]float64, len(cp.Points))}
	for i := range res.Matrices {
		// One flat backing array per point instead of one row per sample.
		backing := make([]float64, cp.Samples*groups)
		res.Matrices[i] = make([][]float64, cp.Samples)
		for s := range res.Matrices[i] {
			res.Matrices[i][s] = backing[s*groups : (s+1)*groups]
		}
	}
	pool := collectPool(cp)
	buf := pool.Get().(*collectBuffers)
	defer pool.Put(buf)
	cp.forEachBlock(context.Background(), rng, cp.Samples, buf, func(pi, base, rows int, states []byte, stride int) {
		for r := 0; r < rows; r++ {
			groupValuesInto(res.Matrices[pi][base+r], states[r*stride:r*stride+bb], cp.GroupBits, groups)
		}
	})
	return res, nil
}

// CollectInto runs n traces of the campaign and folds the grouped
// differential of every observation point into the matching accumulator
// (accs[i] belongs to cp.Points[i]), without materializing trace matrices.
// It is the per-shard primitive behind internal/evaluate's parallel
// campaigns: the campaign must already be validated, and each shard calls
// CollectInto with its own deterministic PRNG substream so that merged
// shard accumulators are independent of the worker count.
func (cp *Campaign) CollectInto(rng *prng.Source, n int, accs []*stats.Accumulator) error {
	return cp.CollectIntoContext(context.Background(), rng, n, accs)
}

// CollectIntoContext is CollectInto with cancellation: between trace
// blocks it checks ctx and returns ctx.Err() once the context is done.
// Cancellation never lands mid-trace — a block's plaintexts and fault
// masks are drawn and encrypted as a unit — so an aborted shard simply
// discards a whole number of traces and its PRNG substream is never split
// across resumes.
//
// Each block of traces reaches the accumulators as one stats.Block per
// observation point (Accumulator.AddBlock), which sums orders <= 2 in
// exact integer arithmetic and reproduces the row-by-row float sums bit
// for bit.
func (cp *Campaign) CollectIntoContext(ctx context.Context, rng *prng.Source, n int, accs []*stats.Accumulator) error {
	if len(accs) != len(cp.Points) {
		return fmt.Errorf("fault: %d accumulators for %d observation points", len(accs), len(cp.Points))
	}
	pool := collectPool(cp)
	buf := pool.Get().(*collectBuffers)
	defer pool.Put(buf)
	if buf.blk == nil {
		buf.blk = stats.NewBlock(cp.Groups(), cp.GroupBits)
	}
	return cp.forEachBlock(ctx, rng, n, buf, func(pi, _, rows int, states []byte, stride int) {
		buf.blk.SetRows(states, stride, rows)
		accs[pi].AddBlock(buf.blk)
	})
}

// forEachBlock runs n paired (clean, faulty) traces and calls emit once
// per block of traces and observation point with that point's
// observations: rows states of the cipher's block size, row r starting at
// states[r*stride]. Under OracleWelch the rows are the XOR differentials of
// the block's traces, sample base+r in row r; under OracleSIFA they are
// the clean states of only the traces whose fault left the ciphertext
// unchanged, in sample order. The campaign must be validated.
//
// Each block first draws every plaintext and fault injection pair — in
// the same per-sample interleaving a trace-at-a-time loop would use, so
// the PRNG stream is independent of the block size — and then encrypts
// the whole block through the generalized-injection dispatcher (batch
// kernel, FaultKernel extension, or the scalar reference path; see
// ciphers.EncryptForksOps). All engines produce bit-identical
// observations. The observations are formed in place in the block's
// clean-state buffer, and buf is reused across calls, so nothing is
// allocated per block. Cancellation is checked once per block, before
// any of the block's PRNG draws.
//
// Ineffective-fault conditioning compares ciphertexts only: every
// observation point sits at or after the injection round, and the rounds
// from injection to ciphertext are a bijection, so an unchanged
// ciphertext implies the fault was the identity on the actual state and
// every intermediate observation coincides with the clean branch.
func (cp *Campaign) forEachBlock(ctx context.Context, rng *prng.Source, n int, buf *collectBuffers,
	emit func(pi, base, rows int, states []byte, stride int)) error {
	bb := cp.Cipher.BlockBytes()
	np := len(cp.Points)
	stride := np * bb
	inj := NewInjector(cp.Pattern, cp.Model, cp.Mode)
	var xorBuf, andBuf []byte
	if inj.HasXor() {
		xorBuf = buf.xor
	}
	if inj.HasAnd() {
		andBuf = buf.and
	}
	for i, p := range cp.Points {
		buf.bpts[i] = p.batchPoint()
	}
	pts, clean := buf.pts, buf.clean
	xors := [][]byte{nil, xorBuf}
	ands := [][]byte{nil, andBuf}
	states := [][]byte{clean, buf.faulty}
	cts := [][]byte{nil, nil}
	sifa := cp.Oracle == OracleSIFA
	if sifa {
		cts = [][]byte{buf.ct0, buf.ct1}
	}
	var kern ciphers.BatchKernel
	if be, ok := cp.Cipher.(ciphers.BatchEncrypter); ok && !cp.NoBatch {
		kern = be.NewBatchKernel()
	}
	// One collect span per call (one per shard under the evaluate
	// engine); nil and free unless the caller's ctx carries a span.
	sp, _ := trace.StartSpan(ctx, trace.SpanCollect)
	sp.SetAttr("samples", n)
	sp.SetAttr("batch", kern != nil)
	sp.SetAttr("fault_model", cp.Model.String())
	sp.SetAttr("oracle", cp.Oracle.String())
	defer sp.End()
	// Handles are resolved once per call (not per trace); all of them are
	// nil no-ops when cp.Metrics is nil.
	traces := cp.Metrics.Counter("campaign.traces_total")
	pathBlocks := cp.Metrics.Counter("campaign.scalar_blocks_total")
	if kern != nil {
		pathBlocks = cp.Metrics.Counter("campaign.batch_blocks_total")
	}
	ineffective := cp.Metrics.Counter("campaign.ineffective_total")
	collectTimer := cp.Metrics.Histogram("campaign.collect_seconds", obs.LatencyBuckets).Start()
	for base := 0; base < n; base += batchBlock {
		if err := ctx.Err(); err != nil {
			collectTimer.Stop()
			return err
		}
		bn := min(batchBlock, n-base)
		for i := 0; i < bn; i++ {
			rng.Fill(pts[i*bb : (i+1)*bb])
			var xm, am []byte
			if xorBuf != nil {
				xm = xorBuf[i*bb : (i+1)*bb]
			}
			if andBuf != nil {
				am = andBuf[i*bb : (i+1)*bb]
			}
			inj.Draw(xm, am, rng)
		}
		ciphers.EncryptForksOps(cp.Cipher, kern, cp.Round, buf.bpts, bn, pts, xors, ands, states, cts)
		traces.Add(uint64(bn))
		pathBlocks.Inc()
		rows := bn
		if sifa {
			// Compact the ineffective traces' clean states to the front.
			rows = 0
			for i := 0; i < bn; i++ {
				if bytes.Equal(cts[0][i*bb:(i+1)*bb], cts[1][i*bb:(i+1)*bb]) {
					copy(clean[rows*stride:(rows+1)*stride], clean[i*stride:(i+1)*stride])
					rows++
				}
			}
			ineffective.Add(uint64(rows))
		} else {
			subtle.XORBytes(clean[:bn*stride], clean[:bn*stride], buf.faulty[:bn*stride])
		}
		for pi := 0; pi < np; pi++ {
			emit(pi, base, rows, clean[pi*bb:], stride)
		}
	}
	collectTimer.Stop()
	return nil
}

// collectBuffers is the scratch of one collection call: the trace block's
// plaintexts, injection masks, states and ciphertexts, the batch points
// and the stats.Block that CollectIntoContext stages observations in.
// Campaign shards are small — a 512-sample assessment is two of them — so
// allocating these per call would dominate a sweep's garbage; they are
// pooled per shape instead.
type collectBuffers struct {
	pts, xor, and []byte
	clean, faulty []byte
	ct0, ct1      []byte
	bpts          []ciphers.BatchPoint
	blk           *stats.Block // created on first use by CollectIntoContext
}

// collectShape keys the buffer pools: it fixes every buffer size.
type collectShape struct{ blockBytes, points, groupBits int }

var collectPools sync.Map // collectShape → *sync.Pool of *collectBuffers

// collectPool returns the buffer pool for the campaign's shape.
func collectPool(cp *Campaign) *sync.Pool {
	k := collectShape{cp.Cipher.BlockBytes(), len(cp.Points), cp.GroupBits}
	if p, ok := collectPools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := collectPools.LoadOrStore(k, &sync.Pool{New: func() any {
		bb, states := k.blockBytes, batchBlock*k.points*k.blockBytes
		return &collectBuffers{
			pts: make([]byte, batchBlock*bb), xor: make([]byte, batchBlock*bb), and: make([]byte, batchBlock*bb),
			clean: make([]byte, states), faulty: make([]byte, states),
			ct0: make([]byte, batchBlock*bb), ct1: make([]byte, batchBlock*bb),
			bpts: make([]ciphers.BatchPoint, k.points),
		}
	}})
	return p.(*sync.Pool)
}

// batchPoint maps an observation point onto the ciphers batch API.
func (p Point) batchPoint() ciphers.BatchPoint {
	switch p.Kind {
	case RoundInput:
		return ciphers.BatchPoint{Round: p.Round}
	case PostSub:
		return ciphers.BatchPoint{Round: p.Round, PostSub: true}
	default:
		return ciphers.BatchPoint{}
	}
}

// groupValuesInto splits state bytes into groupBits-wide integer values,
// the float rows of Collect's matrices.
func groupValuesInto(out []float64, state []byte, groupBits, groups int) {
	switch groupBits {
	case 8:
		for i, b := range state {
			out[i] = float64(b)
		}
	case 4:
		for i := 0; i < groups; i++ {
			out[i] = float64(state[i/2] >> (4 * uint(i%2)) & 0xf)
		}
	case 2:
		for i := 0; i < groups; i++ {
			out[i] = float64(state[i/4] >> (2 * uint(i%4)) & 0x3)
		}
	default: // 1
		for i := 0; i < groups; i++ {
			out[i] = float64(state[i/8] >> uint(i%8) & 1)
		}
	}
}

// UniformReference returns a samples x groups matrix of uniformly random
// group values, the t-test's null population.
func UniformReference(samples, groupBits, groups int, rng *prng.Source) [][]float64 {
	maxVal := 1<<uint(groupBits) - 1
	m := make([][]float64, samples)
	for i := range m {
		row := make([]float64, groups)
		for j := range row {
			row[j] = float64(rng.Intn(maxVal + 1))
		}
		m[i] = row
	}
	return m
}
