// Package countermeasure implements the duplication-based fault-attack
// countermeasure evaluated in §IV-C of the paper, and the protected-cipher
// leakage oracle that drives the RL agent against it.
//
// The countermeasure runs the cipher twice ("computational branches") and
// compares the two ciphertexts. On a mismatch the fault is considered
// detected and the output is muted: a random string of ciphertext length
// is returned instead (§III-G). An adversary therefore only learns
// something when both branches are corrupted *identically* — which is why
// the agent of Table IV converges to the same single bit (76) in both
// branches: a deterministic single-bit flip is the one fault that is
// reliably equal across branches.
//
// The protected oracle exposes a doubled action space: pattern bits
// [0, T) select branch-1 state bits, [T, 2T) branch-2 bits, giving the
// episode length of 256 reported in Table IV for AES.
package countermeasure

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/evaluate"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/prng"
	"repro/internal/stats"
)

// Protected wraps a keyed cipher with the duplication countermeasure.
type Protected struct {
	cipher ciphers.Cipher
	rng    *prng.Source
	out1   []byte
	out2   []byte
}

// NewProtected builds the protected implementation around one keyed
// cipher instance (both branches compute the same function, so a single
// deterministic instance serves as both). rng supplies mute strings.
func NewProtected(c ciphers.Cipher, rng *prng.Source) *Protected {
	n := c.BlockBytes()
	return &Protected{cipher: c, rng: rng, out1: make([]byte, n), out2: make([]byte, n)}
}

// Cipher returns the underlying keyed cipher.
func (p *Protected) Cipher() ciphers.Cipher { return p.cipher }

// Encrypt runs both branches with their respective faults (either may be
// nil) and writes the released output into dst. It reports whether the
// countermeasure muted the output.
func (p *Protected) Encrypt(dst, src []byte, branch1, branch2 *ciphers.Fault) (muted bool) {
	p.cipher.Encrypt(p.out1, src, branch1, nil)
	p.cipher.Encrypt(p.out2, src, branch2, nil)
	if !bytes.Equal(p.out1, p.out2) {
		p.rng.Fill(dst)
		return true
	}
	copy(dst, p.out1)
	return false
}

// OracleConfig tunes the protected leakage oracle. Zero values select the
// same defaults as the unprotected assessor.
type OracleConfig struct {
	// Round is the fault-injection round in both branches (required).
	Round int
	// Samples per assessment (default 2048).
	Samples int
	// MaxOrder of the ciphertext t-test (default 2).
	MaxOrder int
	// GroupBits of the ciphertext grouping: 1, 2, 4 or 8 (default cipher
	// native).
	GroupBits int
	// Threshold θ (default 4.5).
	Threshold float64
	// Mode selects the per-branch fault-value model (default RandomMask:
	// each branch's fault value is drawn independently, so only
	// single-bit selections are reliably equal across branches).
	Mode fault.Mode
	// Model is the typed fault model applied per branch (default
	// fault.XorFlip). Evaluate's model argument overrides it per call.
	Model fault.Model
	// Oracle must be fault.OracleWelch: the protected target releases
	// only (possibly muted) ciphertexts, and muting already erases the
	// effective/ineffective distinction SIFA would condition on, so the
	// SIFA oracle is rejected at construction.
	Oracle fault.OracleKind
	// Workers is the campaign worker-pool size; 0 uses GOMAXPROCS.
	// Results are bit-identical for every value.
	Workers int
	// NoBatch forces the scalar reference path even for ciphers with a
	// batch kernel (bit-identical; for equivalence tests and benchmarks).
	NoBatch bool
	// Metrics, if non-nil, receives oracle instrumentation: evaluation
	// counts and latencies, per-shard wall times, and mute-rate
	// counters. Results are bit-identical with metrics on or off.
	Metrics *obs.Registry
	// Events, if non-nil, receives campaign_started/campaign_finished
	// run events per evaluation.
	Events *obs.Emitter
	// RefSeed overrides the uniform-reference stream (0 shares the
	// canonical process-wide reference table entry).
	RefSeed uint64
}

func (c *OracleConfig) setDefaults(cipher ciphers.Cipher) error {
	if c.Round < 1 || c.Round > cipher.Rounds() {
		return fmt.Errorf("countermeasure: round %d out of range 1..%d", c.Round, cipher.Rounds())
	}
	if c.Samples == 0 {
		c.Samples = 2048
	}
	if c.MaxOrder == 0 {
		c.MaxOrder = 2
	}
	if c.GroupBits == 0 {
		c.GroupBits = cipher.GroupBits()
	}
	switch c.GroupBits {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("countermeasure: unsupported group size %d bits", c.GroupBits)
	}
	if c.Threshold == 0 {
		c.Threshold = stats.DefaultThreshold
	}
	if c.RefSeed == 0 {
		c.RefSeed = evaluate.CanonicalRefSeed
	}
	if c.Oracle != fault.OracleWelch {
		return fmt.Errorf("countermeasure: oracle %s not supported for the protected target (Welch only)", c.Oracle)
	}
	return nil
}

// Oracle measures information leakage of a two-branch fault pattern
// against the protected implementation, looking only at released
// ciphertexts (the adversary's view). It implements explore.Oracle.
// Campaigns run through evaluate.RunSharded: each shard gets its own
// Protected instance fed by a deterministic PRNG substream, so results
// are bit-identical for every worker count.
type Oracle struct {
	cipher    ciphers.Cipher
	cfg       OracleConfig
	seed      uint64
	stateBits int
	// LastMutedRate reports, after each Evaluate, the fraction of
	// samples the countermeasure muted (diagnostic).
	LastMutedRate float64
}

// NewOracle builds the protected oracle. rng fixes the oracle's base
// seed; plaintexts, fault values and mute strings are drawn from
// substreams derived from it per assessment.
func NewOracle(c ciphers.Cipher, cfg OracleConfig, rng *prng.Source) (*Oracle, error) {
	if err := cfg.setDefaults(c); err != nil {
		return nil, err
	}
	return &Oracle{
		cipher:    c,
		cfg:       cfg,
		seed:      rng.Uint64(),
		stateBits: 8 * c.BlockBytes(),
	}, nil
}

// StateBits implements explore.Oracle: the action space covers both
// branches, so it is twice the cipher state width (episode length 256 for
// AES, Table IV).
func (o *Oracle) StateBits() int { return 2 * o.stateBits }

// Threshold implements explore.Oracle.
func (o *Oracle) Threshold() float64 { return o.cfg.Threshold }

// InjectionRound reports the fault-injection round (used as part of
// memoization keys by explore.CachedOracle).
func (o *Oracle) InjectionRound() int { return o.cfg.Round }

// SplitPattern divides a doubled pattern into its per-branch halves.
func (o *Oracle) SplitPattern(pattern *bitvec.Vector) (b1, b2 bitvec.Vector) {
	b1 = bitvec.New(o.stateBits)
	b2 = bitvec.New(o.stateBits)
	for _, b := range pattern.Bits() {
		if b < o.stateBits {
			b1.Set(b)
		} else {
			b2.Set(b - o.stateBits)
		}
	}
	return b1, b2
}

// Evaluate implements explore.Oracle: collects ciphertext differentials
// between the unfaulted and faulted protected implementation across the
// sharded worker pool and runs the order-1..G t-test against the shared
// uniform reference. The model argument selects the per-branch fault
// model (fault.XorFlip reproduces the historical behavior bit-
// identically). Evaluate is a pure function of the oracle seed, the
// pattern and the model; only LastMutedRate makes an Oracle value unsafe
// to share between goroutines. A done ctx aborts the campaign at the
// next shard boundary and returns ctx.Err().
func (o *Oracle) Evaluate(ctx context.Context, pattern *bitvec.Vector, model fault.Model) (float64, error) {
	if pattern.Len() != o.StateBits() {
		return 0, fmt.Errorf("countermeasure: pattern width %d, want %d", pattern.Len(), o.StateBits())
	}
	if pattern.IsZero() {
		return 0, fmt.Errorf("countermeasure: empty pattern")
	}
	p1, p2 := o.SplitPattern(pattern)
	var inj1, inj2 *fault.Injector
	if !p1.IsZero() {
		inj1 = fault.NewInjector(p1, model, o.cfg.Mode)
	}
	if !p2.IsZero() {
		inj2 = fault.NewInjector(p2, model, o.cfg.Mode)
	}
	bb := o.cipher.BlockBytes()
	groups := 8 * bb / o.cfg.GroupBits
	seed := evaluate.PatternSeed(o.seed, pattern, o.cfg.Round)

	be, batch := o.cipher.(ciphers.BatchEncrypter)
	batch = batch && !o.cfg.NoBatch

	sp, ctx := trace.StartSpan(ctx, trace.SpanAssess)
	defer sp.End()
	sp.SetAttr("cipher", o.cipher.Name())
	sp.SetAttr("round", o.cfg.Round)
	sp.SetAttr("protected", true)
	sp.SetAttr("fault_model", model.String())

	m, events := o.cfg.Metrics, o.cfg.Events
	var start time.Time
	if m != nil || events != nil {
		start = time.Now()
		m.Counter("countermeasure.evaluations_total").Inc()
		events.Emit(obs.EventCampaignStarted, map[string]any{
			"cipher":      o.cipher.Name(),
			"round":       o.cfg.Round,
			"pattern":     hex.EncodeToString(pattern.Bytes()),
			"bits":        pattern.Count(),
			"samples":     o.cfg.Samples,
			"protected":   true,
			"batch":       batch,
			"batch_path":  fault.BatchPathOf(o.cipher, o.cfg.NoBatch),
			"fault_model": model.String(),
			"oracle":      o.cfg.Oracle.String(),
		})
	}
	shardHist := m.Histogram("countermeasure.shard_seconds", obs.LatencyBuckets)

	var muted atomic.Int64
	accs, err := evaluate.RunSharded(ctx, o.cfg.Samples, o.cfg.Workers, 1, groups, o.cfg.MaxOrder, seed,
		func(rng *prng.Source, shard, n int, shardAccs []*stats.Accumulator) error {
			ssp, _ := trace.StartSpan(ctx, trace.SpanShard)
			ssp.SetAttr("shard", shard)
			ssp.SetAttr("samples", n)
			ssp.OwnLane()
			st := shardHist.Start()
			var shardMuted int
			if batch {
				shardMuted = o.collectBatch(be.NewBatchKernel(), inj1, inj2, rng, n, shardAccs[0])
			} else {
				shardMuted = o.collectScalar(inj1, inj2, rng, n, shardAccs[0])
			}
			st.Stop()
			muted.Add(int64(shardMuted))
			ssp.End()
			return nil
		})
	if err != nil {
		return 0, err
	}
	o.LastMutedRate = float64(muted.Load()) / float64(o.cfg.Samples)
	ref := evaluate.Reference(o.cfg.Samples, o.cfg.GroupBits, groups, o.cfg.MaxOrder, o.cfg.RefSeed)
	res := accs[0].MaxT(o.cfg.MaxOrder, ref)
	evaluate.Recycle(accs)
	sp.SetAttr("t", res.T)
	sp.SetAttr("leaky", res.T > o.cfg.Threshold)
	sp.SetAttr("muted_rate", o.LastMutedRate)
	if m != nil || events != nil {
		wall := time.Since(start)
		m.Counter("countermeasure.muted_total").Add(uint64(muted.Load()))
		m.Counter("countermeasure.samples_total").Add(uint64(o.cfg.Samples))
		m.Histogram("countermeasure.evaluate_seconds", obs.LatencyBuckets).Observe(wall.Seconds())
		m.Gauge("countermeasure.last_muted_rate").Set(o.LastMutedRate)
		events.Emit(obs.EventCampaignFinished, map[string]any{
			"cipher":      o.cipher.Name(),
			"round":       o.cfg.Round,
			"pattern":     hex.EncodeToString(pattern.Bytes()),
			"t":           res.T,
			"leaky":       res.T > o.cfg.Threshold,
			"muted_rate":  o.LastMutedRate,
			"protected":   true,
			"duration_ms": float64(wall) / float64(time.Millisecond),
			"batch_path":  fault.BatchPathOf(o.cipher, o.cfg.NoBatch),
			"fault_model": model.String(),
			"oracle":      o.cfg.Oracle.String(),
		})
	}
	return res.T, nil
}

// collectScalar runs one shard through the reference path: one Encrypt
// per (sample, branch), with every buffer and the branch Fault structs
// reused across samples.
func (o *Oracle) collectScalar(inj1, inj2 *fault.Injector, rng *prng.Source, n int, acc *stats.Accumulator) int {
	prot := NewProtected(o.cipher, rng)
	bb := o.cipher.BlockBytes()
	pt := make([]byte, bb)
	clean := make([]byte, bb)
	faulty := make([]byte, bb)
	xor1, and1 := make([]byte, bb), make([]byte, bb)
	xor2, and2 := make([]byte, bb), make([]byte, bb)
	diffs := newDiffBlock(bb, o.cfg.GroupBits, acc)
	fault1 := &ciphers.Fault{Round: o.cfg.Round}
	fault2 := &ciphers.Fault{Round: o.cfg.Round}
	muted := 0
	for s := 0; s < n; s++ {
		rng.Fill(pt)
		o.cipher.Encrypt(clean, pt, nil, nil)
		var f1, f2 *ciphers.Fault
		if fault1.Mask, fault1.And = drawBranch(inj1, xor1, and1, rng); fault1.Mask != nil || fault1.And != nil {
			f1 = fault1
		}
		if fault2.Mask, fault2.And = drawBranch(inj2, xor2, and2, rng); fault2.Mask != nil || fault2.And != nil {
			f2 = fault2
		}
		if prot.Encrypt(faulty, pt, f1, f2) {
			muted++
		}
		diffs.add(clean, faulty)
	}
	diffs.flush()
	return muted
}

// collectBatch runs one shard through the cipher's batch kernel: a single
// three-fork EncryptForks call per sample computes the clean ciphertext
// and both computational branches, sharing the rounds before the
// injection point across all three. Forking stays per-sample rather than
// across the shard because the mute strings drawn on detection interleave
// with the fault draws of later samples — batching samples would reorder
// the PRNG stream. The released outputs, the muted count and the
// accumulator contents are bit-identical to collectScalar.
func (o *Oracle) collectBatch(kern ciphers.BatchKernel, inj1, inj2 *fault.Injector, rng *prng.Source, n int, acc *stats.Accumulator) int {
	bb := o.cipher.BlockBytes()
	pt := make([]byte, bb)
	clean := make([]byte, bb)
	faulty := make([]byte, bb)
	out2 := make([]byte, bb)
	xor1, and1 := make([]byte, bb), make([]byte, bb)
	xor2, and2 := make([]byte, bb), make([]byte, bb)
	diffs := newDiffBlock(bb, o.cfg.GroupBits, acc)
	xors := [][]byte{nil, nil, nil}
	ands := [][]byte{nil, nil, nil}
	states := [][]byte{nil, nil, nil}
	// Branch 1's ciphertext lands directly in faulty: on a match it is
	// the released output, on a mismatch the mute string overwrites it —
	// the same releases Protected.Encrypt produces.
	cts := [][]byte{clean, faulty, out2}
	muted := 0
	for s := 0; s < n; s++ {
		rng.Fill(pt)
		xors[1], ands[1] = drawBranch(inj1, xor1, and1, rng)
		xors[2], ands[2] = drawBranch(inj2, xor2, and2, rng)
		ciphers.EncryptForksOps(o.cipher, kern, o.cfg.Round, nil, 1, pt, xors, ands, states, cts)
		if !bytes.Equal(faulty, out2) {
			rng.Fill(faulty)
			muted++
		}
		diffs.add(clean, faulty)
	}
	diffs.flush()
	return muted
}

// diffBlock stages the ciphertext differentials of up to stats.BlockRows
// samples and folds each full block into the shard's accumulator at once.
type diffBlock struct {
	bb    int
	rows  int
	diffs []byte // rows x bb differentials
	blk   *stats.Block
	acc   *stats.Accumulator
}

func newDiffBlock(bb, groupBits int, acc *stats.Accumulator) *diffBlock {
	return &diffBlock{
		bb:    bb,
		diffs: make([]byte, stats.BlockRows*bb),
		blk:   stats.NewBlock(8*bb/groupBits, groupBits),
		acc:   acc,
	}
}

// add stages the differential of one sample's clean and released
// ciphertexts.
func (d *diffBlock) add(clean, released []byte) {
	subtle.XORBytes(d.diffs[d.rows*d.bb:(d.rows+1)*d.bb], clean, released)
	if d.rows++; d.rows == stats.BlockRows {
		d.flush()
	}
}

// flush folds the staged differentials into the accumulator.
func (d *diffBlock) flush() {
	d.blk.SetRows(d.diffs, d.bb, d.rows)
	d.acc.AddBlock(d.blk)
	d.rows = 0
}

// drawBranch draws one branch's injection halves into the caller's
// buffers and returns the active slices (nil halves are unused by the
// branch's model). A nil injector — an empty branch pattern — returns
// (nil, nil) and consumes no randomness, exactly like the historical
// empty-branch path.
func drawBranch(inj *fault.Injector, xor, and []byte, rng *prng.Source) (xm, am []byte) {
	if inj == nil {
		return nil, nil
	}
	if inj.HasXor() {
		xm = xor
	}
	if inj.HasAnd() {
		am = and
	}
	inj.Draw(xm, am, rng)
	return xm, am
}
