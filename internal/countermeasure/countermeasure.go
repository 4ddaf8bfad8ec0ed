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

// Oracle measures information leakage of a two-branch fault pattern
// against the protected implementation, looking only at released
// ciphertexts (the adversary's view). It implements explore.Oracle.
// Campaigns run through evaluate.RunSharded, each shard on a
// deterministic PRNG substream, so results are bit-identical for every
// worker count.
type Oracle struct {
	cipher    ciphers.Cipher
	cfg       evaluate.Config
	round     int
	stateBits int
	// LastMutedRate reports, after each Evaluate, the fraction of
	// samples the countermeasure muted (diagnostic).
	LastMutedRate float64
}

// NewOracle builds the protected oracle around an engine's keyed cipher
// and configuration, with faults injected at round in both branches. It
// uses the engine's Samples, MaxOrder, GroupBits, Threshold, Mode,
// Workers, NoBatch, Metrics, Events and RefSeed, and its Seed as the
// base seed from which each assessment derives its plaintexts, fault
// values and mute strings. Observation points, Lag, Window and
// StopAtThreshold do not apply: the adversary sees released ciphertexts
// only, all of them. The engine's Oracle must be fault.OracleWelch:
// muting already erases the effective/ineffective distinction SIFA
// would condition on.
func NewOracle(e *evaluate.Engine, round int) (*Oracle, error) {
	c, cfg := e.Cipher(), e.Config()
	if round < 1 || round > c.Rounds() {
		return nil, fmt.Errorf("countermeasure: round %d out of range 1..%d", round, c.Rounds())
	}
	if cfg.Oracle != fault.OracleWelch {
		return nil, fmt.Errorf("countermeasure: oracle %s not supported for the protected target (Welch only)", cfg.Oracle)
	}
	return &Oracle{cipher: c, cfg: cfg, round: round, stateBits: e.StateBits()}, nil
}

// StateBits implements explore.Oracle: the action space covers both
// branches, so it is twice the cipher state width (episode length 256 for
// AES, Table IV).
func (o *Oracle) StateBits() int { return 2 * o.stateBits }

// Threshold implements explore.Oracle.
func (o *Oracle) Threshold() float64 { return o.cfg.Threshold }

// InjectionRound reports the fault-injection round (used as part of
// memoization keys by explore.CachedOracle).
func (o *Oracle) InjectionRound() int { return o.round }

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
	seed := evaluate.PatternSeed(o.cfg.Seed, pattern, o.round)

	batchPath := fault.BatchPathOf(o.cipher, o.cfg.NoBatch)

	sp, ctx := trace.StartSpan(ctx, trace.SpanAssess)
	defer sp.End()
	sp.SetAttr("cipher", o.cipher.Name())
	sp.SetAttr("round", o.round)
	sp.SetAttr("protected", true)
	sp.SetAttr("fault_model", model.String())

	m, events := o.cfg.Metrics, o.cfg.Events
	var start time.Time
	if m != nil || events != nil {
		start = time.Now()
		m.Counter("countermeasure.evaluations_total").Inc()
		events.Emit(obs.EventCampaignStarted, map[string]any{
			"cipher":      o.cipher.Name(),
			"round":       o.round,
			"pattern":     hex.EncodeToString(pattern.Bytes()),
			"bits":        pattern.Count(),
			"samples":     o.cfg.Samples,
			"protected":   true,
			"batch":       batchPath == "kernel",
			"batch_path":  batchPath,
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
			shardMuted := o.collect(ciphers.NewKernel(o.cipher, o.cfg.NoBatch), inj1, inj2, rng, n, shardAccs[0])
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
			"round":       o.round,
			"pattern":     hex.EncodeToString(pattern.Bytes()),
			"t":           res.T,
			"leaky":       res.T > o.cfg.Threshold,
			"muted_rate":  o.LastMutedRate,
			"protected":   true,
			"duration_ms": float64(wall) / float64(time.Millisecond),
			"batch_path":  batchPath,
			"fault_model": model.String(),
			"oracle":      o.cfg.Oracle.String(),
		})
	}
	return res.T, nil
}

// collect runs one shard: a single three-fork EncryptForksOps call per
// sample computes the clean ciphertext and both computational branches,
// sharing the rounds before the injection point across all three. Each
// sample draws its plaintext, branch 1's fault, branch 2's fault and, when
// the branches disagree, the mute string that replaces the release.
// Forking stays per-sample rather than across the shard because the mute
// strings interleave with the fault draws of later samples — batching
// samples would reorder the PRNG stream. A nil kern runs the scalar
// reference path (ciphers.ScalarForksOps), which every batch kernel is
// verified against, so both paths release the same bytes.
func (o *Oracle) collect(kern ciphers.BatchKernel, inj1, inj2 *fault.Injector, rng *prng.Source, n int, acc *stats.Accumulator) int {
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
	// the released output, on a mismatch the mute string overwrites it.
	cts := [][]byte{clean, faulty, out2}
	muted := 0
	for s := 0; s < n; s++ {
		rng.Fill(pt)
		xors[1], ands[1] = drawBranch(inj1, xor1, and1, rng)
		xors[2], ands[2] = drawBranch(inj2, xor2, and2, rng)
		ciphers.EncryptForksOps(o.cipher, kern, o.round, nil, 1, pt, xors, ands, states, cts)
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
