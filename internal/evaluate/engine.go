// Package evaluate is the unified evaluation engine behind every
// exploitability measurement in the repository: the unprotected leakage
// oracle, Discover/Assess, the sweep, the bench harness and the CLIs all
// route their fault campaigns through it, and an Engine is the one oracle
// configuration below the public API — the duplication-countermeasure
// oracle is built from one and shards its campaigns with RunSharded.
//
// The engine combines three mechanisms:
//
//   - streaming statistics: campaigns fold grouped differentials directly
//     into stats.Accumulator power sums instead of materializing
//     Samples x Groups trace matrices (O(groups x orders) memory);
//   - deterministic sharding: samples are partitioned into fixed-size
//     shards, each drawn from its own PRNG substream derived from the
//     campaign seed and the shard index, and shard accumulators are merged
//     in shard order — so results are bit-identical for any worker count;
//   - a shared reference table: the uniform-reference population's moments
//     are computed once per (Samples, GroupBits, groups, MaxOrder, seed)
//     in a sync.Once-guarded table instead of once per assessor.
//
// An Engine's assessment is a pure function of (Seed, pattern, round,
// fault model), which is what makes result memoization
// (explore.CachedOracle) exact.
package evaluate

import (
	"context"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/prng"
	"repro/internal/stats"
)

// Config tunes an Engine. Zero values select paper defaults.
type Config struct {
	// Samples is the number of random plaintexts per assessment
	// (default 2048).
	Samples int
	// MaxOrder is the highest t-test order G (default 2, at most
	// stats.MaxTestOrder).
	MaxOrder int
	// GroupBits is the differential grouping granularity; 0 uses the
	// cipher's native substitution width.
	GroupBits int
	// Threshold is the leakage classification threshold θ (default 4.5).
	Threshold float64
	// Lag is the distance from injection round to first observed round
	// (default fault.DefaultLag). Points overrides the window entirely.
	Lag int
	// Window is how many final rounds are observable by partial
	// decryption (default fault.DefaultWindow).
	Window int
	// Points, if non-empty, fixes the observation points.
	Points []fault.Point
	// Mode selects the fault-value model (default fault.RandomMask).
	Mode fault.Mode
	// Model is the typed fault model (default fault.XorFlip, the paper's
	// bit-flip model and the engine's historical behavior). Assess uses
	// it; AssessModel overrides it per call.
	Model fault.Model
	// Oracle selects the statistical oracle (default fault.OracleWelch;
	// fault.OracleSIFA conditions on ineffective faults).
	Oracle fault.OracleKind
	// StopAtThreshold makes Assess return as soon as one observation
	// point exceeds the threshold instead of sweeping all points for
	// the global maximum. Training uses this; reporting does not.
	StopAtThreshold bool
	// Workers is the number of campaign worker goroutines; 0 uses
	// GOMAXPROCS, 1 forces the serial path. Results are identical for
	// every value (see RunSharded).
	Workers int
	// NoBatch forces the scalar reference path even for ciphers with a
	// batch kernel. Both paths are bit-identical; the knob exists for
	// equivalence tests and benchmarks.
	NoBatch bool
	// Metrics, if non-nil, receives engine instrumentation: assessment
	// counts and latencies, per-shard wall times, worker utilization,
	// and the campaign throughput counters of internal/fault. A nil
	// registry keeps the engine on the allocation- and clock-free fast
	// path, and instrumentation never touches a PRNG stream, so
	// assessments are bit-identical with metrics on or off.
	Metrics *obs.Registry
	// Events, if non-nil, receives campaign_started/campaign_finished
	// run events per assessment. Intended for standalone assessments;
	// training sessions emit episode-level events instead (see
	// internal/explore).
	Events *obs.Emitter
	// Seed is the base seed of the engine. Each assessment derives its
	// campaign seed from (Seed, pattern, round), making assessments pure
	// functions of their inputs.
	Seed uint64
	// RefSeed selects the uniform-reference stream; 0 uses the canonical
	// shared seed so all engines with equal shape share one table entry.
	RefSeed uint64
}

// resolve replaces zero values with their defaults and rejects the
// values no campaign can run with.
func (cfg *Config) resolve(c ciphers.Cipher) error {
	if cfg.Samples == 0 {
		cfg.Samples = 2048
	}
	if cfg.MaxOrder == 0 {
		cfg.MaxOrder = 2
	}
	if cfg.GroupBits == 0 {
		cfg.GroupBits = c.GroupBits()
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = stats.DefaultThreshold
	}
	if cfg.Lag == 0 {
		cfg.Lag = fault.DefaultLag
	}
	if cfg.Window == 0 {
		cfg.Window = fault.DefaultWindow
	}
	if cfg.RefSeed == 0 {
		cfg.RefSeed = CanonicalRefSeed
	}
	if cfg.Samples < 2 {
		return fmt.Errorf("evaluate: samples %d out of range (want 2 or more)", cfg.Samples)
	}
	if cfg.MaxOrder < 1 || cfg.MaxOrder > stats.MaxTestOrder {
		return fmt.Errorf("evaluate: max order %d out of range (want 1..%d)", cfg.MaxOrder, stats.MaxTestOrder)
	}
	switch cfg.GroupBits {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("evaluate: group size %d bits unsupported (want 1, 2, 4 or 8)", cfg.GroupBits)
	}
	return nil
}

// PointResult is the best statistic observed at one point.
type PointResult struct {
	Point fault.Point
	Stat  stats.TTestResult
}

// Assessment is the outcome of one pattern assessment.
type Assessment struct {
	// T is the maximum |t| over all observation points and orders: the
	// information leakage l of the paper.
	T float64
	// Leaky reports T > threshold.
	Leaky bool
	// Best identifies where and at which order T was found.
	Best PointResult
	// PerPoint lists the best statistic of every evaluated point (may
	// be truncated when StopAtThreshold fires).
	PerPoint []PointResult
}

// Engine evaluates fault patterns for a fixed keyed cipher and config.
// It is safe for concurrent use: its fields are immutable after New and
// every assessment works on freshly derived PRNG substreams.
type Engine struct {
	cipher ciphers.Cipher
	cfg    Config
}

// New creates an engine for the given keyed cipher. It fails when a
// knob is out of range: fewer than 2 samples, a maximum order outside
// 1..stats.MaxTestOrder, or a group size other than 1, 2, 4 or 8 bits.
func New(c ciphers.Cipher, cfg Config) (*Engine, error) {
	if err := cfg.resolve(c); err != nil {
		return nil, err
	}
	return &Engine{cipher: c, cfg: cfg}, nil
}

// Cipher returns the underlying keyed cipher.
func (e *Engine) Cipher() ciphers.Cipher { return e.cipher }

// Config returns the engine configuration (defaults resolved).
func (e *Engine) Config() Config { return e.cfg }

// StateBits returns the cipher state width in bits (the RL action space).
func (e *Engine) StateBits() int { return 8 * e.cipher.BlockBytes() }

// Threshold returns the leakage classification threshold θ.
func (e *Engine) Threshold() float64 { return e.cfg.Threshold }

// workers resolves the configured worker count.
func (e *Engine) workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Assess measures the information leakage of injecting the pattern at the
// given round, sweeping t-test orders 1..MaxOrder at every observation
// point. The pattern width must match the cipher state width. A done ctx
// aborts the campaign at the next shard boundary and returns ctx.Err().
func (e *Engine) Assess(ctx context.Context, pattern *bitvec.Vector, round int) (Assessment, error) {
	return e.assess(ctx, pattern, round, e.cfg.Model, 0)
}

// AssessModel is Assess with a per-call fault model override: the RL
// environment uses it when the action space spans several fault types, so
// one engine (and one memoization cache) serves every model.
func (e *Engine) AssessModel(ctx context.Context, pattern *bitvec.Vector, round int, model fault.Model) (Assessment, error) {
	return e.assess(ctx, pattern, round, model, 0)
}

// AssessOrder runs a single fixed-order assessment (used by the Table I
// harness to contrast first- and second-order statistics). It ignores
// StopAtThreshold and may exceed Config.MaxOrder, but not
// stats.MaxTestOrder.
func (e *Engine) AssessOrder(ctx context.Context, pattern *bitvec.Vector, round, order int) (Assessment, error) {
	if order < 1 || order > stats.MaxTestOrder {
		return Assessment{}, fmt.Errorf("evaluate: fixed order %d out of range (want 1..%d)", order, stats.MaxTestOrder)
	}
	return e.assess(ctx, pattern, round, e.cfg.Model, order)
}

// assess is the shared implementation; fixedOrder 0 sweeps 1..MaxOrder
// with the StopAtThreshold short-circuit, fixedOrder >= 1 tests exactly
// that order at every point.
func (e *Engine) assess(ctx context.Context, pattern *bitvec.Vector, round int, model fault.Model, fixedOrder int) (Assessment, error) {
	if pattern.IsZero() {
		return Assessment{}, fmt.Errorf("evaluate: empty fault pattern")
	}
	points := e.cfg.Points
	if len(points) == 0 {
		points = fault.PointsWindow(e.cipher, round, e.cfg.Lag, e.cfg.Window)
	}
	cp := fault.Campaign{
		Cipher:    e.cipher,
		Pattern:   *pattern,
		Round:     round,
		Mode:      e.cfg.Mode,
		Model:     model,
		Oracle:    e.cfg.Oracle,
		Samples:   e.cfg.Samples,
		Points:    points,
		GroupBits: e.cfg.GroupBits,
		NoBatch:   e.cfg.NoBatch,
		Metrics:   e.cfg.Metrics,
	}
	if err := cp.Validate(); err != nil {
		return Assessment{}, err
	}
	maxOrder := e.cfg.MaxOrder
	if fixedOrder > maxOrder {
		maxOrder = fixedOrder
	}
	groups := cp.Groups()
	seed := PatternSeed(e.cfg.Seed, pattern, round)
	workers := e.workers()

	// Span of the whole assessment; children (shards) hang off its
	// context. Nil (free) unless the caller's ctx carries a span.
	sp, ctx := trace.StartSpan(ctx, trace.SpanAssess)
	defer sp.End()
	sp.SetAttr("cipher", e.cipher.Name())
	sp.SetAttr("round", round)
	sp.SetAttr("pattern", hex.EncodeToString(pattern.Bytes()))
	sp.SetAttr("fault_model", model.String())
	sp.SetAttr("oracle", e.cfg.Oracle.String())

	// Instrumentation: resolved once per assessment, nil no-ops when
	// disabled; the clock is read only when metrics or events are on.
	m, events := e.cfg.Metrics, e.cfg.Events
	var start time.Time
	if m != nil || events != nil {
		start = time.Now()
		m.Counter("evaluate.assessments_total").Inc()
		events.Emit(obs.EventCampaignStarted, map[string]any{
			"cipher":      e.cipher.Name(),
			"round":       round,
			"pattern":     hex.EncodeToString(pattern.Bytes()),
			"bits":        pattern.Count(),
			"samples":     e.cfg.Samples,
			"workers":     workers,
			"batch":       !e.cfg.NoBatch,
			"batch_path":  cp.BatchPath(),
			"fault_model": model.String(),
			"oracle":      e.cfg.Oracle.String(),
		})
	}
	shardHist := m.Histogram("evaluate.shard_seconds", obs.LatencyBuckets)
	var busyNanos atomic.Int64

	accs, err := RunSharded(ctx, e.cfg.Samples, workers, len(cp.Points), groups, maxOrder, seed,
		func(rng *prng.Source, shard, n int, shardAccs []*stats.Accumulator) error {
			// Shards run concurrently with unknown multiplicity, so each
			// span gets its own Perfetto lane instead of stacking on the
			// parent's.
			ssp, sctx := trace.StartSpan(ctx, trace.SpanShard)
			ssp.SetAttr("shard", shard)
			ssp.SetAttr("samples", n)
			ssp.OwnLane()
			st := shardHist.Start()
			err := cp.CollectIntoContext(sctx, rng, n, shardAccs)
			if d := st.Stop(); d > 0 {
				busyNanos.Add(int64(d))
			}
			ssp.End()
			return err
		})
	if err != nil {
		return Assessment{}, err
	}
	ref := Reference(e.cfg.Samples, e.cfg.GroupBits, groups, maxOrder, e.cfg.RefSeed)

	var out Assessment
	for i, p := range cp.Points {
		var st stats.TTestResult
		if fixedOrder > 0 {
			st = accs[i].T(fixedOrder, ref)
		} else {
			st = accs[i].MaxT(e.cfg.MaxOrder, ref)
		}
		pr := PointResult{Point: p, Stat: st}
		out.PerPoint = append(out.PerPoint, pr)
		if st.T > out.T {
			out.T = st.T
			out.Best = pr
		}
		if fixedOrder == 0 && e.cfg.StopAtThreshold && out.T > e.cfg.Threshold {
			break
		}
	}
	Recycle(accs)
	out.Leaky = out.T > e.cfg.Threshold
	sp.SetAttr("t", out.T)
	sp.SetAttr("leaky", out.Leaky)
	if m != nil || events != nil {
		wall := time.Since(start)
		secs := wall.Seconds()
		m.Histogram("evaluate.assess_seconds", obs.LatencyBuckets).Observe(secs)
		if secs > 0 {
			m.Histogram("evaluate.traces_per_sec", obs.RateBuckets).
				Observe(float64(e.cfg.Samples) / secs)
			if busy := busyNanos.Load(); busy > 0 {
				m.Gauge("evaluate.worker_utilization").
					Set(float64(busy) / (float64(workers) * float64(wall)))
			}
		}
		events.Emit(obs.EventCampaignFinished, map[string]any{
			"cipher":      e.cipher.Name(),
			"round":       round,
			"pattern":     hex.EncodeToString(pattern.Bytes()),
			"t":           out.T,
			"leaky":       out.Leaky,
			"shards":      (e.cfg.Samples + ShardSize - 1) / ShardSize,
			"duration_ms": float64(wall) / float64(time.Millisecond),
			"batch_path":  cp.BatchPath(),
			"fault_model": model.String(),
			"oracle":      e.cfg.Oracle.String(),
		})
	}
	return out, nil
}

// PatternSeed derives the campaign seed of one assessment from the engine
// base seed, the pattern bytes and the injection round (splitmix64-style
// finalization per byte). Equal inputs give equal campaigns, which makes
// oracle memoization exact; distinct rounds or patterns decorrelate.
func PatternSeed(base uint64, pattern *bitvec.Vector, round int) uint64 {
	h := splitmix(base ^ 0x9e3779b97f4a7c15)
	for _, b := range pattern.Bytes() {
		h = splitmix(h ^ uint64(b))
	}
	return splitmix(h ^ uint64(round))
}

func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
