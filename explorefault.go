// Package explorefault is the public API of this reproduction of
// "ExploreFault: Identifying Exploitable Fault Models in Block Ciphers
// with Reinforcement Learning" (DAC 2023).
//
// The package wires together the internal substrates — trace-level cipher
// implementations (AES-128, GIFT-64/128, PRESENT-80, SIMON, SPECK), the
// fault-simulation engine, the higher-order Welch t-test leakage oracle, a
// from-scratch PPO agent, the fault-model abstraction pipeline, the
// duplication countermeasure, and the ExpFault-style key-recovery
// verifier — behind three entry points:
//
//   - Discover runs a full RL discovery session against a cipher
//     (protected or unprotected) and returns the converged fault pattern
//     plus the abstracted, verified, symmetry-extended fault models.
//   - Assess measures the information leakage of one fault pattern
//     (the t-test oracle as a standalone tool, ALAFA-style).
//   - VerifyKeyRecovery mounts a concrete differential fault attack for a
//     discovered model (Piret–Quisquater for AES-128, nibble-wise
//     guess-and-filter for GIFT-64) and reports recovered key bits and
//     offline complexity.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package explorefault

import (
	"context"
	"fmt"
	"io"

	"repro/internal/abstraction"
	"repro/internal/bitvec"
	"repro/internal/ciphers"
	_ "repro/internal/ciphers/all" // register every cipher implementation
	"repro/internal/countermeasure"
	"repro/internal/evaluate"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/sweep"
)

// Pattern is a fault pattern: the set of cipher state bits targeted for
// injection. It aliases the internal bit-vector type; construct one with
// NewPattern, PatternFromBits or PatternFromGroups.
type Pattern = bitvec.Vector

// NewPattern returns an empty pattern for a cipher with the given state
// width in bits.
func NewPattern(stateBits int) Pattern { return bitvec.New(stateBits) }

// PatternFromBits returns a pattern with the listed state bits set.
func PatternFromBits(stateBits int, bits ...int) Pattern {
	return bitvec.FromBits(stateBits, bits...)
}

// PatternFromGroups returns a pattern covering whole groups (nibbles for
// groupBits = 4, bytes for groupBits = 8), e.g. the paper's AES diagonal
// PatternFromGroups(128, 8, 2, 7, 8, 13) or GIFT's new model
// PatternFromGroups(64, 4, 8, 9, 10, 11, 12, 14).
func PatternFromGroups(stateBits, groupBits int, groups ...int) Pattern {
	v := bitvec.New(stateBits)
	for _, g := range groups {
		for j := 0; j < groupBits; j++ {
			v.Set(g*groupBits + j)
		}
	}
	return v
}

// Model is an abstracted, verified fault model (class, covered groups,
// full bit pattern, typed injection model, offline t statistic).
type Model = abstraction.Model

// Model class re-exports.
const (
	BitModel         = abstraction.BitModel
	NibbleModel      = abstraction.NibbleModel
	MultiNibbleModel = abstraction.MultiNibbleModel
	ByteModel        = abstraction.ByteModel
	MultiByteModel   = abstraction.MultiByteModel
	DiagonalModel    = abstraction.DiagonalModel
	RawPattern       = abstraction.RawPattern
)

// FaultModel is the typed injection model applied at the faulted bits:
// how the targeted state bits are corrupted, as opposed to Pattern, which
// says where. XorFlip is the paper's bit-flip model and the default
// everywhere.
type FaultModel = fault.Model

// Typed fault-model re-exports.
const (
	// XorFlip flips every targeted bit (FlipAll) or a random nonzero
	// subset per trace (the default campaign mode) — the paper's model.
	XorFlip = fault.XorFlip
	// StuckAtZero / StuckAtOne clamp targeted bits to 0 / 1.
	StuckAtZero = fault.StuckAtZero
	StuckAtOne  = fault.StuckAtOne
	// BiasedAnd ANDs targeted bits with fresh random values (biased
	// toward 0; the classic voltage-glitch model).
	BiasedAnd = fault.BiasedAnd
	// RandomByte / RandomNibble replace every touched byte / nibble with
	// a uniform random value.
	RandomByte   = fault.RandomByte
	RandomNibble = fault.RandomNibble
)

// FaultModels lists every typed fault model, in stable order.
func FaultModels() []FaultModel { return fault.Models() }

// ParseFaultModel parses a -fault-type CLI name ("xor", "stuck-at-0",
// "stuck-at-1", "biased-and", "random-byte", "random-nibble").
func ParseFaultModel(s string) (FaultModel, error) { return fault.ParseModel(s) }

// OracleKind selects the statistical leakage oracle.
type OracleKind = fault.OracleKind

// Oracle-kind re-exports.
const (
	// OracleWelch is the paper's Welch t-test on ciphertext differentials.
	OracleWelch = fault.OracleWelch
	// OracleSIFA is the ineffective-fault oracle: it conditions on traces
	// where the injected fault did not change the ciphertext and t-tests
	// that sub-distribution of clean ciphertexts against uniform.
	OracleSIFA = fault.OracleSIFA
)

// ParseOracle parses a -oracle CLI name ("welch", "sifa").
func ParseOracle(s string) (OracleKind, error) { return fault.ParseOracle(s) }

// Ciphers lists the registered cipher names.
func Ciphers() []string { return ciphers.Names() }

// CipherInfo describes a registered cipher family.
type CipherInfo struct {
	Name       string
	BlockBytes int
	KeyBytes   int
	Rounds     int
	GroupBits  int
}

// LookupCipher returns metadata for a registered cipher.
func LookupCipher(name string) (CipherInfo, error) {
	info, err := ciphers.Lookup(name)
	if err != nil {
		return CipherInfo{}, err
	}
	return CipherInfo{
		Name:       info.Name,
		BlockBytes: info.BlockBytes,
		KeyBytes:   info.KeyBytes,
		Rounds:     info.Rounds,
		GroupBits:  info.GroupBits,
	}, nil
}

// newKeyedCipher builds a cipher instance, generating a random key from
// rng when key is nil.
func newKeyedCipher(name string, key []byte, rng *prng.Source) (ciphers.Cipher, []byte, error) {
	info, err := ciphers.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	if key == nil {
		key = make([]byte, info.KeyBytes)
		rng.Fill(key)
	}
	if len(key) != info.KeyBytes {
		return nil, nil, fmt.Errorf("explorefault: %s needs a %d-byte key, got %d",
			name, info.KeyBytes, len(key))
	}
	c, err := info.New(key)
	return c, key, err
}

// Assessment is the outcome of a standalone leakage assessment.
type Assessment struct {
	// T is the maximum |t| over observation points and orders 1..G.
	T float64
	// Leaky reports T > Threshold.
	Leaky bool
	// Threshold is the classification threshold θ used (4.5).
	Threshold float64
	// Order is the t-test order that produced T; Point describes where.
	Order int
	Point string
}

// AssessConfig tunes Assess. Zero values select paper defaults. Its JSON
// form, plus a hex key and the pattern, is an assess job's config
// document (see NewJobServer); fields tagged "-" are library-only.
type AssessConfig struct {
	// Cipher names the target: one of Ciphers() ("aes128", "gift64",
	// "gift128", "present80", "simon32", "simon64", "speck32",
	// "speck64").
	Cipher string `json:"cipher"`
	// Key is the cipher key; nil draws a random key from Seed.
	Key []byte `json:"-"`
	// Round is the fault-injection round (1-based).
	Round int `json:"round"`
	// Samples is the number of plaintexts (default 2048).
	Samples int `json:"samples,omitempty"`
	// MaxOrder is the highest t-test order G (default 2, at most 16).
	MaxOrder int `json:"max_order,omitempty"`
	// FixedOrder, if non-zero, runs only that order, 1 to 16 (Table I
	// contrasts order 1 against order 2).
	FixedOrder int `json:"fixed_order,omitempty"`
	// Threshold overrides the leakage classification threshold θ
	// (default 4.5).
	Threshold float64 `json:"threshold,omitempty"`
	// GroupBits overrides the differential grouping granularity
	// (default: the cipher's native substitution width).
	GroupBits int `json:"group_bits,omitempty"`
	// FaultModel selects the typed injection model (default XorFlip,
	// the paper's bit-flip campaign).
	FaultModel FaultModel `json:"fault_model,omitempty"`
	// Oracle selects the leakage statistic (default OracleWelch;
	// OracleSIFA conditions on ineffective faults). AssessProtected
	// supports OracleWelch only: muting already erases the
	// effective/ineffective distinction SIFA needs.
	Oracle OracleKind `json:"oracle,omitempty"`
	// Workers is the fault-campaign worker-pool size; 0 uses GOMAXPROCS.
	// Results are bit-identical for every value.
	Workers int `json:"workers,omitempty"`
	// NoBatch forces the scalar reference path even for ciphers with a
	// batch kernel (bit-identical; for equivalence tests and benchmarks).
	NoBatch bool `json:"no_batch,omitempty"`
	// Metrics, if non-nil, receives engine and campaign instrumentation
	// (counters, gauges, latency histograms; see internal/obs). Nil
	// keeps the clock- and allocation-free fast path, and results are
	// bit-identical either way.
	Metrics *obs.Registry `json:"-"`
	// Events, if non-nil, receives campaign_started/campaign_finished
	// structured run events for the assessment.
	Events *obs.Emitter `json:"-"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed,omitempty"`
}

// engine builds the keyed cipher and the oracle engine of an assessment.
func (cfg *AssessConfig) engine() (*evaluate.Engine, error) {
	rng := prng.New(cfg.Seed)
	c, _, err := newKeyedCipher(cfg.Cipher, cfg.Key, rng)
	if err != nil {
		return nil, err
	}
	return evaluate.New(c, evaluate.Config{
		Samples:   cfg.Samples,
		MaxOrder:  cfg.MaxOrder,
		GroupBits: cfg.GroupBits,
		Threshold: cfg.Threshold,
		Model:     cfg.FaultModel,
		Oracle:    cfg.Oracle,
		Workers:   cfg.Workers,
		NoBatch:   cfg.NoBatch,
		Metrics:   cfg.Metrics,
		Events:    cfg.Events,
		Seed:      rng.Split().Uint64(),
	})
}

// Assess measures the information leakage of a fault pattern: the
// standalone exploitability oracle (§III-C). It is AssessContext with a
// background context (never cancelled).
func Assess(pattern Pattern, cfg AssessConfig) (Assessment, error) {
	return AssessContext(context.Background(), pattern, cfg)
}

// AssessContext is Assess with cancellation: ctx aborts the underlying
// fault campaign at the next shard boundary and returns ctx.Err().
func AssessContext(ctx context.Context, pattern Pattern, cfg AssessConfig) (Assessment, error) {
	e, err := cfg.engine()
	if err != nil {
		return Assessment{}, err
	}
	var res evaluate.Assessment
	if cfg.FixedOrder != 0 {
		res, err = e.AssessOrder(ctx, &pattern, cfg.Round, cfg.FixedOrder)
	} else {
		res, err = e.Assess(ctx, &pattern, cfg.Round)
	}
	if err != nil {
		return Assessment{}, err
	}
	return Assessment{
		T:         res.T,
		Leaky:     res.Leaky,
		Threshold: e.Threshold(),
		Order:     res.Best.Stat.Order,
		Point:     res.Best.Point.String(),
	}, nil
}

// AssessProtected measures the information leakage of a two-branch fault
// pattern against the duplication countermeasure (§IV-C): pattern bits
// [0, T) fault branch 1 and [T, 2T) fault branch 2, and the t-test runs
// on released ciphertexts only (muted outputs are random strings).
// It is AssessProtectedContext with a background context.
func AssessProtected(pattern Pattern, cfg AssessConfig) (Assessment, error) {
	return AssessProtectedContext(context.Background(), pattern, cfg)
}

// AssessProtectedContext is AssessProtected with cancellation: ctx aborts
// the underlying fault campaign at the next shard boundary.
func AssessProtectedContext(ctx context.Context, pattern Pattern, cfg AssessConfig) (Assessment, error) {
	e, err := cfg.engine()
	if err != nil {
		return Assessment{}, err
	}
	oracle, err := countermeasure.NewOracle(e, cfg.Round)
	if err != nil {
		return Assessment{}, err
	}
	t, err := oracle.Evaluate(ctx, &pattern, cfg.FaultModel)
	if err != nil {
		return Assessment{}, err
	}
	return Assessment{
		T:         t,
		Leaky:     t > oracle.Threshold(),
		Threshold: oracle.Threshold(),
		Point:     "ciphertext",
	}, nil
}

// SweepConfig tunes an exhaustive sweep (see internal/sweep): the
// complement of Discover that enumerates the full round × position ×
// fault-model space instead of sampling it.
type SweepConfig = sweep.Config

// Atlas is a machine-readable exploitability map: one classified cell
// per enumerated (round, positions, model) triple. Atlases are pure
// functions of their SweepConfig — bit-identical across worker counts,
// batch/scalar paths and checkpoint resumes.
type Atlas = sweep.Atlas

// AtlasCell is one classified cell of an Atlas.
type AtlasCell = sweep.Cell

// CoverageReport quantifies a discovery run's sample efficiency against
// an exhaustive atlas (found/exploitable cells, episodes to first hit).
type CoverageReport = sweep.CoverageReport

// Sweep runs an exhaustive campaign over the configured fault space and
// returns the exploitability atlas. A cancelled ctx aborts at the next
// trace-block boundary; configure SweepConfig.Checkpoint to make the
// sweep resumable.
func Sweep(ctx context.Context, cfg SweepConfig) (*Atlas, error) {
	return sweep.Run(ctx, cfg)
}

// ReadAtlas loads and validates an atlas JSON document.
func ReadAtlas(path string) (*Atlas, error) { return sweep.ReadFile(path) }

// CompareAtlas replays a discovery run's JSONL event log (the -events
// output of cmd/explorefault or Discover) against an atlas; round 0
// auto-detects the injection round from the log.
func CompareAtlas(a *Atlas, round int, events io.Reader) (*CoverageReport, error) {
	return sweep.Compare(a, round, events)
}

// CacheStats re-exports the oracle-memoization counters.
type CacheStats = explore.CacheStats

// Metrics is the run-time metrics registry of internal/obs: atomic
// counters, gauges and fixed-bucket histograms with a nil-is-disabled
// zero-cost contract. Construct one with NewMetrics and read it with
// Snapshot or the debug HTTP endpoint (ServeMetrics).
type Metrics = obs.Registry

// EventEmitter writes structured JSONL run events (see internal/obs for
// the event catalogue). A nil emitter disables event output.
type EventEmitter = obs.Emitter

// MetricCounterVec / MetricGaugeVec / MetricHistogramVec re-export the
// labeled metric families of internal/obs: instruments sharing one name
// with per-label-set child series ({tenant="t1",kind="sweep"}), under
// the same nil-is-disabled contract as the plain instruments. Resolve a
// child once with With and hot paths pay one atomic op.
type (
	MetricCounterVec   = obs.CounterVec
	MetricGaugeVec     = obs.GaugeVec
	MetricHistogramVec = obs.HistogramVec
)

// MetricsSnapshot is the point-in-time export of a Metrics registry,
// including labeled families and (when enabled) runtime telemetry.
type MetricsSnapshot = obs.Snapshot

// NewMetrics returns an enabled metrics registry for
// AssessConfig/DiscoverConfig.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewEventEmitter wraps w with a JSONL run-event emitter.
func NewEventEmitter(w io.Writer) *EventEmitter { return obs.NewEmitter(w) }

// OpenEventLog creates (or truncates) a JSONL run-event file; Close the
// returned emitter to release it.
func OpenEventLog(path string) (*EventEmitter, error) { return obs.OpenEmitter(path) }

// ServeMetrics binds addr (e.g. "localhost:6060") and serves the debug
// endpoint: /metrics (JSON snapshot, or Prometheus text exposition with
// ?format=prom / an Accept: text/plain scrape), /debug/vars (expvar)
// and /debug/pprof. Labeled families render as
// metric{tenant="t1",kind="sweep"} series next to the plain samples,
// and process runtime telemetry (goroutines, heap, GC pauses) is
// sampled at scrape time. Close the returned server to stop it.
func ServeMetrics(addr string, m *Metrics) (*obs.Server, error) { return obs.Serve(addr, m) }
