package explorefault

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"
	"time"

	"repro/internal/abstraction"
	"repro/internal/bitvec"
	"repro/internal/countermeasure"
	"repro/internal/evaluate"
	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/prng"
	"repro/internal/rl/ppo"
)

// DiscoverConfig tunes a discovery session. Zero values select paper
// defaults scaled to a single-machine budget. Its JSON form, plus a hex
// key, is a discover job's config document (see NewJobServer); fields
// tagged "-" are library-only.
type DiscoverConfig struct {
	// Cipher names the target: one of Ciphers() ("aes128", "gift64",
	// "gift128", "present80", "simon32", "simon64", "speck32",
	// "speck64").
	Cipher string `json:"cipher"`
	// Key is the cipher key; nil draws a random key from Seed.
	Key []byte `json:"-"`
	// Round is the fault-injection round (1-based). The paper explores
	// the last three rounds of AES (most interesting: 8) and round 25
	// of GIFT-64.
	Round int `json:"round"`
	// Protected evaluates the duplication countermeasure of §IV-C: the
	// action space doubles (bits of both redundant branches) and the
	// t-test runs on released ciphertexts only.
	Protected bool `json:"protected,omitempty"`
	// FaultModels is the set of typed fault models the agent may choose
	// from. Empty means {XorFlip}: the paper's bit-flip encoding, with
	// the pre-zoo action space and checkpoint format. With more than one
	// entry the action space gains one model-select action per entry and
	// every discovered model records the injection type it leaks under.
	FaultModels []FaultModel `json:"fault_models,omitempty"`
	// Oracle selects the leakage statistic (default OracleWelch;
	// OracleSIFA conditions on traces where the fault was ineffective).
	// Protected discovery supports OracleWelch only.
	Oracle OracleKind `json:"oracle,omitempty"`
	// Episodes is the total training budget (default 5000, Fig. 4's
	// span; the tests and examples use far less).
	Episodes int `json:"episodes,omitempty"`
	// NumEnvs is the number of vectorized environments (default 8).
	NumEnvs int `json:"num_envs,omitempty"`
	// Samples is the t-test sample count per reward evaluation
	// (default 512 during training; offline verification always uses
	// 2048).
	Samples int `json:"samples,omitempty"`
	// Seed drives every random choice; identical configs with the same
	// seed reproduce the same run.
	Seed uint64 `json:"seed,omitempty"`
	// LinearReward selects Equation (1)'s reward n instead of e^n
	// (the Fig. 3 ablation).
	LinearReward bool `json:"linear_reward,omitempty"`
	// RewardAtEachStep evaluates the t-test at every step instead of
	// once per episode (the Table II ablation; ~T times slower).
	RewardAtEachStep bool `json:"reward_at_each_step,omitempty"`
	// EpisodeLen overrides T (0 = number of state bits, the paper's
	// choice).
	EpisodeLen int `json:"episode_len,omitempty"`
	// Agent overrides PPO hyperparameters (zero fields keep defaults:
	// lr 1e-3, 4 epochs, entropy 1e-3, bootstrap spike, exploration
	// floor 1/T).
	Agent ppo.Config `json:"-"`
	// Workers is the fault-campaign worker-pool size per oracle; 0 uses
	// GOMAXPROCS. Results are bit-identical for every value.
	Workers int `json:"workers,omitempty"`
	// NoBatch forces the scalar reference path even for ciphers with a
	// batch kernel (bit-identical; for equivalence tests and benchmarks).
	NoBatch bool `json:"no_batch,omitempty"`
	// NoOracleCache disables oracle memoization (every episode pays the
	// full simulation cost, as in the paper's timing runs).
	NoOracleCache bool `json:"no_oracle_cache,omitempty"`
	// CacheCapacity bounds the per-oracle memo table
	// (default explore.DefaultCacheCapacity).
	CacheCapacity int `json:"cache_capacity,omitempty"`
	// SkipHarvest skips the abstraction/extension pipeline (used by
	// benches that only need training-rate numbers).
	SkipHarvest bool `json:"-"`
	// Checkpoint, when non-empty, is a file path the session snapshots
	// its training state to (atomically) at PPO-update boundaries and on
	// cancellation, so an interrupted run can be resumed bit-identically.
	Checkpoint string `json:"-"`
	// CheckpointEvery is the periodic-write cadence in episodes
	// (default explore.DefaultCheckpointEvery). Snapshots only land on
	// update boundaries, so the effective cadence rounds up to a multiple
	// of NumEnvs.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Resume restores training state from Checkpoint before running. A
	// missing checkpoint file starts fresh; a checkpoint from a different
	// configuration (seed, cipher, round, ...) is an error. Episodes may
	// be raised between runs to extend a finished session.
	Resume bool `json:"-"`
	// MaxHarvest bounds how many raw log patterns are abstracted
	// (default 24).
	MaxHarvest int `json:"max_harvest,omitempty"`
	// Progress, if non-nil, receives training summaries.
	Progress func(Progress) `json:"-"`
	// Metrics, if non-nil, receives run-time instrumentation across the
	// whole stack: campaign and oracle throughput, cache hit/miss
	// latencies, episode and PPO-update rates (see internal/obs).
	// Training results are bit-identical with metrics on or off.
	Metrics *Metrics `json:"-"`
	// Events, if non-nil, receives structured JSONL run events:
	// session started/finished, per-episode and per-PPO-update records,
	// per-oracle-evaluation records with cache verdicts, and
	// model_abstracted/model_verified events from the harvest pipeline.
	Events *EventEmitter `json:"-"`
}

// Progress re-exports the session progress record.
type Progress = explore.Progress

// TrainingBucket summarizes a window of episodes (Fig. 4 / Table V view).
type TrainingBucket struct {
	StartEpisode, EndEpisode int
	LeakyEpisodes            int
	AvgBitsSelected          float64
	MaxLeakyBits             int
	// SingleBitModels counts leaky episodes whose pattern is one bit;
	// MultiBitModels those with two or more; DiagonalContained the
	// multi-bit ones confined to a single AES diagonal (zero for other
	// ciphers). These feed Fig. 4's per-window model census.
	SingleBitModels   int
	MultiBitModels    int
	DiagonalContained int
}

// PatternFrequency counts how often a leaky pattern appeared in training.
// Identical patterns under different fault models count separately.
type PatternFrequency struct {
	Pattern Pattern
	Model   FaultModel
	Count   int
}

// DiscoveryResult is the outcome of Discover.
type DiscoveryResult struct {
	// Converged is the fault pattern read out from the trained policy,
	// with its leakage statistic and the fault model it was discovered
	// under (always XorFlip in single-model sessions).
	Converged      Pattern
	ConvergedT     float64
	ConvergedLeaky bool
	ConvergedModel FaultModel
	// Models are the abstracted, offline-verified fault models harvested
	// from the converged policy and the training log, extended across
	// the cipher's structural symmetries and deduplicated (§III-F).
	Models []Model
	// Buckets summarizes training in windows of 1000 episodes (Fig. 4).
	Buckets []TrainingBucket
	// FirstWindowPatterns are the distinct leaky patterns of the first
	// 1000 episodes with frequencies (Table V).
	FirstWindowPatterns []PatternFrequency
	// Episodes, Duration, EpisodesPerMin and StepsPerMin are the
	// training-rate figures (Table II, Table IV).
	Episodes       int
	Duration       time.Duration
	EpisodesPerMin float64
	StepsPerMin    float64
	// Cache aggregates oracle-memoization counters across all envs
	// (all zero when NoOracleCache is set).
	Cache CacheStats
	// Key is the cipher key used (relevant when it was drawn randomly).
	Key []byte
}

// Discover runs an RL fault-model discovery session: train PPO on the
// bit-selection MDP, read out the converged pattern, and harvest verified
// fault models (§III). It is the paper's headline entry point, and is
// DiscoverContext with a background context (never cancelled).
func Discover(cfg DiscoverConfig) (*DiscoveryResult, error) {
	return DiscoverContext(context.Background(), cfg)
}

// DiscoverContext is Discover with cancellation. When ctx is cancelled the
// session stops at the next episode-batch boundary (never mid-trace, so
// PRNG streams stay intact), writes a final checkpoint when
// cfg.Checkpoint is set, and returns ctx.Err().
func DiscoverContext(ctx context.Context, cfg DiscoverConfig) (*DiscoveryResult, error) {
	if cfg.Round == 0 {
		return nil, fmt.Errorf("explorefault: DiscoverConfig.Round is required")
	}
	if cfg.Samples == 0 {
		cfg.Samples = 512
	}
	if cfg.MaxHarvest == 0 {
		cfg.MaxHarvest = 24
	}
	for _, c := range []struct {
		name  string
		value int
	}{
		{"Episodes", cfg.Episodes},
		{"NumEnvs", cfg.NumEnvs},
		{"EpisodeLen", cfg.EpisodeLen},
		{"MaxHarvest", cfg.MaxHarvest},
	} {
		if c.value < 0 {
			return nil, fmt.Errorf("explorefault: %s %d out of range (want 0 for the default, or more)", c.name, c.value)
		}
	}
	if cfg.Agent.MinibatchSize < 0 {
		return nil, fmt.Errorf("explorefault: Agent.MinibatchSize %d out of range (want 0 for the default, or more)", cfg.Agent.MinibatchSize)
	}
	if cfg.Agent.Epochs < 0 {
		return nil, fmt.Errorf("explorefault: Agent.Epochs %d out of range (want 0 for the default, or more)", cfg.Agent.Epochs)
	}
	for i, h := range cfg.Agent.Hidden {
		if h < 1 {
			return nil, fmt.Errorf("explorefault: Agent.Hidden[%d] = %d out of range (want 1 or more units)", i, h)
		}
	}
	info, err := LookupCipher(cfg.Cipher)
	if err != nil {
		return nil, err
	}
	if cfg.Round < 1 || cfg.Round > info.Rounds {
		return nil, fmt.Errorf("explorefault: round %d out of range 1..%d for %s",
			cfg.Round, info.Rounds, cfg.Cipher)
	}

	// Fix the key up front so that all envs attack the same instance.
	keyRng := prng.New(cfg.Seed ^ 0x5eed)
	_, key, err := newKeyedCipher(cfg.Cipher, cfg.Key, keyRng)
	if err != nil {
		return nil, err
	}

	agentCfg := cfg.Agent
	if agentCfg.LearningRate == 0 {
		agentCfg.LearningRate = 1e-3
	}
	if agentCfg.Epochs == 0 {
		agentCfg.Epochs = 4
	}
	if agentCfg.EntropyCoef == 0 {
		agentCfg.EntropyCoef = 1e-3
	}
	envCfg := explore.EnvConfig{EpisodeLen: cfg.EpisodeLen, Models: cfg.FaultModels}
	if cfg.LinearReward {
		envCfg.Shape = explore.Linear
	}
	if cfg.RewardAtEachStep {
		envCfg.Timing = explore.EachStep
	}
	// The checkpoint label folds the oracle-side configuration (cipher,
	// round, key, samples, protection, fault models, oracle kind) into
	// the session fingerprint — the explore package cannot see those, but
	// they determine every reward, so a resume across them must be
	// refused. Workers, NoBatch and cache settings are excluded: results
	// are bit-identical across them by construction.
	label := fmt.Sprintf("%s|r%d|p=%v|s=%d|m=%s|o=%s|key=%x",
		cfg.Cipher, cfg.Round, cfg.Protected, cfg.Samples,
		faultModelsLabel(cfg.FaultModels), cfg.Oracle, key)
	sess, err := explore.NewSession(cfg.oracleFactory(key, cfg.Samples), explore.SessionConfig{
		NumEnvs:  cfg.NumEnvs,
		Episodes: cfg.Episodes,
		Env:      envCfg,
		Agent:    agentCfg,
		Seed:     cfg.Seed,
		OracleCache: explore.CacheConfig{
			Disable:  cfg.NoOracleCache,
			Capacity: cfg.CacheCapacity,
		},
		Progress:        cfg.Progress,
		Metrics:         cfg.Metrics,
		Events:          cfg.Events,
		Checkpoint:      cfg.Checkpoint,
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointLabel: label,
	})
	if err != nil {
		return nil, err
	}
	if cfg.Resume && cfg.Checkpoint != "" {
		ck, err := explore.LoadCheckpoint(cfg.Checkpoint)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Nothing to resume from yet: start fresh.
		case err != nil:
			return nil, fmt.Errorf("explorefault: resume: %w", err)
		default:
			if err := sess.RestoreCheckpoint(ck); err != nil {
				return nil, fmt.Errorf("explorefault: resume: %w", err)
			}
		}
	}
	trainSpan, trainCtx := trace.StartSpan(ctx, trace.SpanTrain)
	out, err := sess.Run(trainCtx)
	trainSpan.End()
	if err != nil {
		return nil, err
	}

	res := &DiscoveryResult{
		Converged:      out.Converged,
		ConvergedT:     out.ConvergedT,
		ConvergedLeaky: out.ConvergedLeaky,
		ConvergedModel: out.ConvergedModel,
		Episodes:       out.Episodes,
		Duration:       out.Duration,
		EpisodesPerMin: out.EpisodesPerMin,
		StepsPerMin:    out.StepsPerMin,
		Cache:          out.Cache,
		Key:            key,
	}
	isAES := cfg.Cipher == "aes128"
	records := out.Log.Records()
	for _, b := range out.Log.Buckets(1000) {
		tb := TrainingBucket{
			StartEpisode:    b.Start,
			EndEpisode:      b.End,
			LeakyEpisodes:   b.LeakyCount,
			AvgBitsSelected: b.AvgDistinct,
			MaxLeakyBits:    b.MaxDistinct,
		}
		for _, r := range records[b.Start:b.End] {
			if !r.Leaky {
				continue
			}
			if r.Distinct == 1 {
				tb.SingleBitModels++
				continue
			}
			tb.MultiBitModels++
			if isAES && diagonalContained(r.Pattern) {
				tb.DiagonalContained++
			}
		}
		res.Buckets = append(res.Buckets, tb)
	}
	for _, pc := range out.Log.PatternCounts(1000) {
		res.FirstWindowPatterns = append(res.FirstWindowPatterns, PatternFrequency{
			Pattern: pc.Pattern, Model: pc.Model, Count: pc.Count,
		})
	}
	if cfg.SkipHarvest || cfg.Protected {
		// Protected mode's doubled patterns have no byte/nibble
		// abstraction; the converged per-branch bits are the result.
		return res, nil
	}

	harvestSpan, harvestCtx := trace.StartSpan(ctx, trace.SpanHarvest)
	res.Models, err = harvestModels(harvestCtx, cfg, key, out)
	harvestSpan.SetAttr("models", len(res.Models))
	harvestSpan.End()
	return res, err
}

// oracleFactory builds the session's oracles with the given per-evaluation
// sample count: Discover's reward oracles and its harvest verifier. Each
// oracle gets its own keyed cipher and an engine seeded from rng; the
// protected target wraps the engine in the countermeasure oracle. The
// fault model is not bound here: the explore layer passes one per
// Evaluate call (the agent chooses it).
func (cfg *DiscoverConfig) oracleFactory(key []byte, samples int) explore.OracleFactory {
	return func(rng *prng.Source) (explore.Oracle, error) {
		c, _, err := newKeyedCipher(cfg.Cipher, key, rng)
		if err != nil {
			return nil, err
		}
		e, err := evaluate.New(c, evaluate.Config{
			Samples:         samples,
			StopAtThreshold: true,
			Oracle:          cfg.Oracle,
			Workers:         cfg.Workers,
			NoBatch:         cfg.NoBatch,
			Metrics:         cfg.Metrics,
			Seed:            rng.Split().Uint64(),
		})
		if err != nil {
			return nil, err
		}
		if cfg.Protected {
			return countermeasure.NewOracle(e, cfg.Round)
		}
		return &explore.AssessorOracle{Engine: e, Round: cfg.Round}, nil
	}
}

// diagonalContained reports whether the bytes touched by a 128-bit
// pattern all lie on one AES diagonal (and there are at least two bits).
func diagonalContained(p Pattern) bool {
	bytes := p.Groups(8)
	if p.Count() < 2 {
		return false
	}
	diag := func(b int) int { return ((b%4-b/4)%4 + 4) % 4 }
	d := diag(bytes[0])
	for _, b := range bytes[1:] {
		if diag(b) != d {
			return false
		}
	}
	return true
}

// faultModelsLabel renders a fault-model set for checkpoint labels
// (empty = the XorFlip default).
func faultModelsLabel(models []FaultModel) string {
	if len(models) == 0 {
		return XorFlip.String()
	}
	parts := make([]string, len(models))
	for i, m := range models {
		parts[i] = m.String()
	}
	return strings.Join(parts, "+")
}

// modelVerifier binds one typed fault model to an explore.Oracle,
// adapting it to abstraction.Verifier (whose Evaluate carries no model
// argument: a harvest pass verifies patterns under a single injection
// model).
type modelVerifier struct {
	oracle explore.Oracle
	model  FaultModel
}

func (v modelVerifier) Evaluate(ctx context.Context, p *bitvec.Vector) (float64, error) {
	return v.oracle.Evaluate(ctx, p, v.model)
}

func (v modelVerifier) Threshold() float64 { return v.oracle.Threshold() }

func (v modelVerifier) StateBits() int { return v.oracle.StateBits() }

// harvestModels runs the §III-F pipeline on the session outcome: collect
// candidate raw patterns (converged + the most frequent and largest leaky
// training patterns), abstract to group granularity with a high-sample
// offline verifier, extend by structural symmetry, deduplicate. In
// multi-model sessions candidates are grouped by the fault model of the
// episode that produced them and each group is verified under its own
// model; a single-model run reproduces the historical pipeline exactly.
func harvestModels(ctx context.Context, cfg DiscoverConfig, key []byte, out *explore.Outcome) ([]Model, error) {
	verifier, err := cfg.oracleFactory(key, 2048)(prng.New(cfg.Seed ^ 0xfeed))
	if err != nil {
		return nil, err
	}
	info, err := LookupCipher(cfg.Cipher)
	if err != nil {
		return nil, err
	}

	faultModels := cfg.FaultModels
	if len(faultModels) == 0 {
		faultModels = []FaultModel{XorFlip}
	}
	var models []Model
	for _, fm := range faultModels {
		candidates := harvestCandidates(fm, cfg.MaxHarvest, out)
		if len(candidates) == 0 {
			continue
		}
		for _, p := range candidates {
			cfg.Events.Emit(obs.EventModelAbstracted, map[string]any{
				"pattern":     hex.EncodeToString(p.Bytes()),
				"bits":        p.Count(),
				"fault_model": fm.String(),
			})
		}
		ms, err := abstraction.Harvest(ctx, modelVerifier{oracle: verifier, model: fm}, candidates, abstraction.HarvestConfig{
			MaxPatterns:    cfg.MaxHarvest,
			ExtendSymmetry: true,
			IsAES:          cfg.Cipher == "aes128",
			GroupBits:      info.GroupBits,
		})
		if err != nil {
			return nil, err
		}
		for i := range ms {
			ms[i].Fault = fm
		}
		models = append(models, ms...)
	}
	for _, m := range models {
		cfg.Events.Emit(obs.EventModelVerified, map[string]any{
			"model":       m.String(),
			"pattern":     hex.EncodeToString(m.Pattern.Bytes()),
			"fault_model": m.Fault.String(),
			"t":           m.T,
		})
	}
	sort.SliceStable(models, func(i, j int) bool {
		if models[i].Class != models[j].Class {
			return models[i].Class < models[j].Class
		}
		return models[i].Pattern.Count() > models[j].Pattern.Count()
	})
	return models, nil
}

// harvestCandidates selects the raw patterns to abstract for one fault
// model: the converged pattern (when it was discovered under fm), the
// most frequent leaky patterns, the largest ones (they carry the
// multi-group structure the frequent small ones miss), and the smallest
// multi-bit ones, whose widenings yield the single-nibble/byte models of
// Table III.
func harvestCandidates(fm FaultModel, maxHarvest int, out *explore.Outcome) []bitvec.Vector {
	var candidates []bitvec.Vector
	seen := map[string]bool{}
	add := func(p bitvec.Vector) {
		if k := p.String(); !seen[k] {
			seen[k] = true
			candidates = append(candidates, p)
		}
	}
	if out.ConvergedLeaky && out.ConvergedModel == fm {
		add(out.Converged)
	}
	taken := 0
	for _, pc := range out.Log.PatternCounts(0) {
		if pc.Model != fm {
			continue
		}
		if taken >= maxHarvest/3 {
			break
		}
		add(pc.Pattern)
		taken++
	}
	var leaky []explore.Record
	for _, r := range out.Log.Leaky(0) {
		if r.Model == fm {
			leaky = append(leaky, r)
		}
	}
	sort.Slice(leaky, func(i, j int) bool { return leaky[i].Distinct > leaky[j].Distinct })
	for i := 0; i < len(leaky) && i < maxHarvest/3; i++ {
		add(leaky[i].Pattern)
	}
	sort.Slice(leaky, func(i, j int) bool { return leaky[i].Distinct < leaky[j].Distinct })
	small := 0
	for _, r := range leaky {
		if r.Distinct < 2 {
			continue
		}
		add(r.Pattern)
		small++
		if small >= maxHarvest/3 {
			break
		}
	}
	return candidates
}
