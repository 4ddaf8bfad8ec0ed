package explore

import (
	"context"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/bitvec"
	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/prng"
	"repro/internal/rl"
	"repro/internal/rl/ppo"
)

// OracleFactory builds one oracle per parallel environment. Each call
// receives its own PRNG stream; implementations typically construct a
// keyed cipher plus a leakage assessor from it.
type OracleFactory func(rng *prng.Source) (Oracle, error)

// SessionConfig tunes a discovery session.
type SessionConfig struct {
	// NumEnvs is the number of vectorized environments (default 8).
	NumEnvs int
	// Episodes is the total episode budget across all envs
	// (default 5000, the span of Fig. 4).
	Episodes int
	// Env configures the MDP.
	Env EnvConfig
	// Agent configures PPO.
	Agent ppo.Config
	// Seed makes the whole session reproducible.
	Seed uint64
	// BootstrapSpike is the peaked-initialization strength passed to the
	// agent (default 8; see ppo.Config.BootstrapSpike). Set negative to
	// disable and use a uniform initial policy.
	BootstrapSpike float64
	// RespikeAfter re-randomizes the policy peak if this many episodes
	// pass without a single exploitable pattern (default 150; 0 keeps
	// the default, negative disables). This rescues sessions whose
	// initial peak landed on a non-exploitable bit.
	RespikeAfter int
	// Gamma is the GAE discount (default 1.0: the MDP pays only a
	// terminal reward, so undiscounted credit assignment gives every
	// step of an episode equal weight; 0.99 would scale the first
	// step's credit by 0.99^127 ≈ 0.28 for AES).
	Gamma float64
	// Lambda is the GAE smoothing parameter (default 0.95).
	Lambda float64
	// FinalRollouts is how many stochastic rollouts of the trained
	// policy are evaluated to read out the converged fault pattern
	// (default 8).
	FinalRollouts int
	// OracleCache configures memoization of oracle evaluations. The
	// cache is on by default (engine-backed oracles are pure, so
	// memoization is exact); set OracleCache.Disable for ablation runs
	// that must pay full simulation cost per episode.
	OracleCache CacheConfig
	// Checkpoint, if non-empty, is the path the session checkpoints to.
	// Snapshots are taken at every PPO update boundary and written
	// atomically every CheckpointEvery episodes, plus once when the run
	// context is cancelled, so an interrupted run resumes bit-identically
	// (see Checkpoint and Session.RestoreCheckpoint).
	Checkpoint string
	// CheckpointEvery is the minimum number of episodes between periodic
	// checkpoint writes (default DefaultCheckpointEvery; only meaningful
	// with Checkpoint set).
	CheckpointEvery int
	// CheckpointLabel is a human-readable run descriptor (cipher, round,
	// sample count, ...) folded into the checkpoint fingerprint, so a
	// checkpoint cannot be resumed under a different oracle configuration
	// that this package cannot see into.
	CheckpointLabel string
	// Progress, if non-nil, is called after every PPO update with a
	// running summary.
	Progress func(Progress)
	// Metrics, if non-nil, receives training instrumentation: episode
	// and leaky-episode counters, PPO update latencies, oracle
	// evaluation latencies split by cache hit/miss, and policy-entropy
	// and discovery-rate gauges. Instrumentation draws no randomness,
	// so training is bit-identical with metrics on or off.
	Metrics *obs.Registry
	// Events, if non-nil, receives structured run events: session
	// started/finished, one event per episode and per PPO update, and
	// one per oracle evaluation (with its cache-hit verdict).
	Events *obs.Emitter
}

func (c *SessionConfig) setDefaults() {
	if c.NumEnvs == 0 {
		c.NumEnvs = 8
	}
	if c.Episodes == 0 {
		c.Episodes = 5000
	}
	if c.FinalRollouts == 0 {
		c.FinalRollouts = 8
	}
	if c.BootstrapSpike == 0 {
		c.BootstrapSpike = 8
	}
	if c.RespikeAfter == 0 {
		c.RespikeAfter = 150
	}
	if c.Gamma == 0 {
		c.Gamma = 1.0
	}
	if c.Lambda == 0 {
		c.Lambda = 0.95
	}
}

// Progress is the periodic training summary passed to the callback.
type Progress struct {
	Episodes   int
	AvgReturn  float64 // over the last update's episodes
	AvgLeaky   float64 // fraction of leaky episodes in the last update
	AvgBits    float64 // average distinct bits in the last update
	BestLeakyN int     // best leaky pattern size so far
	Entropy    float64 // policy entropy
	// CacheHits and CacheMisses are cumulative oracle-memoization
	// counters across all envs (zero when the cache is disabled).
	CacheHits, CacheMisses uint64
}

// Outcome is the result of a discovery session.
type Outcome struct {
	// Converged is the fault pattern read out from the trained policy:
	// the largest leaky pattern among FinalRollouts stochastic rollouts
	// (falling back to the best training-log pattern if none leak).
	Converged bitvec.Vector
	// ConvergedT is its leakage statistic; ConvergedLeaky its verdict;
	// ConvergedModel the fault model it was discovered under (always
	// fault.XorFlip in single-model sessions).
	ConvergedT     float64
	ConvergedLeaky bool
	ConvergedModel fault.Model
	// Log holds every training episode for later harvesting.
	Log *Log
	// Episodes actually run; Duration the wall-clock training time.
	Episodes int
	Duration time.Duration
	// StepsPerMin and EpisodesPerMin are the training-rate figures of
	// Table II.
	StepsPerMin, EpisodesPerMin float64
	// Cache aggregates oracle-memoization counters over all envs plus
	// the final-rollout oracle (all zero when the cache is disabled).
	Cache CacheStats
}

// runCounters is the mutable per-run progress state. It lives on the
// Session (not in Run's locals) so checkpoints can capture and restore
// it.
type runCounters struct {
	episodes   int
	steps      int
	bestLeakyN int
	sinceLeaky int
	leakyTotal int
}

// Session owns the environments, agent and log of one discovery run.
type Session struct {
	cfg     SessionConfig
	envs    []rl.Env
	raw     []*Env // same envs, concrete type for LastEpisode access
	agent   *ppo.Agent
	runner  *rl.Runner
	log     *Log
	rng     *prng.Source
	envRngs []*prng.Source  // oracle streams in construction order (envs, then eval)
	evalEnv *Env            // env reserved for final-rollout evaluation
	caches  []*CachedOracle // memoizing wrappers, for stats (nil entries when disabled)
	obs     sessionObs      // instrument handles; zero value when disabled

	run       runCounters
	resumedAt int // episode count restored from a checkpoint; -1 when fresh
}

// NewSession builds a session: NumEnvs oracles/environments plus one extra
// oracle for final-pattern evaluation, and a PPO agent sized to the
// oracle's state width.
func NewSession(factory OracleFactory, cfg SessionConfig) (*Session, error) {
	cfg.setDefaults()
	root := prng.New(cfg.Seed)
	s := &Session{cfg: cfg, log: &Log{}, rng: root, resumedAt: -1}
	s.obs = newSessionObs(cfg.Metrics, cfg.Events)
	env := 0
	wrap := func(o Oracle) Oracle {
		var cache *CachedOracle
		if !cfg.OracleCache.Disable {
			cache = NewCachedOracle(o, cfg.OracleCache.Capacity)
			s.caches = append(s.caches, cache)
			o = cache
		}
		if s.obs.enabled {
			o = newInstrumentedOracle(o, cache, env, cfg.Metrics, cfg.Events)
		}
		env++
		return o
	}
	// Oracle PRNG streams are retained on the session so checkpoints can
	// capture their positions (current oracles draw their seed once at
	// construction, but the snapshot must not depend on that detail).
	splitOracleRng := func() *prng.Source {
		src := root.Split()
		s.envRngs = append(s.envRngs, src)
		return src
	}
	for i := 0; i < cfg.NumEnvs; i++ {
		oracle, err := factory(splitOracleRng())
		if err != nil {
			return nil, fmt.Errorf("explore: building oracle %d: %w", i, err)
		}
		env := NewEnv(wrap(oracle), cfg.Env)
		s.raw = append(s.raw, env)
		s.envs = append(s.envs, env)
	}
	evalOracle, err := factory(splitOracleRng())
	if err != nil {
		return nil, fmt.Errorf("explore: building eval oracle: %w", err)
	}
	s.evalEnv = NewEnv(wrap(evalOracle), cfg.Env)
	obsSize := s.raw[0].ObsSize()
	agentCfg := cfg.Agent
	if cfg.BootstrapSpike > 0 && agentCfg.BootstrapSpike == 0 {
		agentCfg.BootstrapSpike = cfg.BootstrapSpike
	}
	if agentCfg.ExplorationFloor == 0 {
		// One expected stray per episode keeps pattern growth alive
		// (see ppo.Config.ExplorationFloor). The env applied its own
		// defaults, so read the effective episode length back from it.
		agentCfg.ExplorationFloor = 1 / float64(s.raw[0].cfg.EpisodeLen)
	} else if agentCfg.ExplorationFloor < 0 {
		agentCfg.ExplorationFloor = 0
	}
	s.agent = ppo.New(obsSize, s.raw[0].NumActions(), agentCfg, root.Split())
	s.runner = rl.NewRunner(s.envs, s.agent)
	s.runner.Gamma = cfg.Gamma
	s.runner.Lambda = cfg.Lambda
	return s, nil
}

// Run trains until the episode budget is exhausted, then reads out the
// converged pattern.
//
// Cancelling ctx stops the run at the next episode-batch boundary: the
// in-flight batch is discarded (its oracle campaigns abort at their next
// shard boundary), the last update-boundary snapshot is written to
// SessionConfig.Checkpoint (when set), and ctx.Err() is returned. Because
// snapshots are only taken at update boundaries and training is
// deterministic, a session restored from that checkpoint replays the
// discarded episodes exactly and the final Outcome is bit-identical to a
// never-interrupted run. The post-training readout is not cancellable
// (it is short relative to training and keeps the outcome deterministic).
func (s *Session) Run(ctx context.Context) (*Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Session span; episode spans (started by each env at Reset) and PPO
	// update spans hang off it. Each env gets its own Perfetto lane:
	// episodes of one env are sequential but envs step concurrently, so
	// sharing a lane would interleave their slices.
	sp, ctx := trace.StartSpan(ctx, trace.SpanSession)
	defer sp.End()
	sp.SetAttr("envs", len(s.envs))
	sp.SetAttr("episode_budget", s.cfg.Episodes)
	if tr := sp.Tracer(); tr != nil {
		for i := range s.raw {
			tr.NameLane(int64(i+1), fmt.Sprintf("env-%d", i))
		}
	}
	for i, env := range s.raw {
		env.SetContext(ctx)
		env.lane = int64(i + 1)
	}
	start := time.Now()
	startEpisodes := s.run.episodes
	startSteps := s.run.steps

	ckptEnabled := s.cfg.Checkpoint != ""
	every := s.cfg.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	lastSaved := -1
	var pending *Checkpoint
	// saveCheckpoint writes the most recent boundary snapshot. pending is
	// refreshed after every PPO update, so on cancellation this persists
	// the state just before the discarded batch.
	saveCheckpoint := func() error {
		if pending == nil || pending.Episodes == lastSaved {
			return nil
		}
		if err := checkpoint.Save(s.cfg.Checkpoint, SessionCheckpointKind, pending); err != nil {
			return err
		}
		lastSaved = pending.Episodes
		if s.obs.enabled {
			s.obs.events.Emit(obs.EventCheckpointSaved, map[string]any{
				"episodes": pending.Episodes,
				"path":     s.cfg.Checkpoint,
			})
		}
		return nil
	}
	// cancelled persists the pending snapshot and reports why the run
	// stopped; a failed save outranks the cancellation (the caller must
	// know the run is not resumable).
	cancelled := func(ctxErr error) error {
		if ckptEnabled {
			if err := saveCheckpoint(); err != nil {
				return err
			}
		}
		return ctxErr
	}

	if s.obs.enabled {
		fields := map[string]any{
			"envs":       len(s.envs),
			"episodes":   s.cfg.Episodes,
			"state_bits": s.raw[0].ObsSize(),
			"seed":       s.cfg.Seed,
		}
		if s.resumedAt >= 0 {
			fields["resumed_at"] = s.resumedAt
		}
		s.obs.events.Emit(obs.EventSessionStarted, fields)
	}

	// An eager first write guarantees a loadable checkpoint exists from
	// the moment the run starts, even if it is interrupted before the
	// first update boundary.
	if ckptEnabled {
		pending = s.snapshot()
		if err := saveCheckpoint(); err != nil {
			return nil, err
		}
	}

	for s.run.episodes < s.cfg.Episodes {
		if err := ctx.Err(); err != nil {
			return nil, cancelled(err)
		}
		// One CollectEpisodes call yields NumEnvs episodes; a final
		// partial batch over an env prefix lands exactly on the budget
		// instead of overshooting it by up to NumEnvs-1.
		runner := s.runner
		if remaining := s.cfg.Episodes - s.run.episodes; remaining < len(s.envs) {
			runner = rl.NewRunner(s.envs[:remaining], s.agent)
			runner.Gamma = s.cfg.Gamma
			runner.Lambda = s.cfg.Lambda
		}
		batch, eps, err := runner.CollectEpisodes(1)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			// The batch finished structurally but its rewards may contain
			// cancellation placeholders; discard it and persist the last
			// complete boundary.
			return nil, cancelled(err)
		}
		s.run.steps += batch.Len()
		var sumRet, sumBits, leaky float64
		for i, ep := range eps {
			info := s.raw[ep.EnvIndex].LastEpisode()
			s.log.Add(info)
			sumRet += ep.Return
			sumBits += float64(info.Distinct)
			if info.Leaky {
				leaky++
				s.run.leakyTotal++
				if info.Distinct > s.run.bestLeakyN {
					s.run.bestLeakyN = info.Distinct
				}
			}
			if s.obs.enabled {
				s.obs.events.Emit(obs.EventEpisode, map[string]any{
					"episode":     s.run.episodes + i + 1,
					"env":         ep.EnvIndex,
					"pattern":     hex.EncodeToString(info.Pattern.Bytes()),
					"bits":        info.Distinct,
					"fault_model": info.Model.String(),
					"t":           info.T,
					"leaky":       info.Leaky,
					"reward":      info.Reward,
				})
			}
		}
		s.run.episodes += len(eps)
		if leaky > 0 {
			s.run.sinceLeaky = 0
		} else {
			s.run.sinceLeaky += len(eps)
			if s.cfg.RespikeAfter > 0 && s.run.sinceLeaky >= s.cfg.RespikeAfter && s.cfg.BootstrapSpike > 0 {
				s.agent.Respike(s.cfg.BootstrapSpike)
				s.run.sinceLeaky = 0
			}
		}
		usp, _ := trace.StartSpan(ctx, trace.SpanPPOUpdate)
		usp.SetAttr("episodes", s.run.episodes)
		updTimer := s.obs.updTime.Start()
		stats := s.agent.Update(batch)
		updDur := updTimer.Stop()
		usp.End()
		// The update boundary is the checkpointable state: snapshot now,
		// write periodically (and on cancellation, via cancelled above).
		if ckptEnabled {
			pending = s.snapshot()
			if s.run.episodes-lastSaved >= every {
				if err := saveCheckpoint(); err != nil {
					return nil, err
				}
			}
		}
		if s.obs.enabled {
			n := float64(len(eps))
			s.obs.episodes.Add(uint64(len(eps)))
			s.obs.leaky.Add(uint64(leaky))
			s.obs.updates.Inc()
			s.obs.entropy.Set(stats.Entropy)
			s.obs.leakyPer1K.Set(1000 * float64(s.run.leakyTotal) / float64(s.run.episodes))
			if mins := time.Since(start).Minutes(); mins > 0 {
				s.obs.epsPerMin.Set(float64(s.run.episodes-startEpisodes) / mins)
			}
			s.obs.syncCache(s.cacheStats())
			s.obs.events.Emit(obs.EventPPOUpdate, map[string]any{
				"episodes":    s.run.episodes,
				"entropy":     stats.Entropy,
				"avg_return":  sumRet / n,
				"avg_leaky":   leaky / n,
				"duration_ms": float64(updDur) / float64(time.Millisecond),
			})
		}
		if s.cfg.Progress != nil {
			n := float64(len(eps))
			cache := s.cacheStats()
			s.cfg.Progress(Progress{
				Episodes:    s.run.episodes,
				AvgReturn:   sumRet / n,
				AvgLeaky:    leaky / n,
				AvgBits:     sumBits / n,
				BestLeakyN:  s.run.bestLeakyN,
				Entropy:     stats.Entropy,
				CacheHits:   cache.Hits,
				CacheMisses: cache.Misses,
			})
		}
	}
	dur := time.Since(start)

	out := &Outcome{
		Log:      s.log,
		Episodes: s.run.episodes,
		Duration: dur,
	}
	if mins := dur.Minutes(); mins > 0 {
		out.EpisodesPerMin = float64(s.run.episodes-startEpisodes) / mins
		out.StepsPerMin = float64(s.run.steps-startSteps) / mins
	}
	s.readOutConverged(out)
	out.Cache = s.cacheStats()
	if s.obs.enabled {
		s.obs.syncCache(out.Cache)
		s.obs.events.Emit(obs.EventSessionFinished, map[string]any{
			"episodes":         out.Episodes,
			"duration_ms":      float64(out.Duration) / float64(time.Millisecond),
			"episodes_per_min": out.EpisodesPerMin,
			"steps_per_min":    out.StepsPerMin,
			"converged":        hex.EncodeToString(out.Converged.Bytes()),
			"converged_t":      out.ConvergedT,
			"converged_leaky":  out.ConvergedLeaky,
			"converged_model":  out.ConvergedModel.String(),
			"cache_hits":       out.Cache.Hits,
			"cache_misses":     out.Cache.Misses,
			"cache_evictions":  out.Cache.Evictions,
		})
	}
	return out, nil
}

// cacheStats sums the memoization counters of every wrapped oracle.
func (s *Session) cacheStats() CacheStats {
	var total CacheStats
	for _, c := range s.caches {
		total.Add(c.Stats())
	}
	return total
}

// readOutConverged evaluates FinalRollouts stochastic rollouts of the
// trained policy and keeps the leaky pattern with the most bits; if the
// policy never produces a leaky episode (it can happen with tiny budgets),
// it falls back to the best leaky pattern in the training log.
func (s *Session) readOutConverged(out *Outcome) {
	bestN := -1
	for k := 0; k < s.cfg.FinalRollouts; k++ {
		obs := s.evalEnv.Reset()
		for {
			a, _, _ := s.agent.Act(obs)
			var done bool
			obs, _, done = s.evalEnv.Step(a)
			if done {
				break
			}
		}
		info := s.evalEnv.LastEpisode()
		if info.Leaky && info.Distinct > bestN {
			bestN = info.Distinct
			out.Converged = info.Pattern
			out.ConvergedT = info.T
			out.ConvergedLeaky = true
			out.ConvergedModel = info.Model
		}
	}
	if bestN >= 0 {
		return
	}
	for _, r := range s.log.Leaky(0) {
		if r.Distinct > bestN {
			bestN = r.Distinct
			out.Converged = r.Pattern
			out.ConvergedT = r.T
			out.ConvergedLeaky = true
			out.ConvergedModel = r.Model
		}
	}
}
