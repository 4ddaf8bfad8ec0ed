package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	explorefault "repro"
	"repro/internal/obs/trace"
)

// The discover-aes128 workload: the paper's headline path, a seeded RL
// discovery of AES-128 round 8 at the paper defaults (8 envs, 512
// samples per reward, oracle cache on), training plus harvest.
const (
	discoverCipher = "aes128"
	discoverRound  = 8
	// discoverEpisodes is the episode budget of one timed call: eight PPO
	// updates, enough to converge on a leaky pattern, short enough that a
	// run measures several calls.
	discoverEpisodes = 64
	// discoverWarmupEpisodes is one PPO update plus harvest, run in set-up
	// so lazy tables and the heap are in place before timing.
	discoverWarmupEpisodes = 8
)

func discoverConfig(seed uint64, episodes int) explorefault.DiscoverConfig {
	return explorefault.DiscoverConfig{
		Cipher:   discoverCipher,
		Round:    discoverRound,
		Episodes: episodes,
		NumEnvs:  8,
		Samples:  512,
		Seed:     seed,
	}
}

// Pinned fingerprints of the default seed's discovery.
const (
	pinnedTraining = "80ca400426601f2dcf8d23b6e81b080d0f1156ca562dac4b52233306a08a6e43"
	pinnedModels   = "100871628626d5b7a4ace8175cfb9c7232270fc4d6ec303ecbd676d6b54a8ed4"
)

// trainingFingerprint hashes what training decided: the converged pattern,
// its verdict, fault model and exact t value.
func trainingFingerprint(res *explorefault.DiscoveryResult) string {
	return hash(fmt.Sprintf("converged %v leaky=%v model=%s t=%x", res.Converged.Bits(),
		res.ConvergedLeaky, res.ConvergedModel, math.Float64bits(res.ConvergedT)))
}

// modelsFingerprint hashes the set of verified models with their exact t
// values, in sorted order.
func modelsFingerprint(res *explorefault.DiscoveryResult) string {
	var models []string
	for _, m := range res.Models {
		models = append(models, fmt.Sprintf("model %s fault=%s bits=%v t=%x\n",
			m.Class, m.Fault, m.Pattern.Bits(), math.Float64bits(m.T)))
	}
	sort.Strings(models)
	return hash(strings.Join(models, ""))
}

func hash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// discoverCall is one timed DiscoverContext call.
type discoverCall struct {
	res      *explorefault.DiscoveryResult
	wall     float64 // call start to verified models
	training float64 // call start to the last Progress callback
	cpu      float64 // process CPU seconds during the call
}

func callDiscover(ctx context.Context, cfg explorefault.DiscoverConfig) (discoverCall, error) {
	var last time.Time
	cfg.Progress = func(explorefault.Progress) { last = time.Now() }
	start, cpu := time.Now(), cpuSeconds()
	res, err := explorefault.DiscoverContext(ctx, cfg)
	call := discoverCall{res: res, wall: time.Since(start).Seconds(), training: last.Sub(start).Seconds(),
		cpu: cpuSeconds() - cpu}
	return call, err
}

func runDiscover(opt options) (*result, error) {
	ctx := context.Background()
	var clock setupClock
	for i := 0; i < setupRounds; i++ {
		err := clock.run(func() error {
			_, err := explorefault.DiscoverContext(ctx, discoverConfig(defaultSeed, discoverWarmupEpisodes))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("discover warm-up: %w", err)
		}
	}

	res := &result{correct: true}
	var walls, rates, cpus []float64
	var layers []map[string]float64
	var baseWall float64
	// The counted gate covers training. The verified model set is not
	// deterministic at this commit — abstraction iterates AES diagonals in
	// map order and keeps the first of equal models — so a differing set
	// is reported as a note and not counted.
	first, firstModels := "", ""
	check := func(call discoverCall, err error) bool {
		res.attempted++
		if err != nil {
			res.failed++
			res.notes = append(res.notes, "discover failed: "+err.Error())
			return false
		}
		fp, models := trainingFingerprint(call.res), modelsFingerprint(call.res)
		if first == "" {
			res.notes = append(res.notes, "training fingerprint "+fp, "verified-models fingerprint "+models)
			if opt.seed == defaultSeed && models != pinnedModels {
				res.notes = append(res.notes, "verified models differ from the pinned set "+pinnedModels)
			}
			firstModels = models
		} else if models != firstModels && firstModels != "" {
			res.notes = append(res.notes, "verified models differ between calls: "+models)
			firstModels = ""
		}
		switch {
		case !call.res.ConvergedLeaky:
			res.notes = append(res.notes, "converged pattern is not leaky")
		case first != "" && fp != first:
			res.notes = append(res.notes, "training fingerprint differs between calls: "+fp)
		case opt.seed == defaultSeed && fp != pinnedTraining:
			res.notes = append(res.notes, "training fingerprint differs from the pinned "+pinnedTraining)
		default:
			first = fp
			return true
		}
		res.failed++
		res.correct = false
		return false
	}

	if opt.trace {
		// One untraced call is the base of the tracing-overhead ratio.
		call, err := callDiscover(ctx, discoverConfig(opt.seed, discoverEpisodes))
		if check(call, err) {
			baseWall = call.wall
		}
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for res.attempted == 0 || time.Now().Before(deadline) {
		tr, root, cctx := startTrace(ctx, opt.trace)
		call, err := callDiscover(cctx, discoverConfig(opt.seed, discoverEpisodes))
		root.End()
		if !check(call, err) {
			if err != nil {
				break
			}
			continue
		}
		walls = append(walls, call.wall)
		rates = append(rates, float64(call.res.Episodes)/call.training)
		cpus = append(cpus, call.cpu)
		if opt.trace {
			ss, err := readSpans(tr)
			if err != nil {
				return nil, err
			}
			layers = append(layers, discoverLayers(ss, call))
		}
	}

	res.endToEnd = endToEnd(&clock, median(cpus))
	res.named = []namedValue{
		{"discover.wall_s", "s", median(walls)},
		{"discover.episodes_per_s", "1/s", median(rates)},
		{"discover.calls", "count", float64(len(walls))},
	}
	if opt.trace {
		lm := medianLayers(layers)
		lm["obs.trace_overhead_ratio"] = median(walls)/baseWall - 1
		if err := replayDiscover(opt.seed, lm, res); err != nil {
			return nil, err
		}
		res.layers = layerMetrics(lm)
	}
	return res, nil
}

// discoverLayers attributes one traced discovery call to layers.
func discoverLayers(ss *spanSet, call discoverCall) map[string]float64 {
	train := ss.busy(trace.SpanTrain)
	harvest := ss.busy(trace.SpanHarvest)
	updates := ss.named(trace.SpanPPOUpdate)
	cache := call.res.Cache
	m := map[string]float64{
		"ppo.update_s":               ss.selfTime(trace.SpanPPOUpdate),
		"ppo.updates":                float64(len(updates)),
		"explore.rollout_s":          train - ss.covered(trace.SpanPPOUpdate),
		"explore.oracle_wall_s":      ss.covered(trace.SpanOracleEval),
		"explore.oracle_calls":       float64(len(ss.named(trace.SpanOracleEval))),
		"evaluate.assess_busy_s":     ss.busy(trace.SpanAssess),
		"fault.collect_busy_s":       ss.busy(trace.SpanCollect),
		"abstraction.harvest_s":      harvest,
		"fault.collect_ns_per_trace": nsPerTrace(ss),
		"unattributed_ratio":         (call.wall - train - harvest) / call.wall,
	}
	if n := cache.Hits + cache.Misses; n > 0 {
		m["explore.cache_hit_ratio"] = float64(cache.Hits) / float64(n)
	}
	return m
}

// nsPerTrace is the in-situ collection cost: summed collect spans over
// the traces they collected.
func nsPerTrace(ss *spanSet) float64 {
	traces := ss.attrSum(trace.SpanCollect, "samples")
	if traces == 0 {
		return 0
	}
	return ss.busy(trace.SpanCollect) / traces * 1e9
}

// medianLayers takes, for every layer metric, the median over calls.
func medianLayers(calls []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, c := range calls {
		for k, v := range c {
			vals[k] = append(vals[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// replayDiscover runs the campaign replay on AES-128 round 8 and the PPO
// replay on discovery's agent shape, and checks both against the spans.
func replayDiscover(seed uint64, lm map[string]float64, res *result) error {
	diagonal := explorefault.PatternFromGroups(128, 8, 0, 5, 10, 15)
	cr, err := replayCampaign(discoverCipher, diagonal, []int{discoverRound}, seed)
	if err != nil {
		return err
	}
	cr.record(lm, res)
	lm["ppo.act_us"], lm["ppo.update_replay_s"] = replayPPO(128, 8, seed)
	if n := lm["ppo.updates"]; n > 0 {
		agree(res, "PPO update replay (s per update)", lm["ppo.update_replay_s"], lm["ppo.update_s"]/n)
	}
	if train := lm["ppo.update_s"] + lm["explore.rollout_s"]; train > 0 {
		res.notes = append(res.notes, fmt.Sprintf("training shares: ppo_update %.1f%%, rollout %.1f%% (of %.3g s)",
			100*lm["ppo.update_s"]/train, 100*lm["explore.rollout_s"]/train, train))
	}
	return nil
}
