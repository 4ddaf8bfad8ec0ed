package explorefault

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sweep"
)

// JobServer is the campaign job server behind cmd/explorefaultd: an
// HTTP/JSON API that schedules discovery, assessment and sweep jobs
// across a worker pool, persists job state through the checkpoint store
// so a daemon restart resumes in-flight jobs bit-identically, and
// streams per-job run events over SSE. See internal/server for the
// scheduler and README's "Serving campaigns" for the API.
type JobServer = server.Server

// JobSpec is the POST /jobs request body: job type, tenant, optional
// sweep shard range, and the engine configuration document.
type JobSpec = server.Spec

// JobRecord is one submitted job's durable record.
type JobRecord = server.Job

// JobState is a job's lifecycle state (queued, running, done, failed,
// cancelled).
type JobState = server.State

// JobUsage is one job's resource accounting (wall/CPU/queue seconds,
// work counters, peak heap delta), accumulated across attempts and
// exposed on the job record, in GET /stats aggregates and in the
// per-attempt job_usage event.
type JobUsage = server.Usage

// FleetStats is the GET /stats response: per-tenant job counts, state
// breakdowns and usage aggregates, plus fleet-wide totals.
type FleetStats = server.Stats

// TenantStats is one tenant's slice of FleetStats.
type TenantStats = server.TenantStats

// JobServerConfig tunes NewJobServer. Zero values select defaults
// (2 workers, per-tenant quota = worker count).
type JobServerConfig struct {
	// DataDir is the daemon state directory (job table, per-job engine
	// checkpoints, event logs and output artifacts). Required.
	DataDir string
	// Workers is the job worker-pool size.
	Workers int
	// TenantQuota bounds concurrently running jobs per tenant.
	TenantQuota int
	// Metrics/Events receive scheduler instrumentation and job
	// lifecycle events; nil disables.
	Metrics *Metrics
	Events  *EventEmitter
}

// NewJobServer builds a job server wired to the real engines: discover
// jobs run DiscoverContext, assess jobs AssessContext (or
// AssessProtectedContext), sweep jobs the exhaustive sweep engine.
// Close the returned server to stop it; restarting one on the same
// DataDir resumes interrupted jobs from their engine checkpoints.
//
// With Metrics set, the server's /metrics endpoint serves the composed
// fleet view: scheduler instruments plus every job's own metrics folded
// under tenant/kind/cipher/fault_model labels, so per-tenant labeled
// series sum to the unlabeled totals. Per-job cost (JobUsage) appears
// on GET /jobs/{id}, aggregated per tenant on GET /stats, and as a
// job_usage event in each job's log for offline fleet reports
// (obsreport -fleet).
func NewJobServer(cfg JobServerConfig) (*JobServer, error) {
	return server.New(server.Config{
		DataDir:     cfg.DataDir,
		Workers:     cfg.Workers,
		TenantQuota: cfg.TenantQuota,
		Runner:      jobRunner{},
		Metrics:     cfg.Metrics,
		Events:      cfg.Events,
	})
}

// MergeAtlases reassembles the partial atlases of shard-ranged sweep
// jobs (JobSpec.ShardRange) into the full document. The merge is exact:
// the parts must tile the full shard range of one configuration, and
// the result is byte-identical to a single-process sweep of the same
// config.
func MergeAtlases(parts ...*Atlas) (*Atlas, error) { return sweep.Merge(parts...) }

// hexKey is the cipher key of a job document, in hex; empty draws the key
// from the seed, as a nil key does in the library configs.
type hexKey []byte

func (k *hexKey) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*k = nil
		return nil
	}
	key, err := hex.DecodeString(string(text))
	if err != nil {
		return fmt.Errorf("bad key hex: %v", err)
	}
	*k = key
	return nil
}

// discoverJob is the config document of a "discover" job: the JSON form
// of DiscoverConfig with a hex key. Checkpointing and resume are managed
// by the server.
type discoverJob struct {
	DiscoverConfig
	Key hexKey `json:"key,omitempty"`
}

// assessJob is the config document of an "assess" job: the JSON form of
// AssessConfig with a hex key, the target, and the pattern, given as
// explicit bit indices or group indices (nibbles/bytes at the cipher's
// native width), exactly like the -bits / -groups CLI flags.
type assessJob struct {
	AssessConfig
	Key       hexKey `json:"key,omitempty"`
	Bits      []int  `json:"bits,omitempty"`
	Groups    []int  `json:"groups,omitempty"`
	Protected bool   `json:"protected,omitempty"`
}

// sweepJob is the config document of a "sweep" job: the JSON form of
// SweepConfig with a hex key. The shard range comes from
// JobSpec.ShardRange, not the config, so fan-out across daemons is a
// spec-level change.
type sweepJob struct {
	SweepConfig
	Key hexKey `json:"key,omitempty"`
}

// jobRunner adapts the engines to the scheduler's Runner interface.
type jobRunner struct{}

// job is a decoded config document that can run.
type job interface {
	run(ctx context.Context, files server.Files, metrics *obs.Registry, events *obs.Emitter) (json.RawMessage, error)
}

// decodeStrict decodes a config document rejecting unknown fields, so a
// typo in a job spec is a 400 at submission, not a silently-default run.
func decodeStrict(raw json.RawMessage, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkRound reports whether round is an injection round of the cipher.
func checkRound(cipher string, round int) error {
	info, err := LookupCipher(cipher)
	if err != nil {
		return err
	}
	if round < 1 || round > info.Rounds {
		return fmt.Errorf("round %d out of range 1..%d for %s", round, info.Rounds, cipher)
	}
	return nil
}

// decodeJob decodes and sanity-checks a job spec's config document.
func decodeJob(spec JobSpec) (job, error) {
	switch spec.Type {
	case server.TypeDiscover:
		d := &discoverJob{}
		if err := decodeStrict(spec.Config, d); err != nil {
			return nil, err
		}
		return d, checkRound(d.Cipher, d.Round)
	case server.TypeAssess:
		a := &assessJob{}
		if err := decodeStrict(spec.Config, a); err != nil {
			return nil, err
		}
		if err := checkRound(a.Cipher, a.Round); err != nil {
			return nil, err
		}
		if len(a.Bits) == 0 && len(a.Groups) == 0 {
			return nil, fmt.Errorf("assess job needs bits or groups")
		}
		return a, nil
	case server.TypeSweep:
		s := &sweepJob{}
		if err := decodeStrict(spec.Config, s); err != nil {
			return nil, err
		}
		s.ShardLo, s.ShardHi = spec.ShardRange[0], spec.ShardRange[1]
		_, err := LookupCipher(s.Cipher)
		return s, err
	}
	return nil, fmt.Errorf("unknown job type %q", spec.Type)
}

// Validate decodes and sanity-checks a job spec without running anything.
func (jobRunner) Validate(spec JobSpec) error {
	_, err := decodeJob(spec)
	return err
}

// Run executes a job. Every result document is deterministic — a pure
// function of the spec — and deliberately excludes wall-clock figures,
// so an interrupted-and-resumed job finishes with bytes identical to an
// uninterrupted run.
func (jobRunner) Run(ctx context.Context, spec JobSpec, files server.Files, metrics *obs.Registry, events *obs.Emitter) (json.RawMessage, error) {
	j, err := decodeJob(spec)
	if err != nil {
		return nil, err
	}
	return j.run(ctx, files, metrics, events)
}

func (d *discoverJob) run(ctx context.Context, files server.Files, metrics *obs.Registry, events *obs.Emitter) (json.RawMessage, error) {
	cfg := d.DiscoverConfig
	cfg.Key = d.Key
	cfg.Checkpoint = files.Checkpoint
	cfg.Resume = true // missing checkpoint starts fresh; present resumes
	cfg.Metrics, cfg.Events = metrics, events
	res, err := DiscoverContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	type modelDoc struct {
		Class     string     `json:"class"`
		Groups    []int      `json:"groups,omitempty"`
		GroupBits int        `json:"group_bits,omitempty"`
		Fault     FaultModel `json:"fault"`
		Bits      []int      `json:"bits"`
		T         float64    `json:"t"`
	}
	models := make([]modelDoc, 0, len(res.Models))
	for _, m := range res.Models {
		models = append(models, modelDoc{
			Class:     m.Class.String(),
			Groups:    m.Groups,
			GroupBits: m.GroupBits,
			Fault:     m.Fault,
			Bits:      m.Pattern.Bits(),
			T:         m.T,
		})
	}
	// Training-rate figures (duration, episodes/min) are intentionally
	// absent: they are wall-clock, and the result must be bit-identical
	// across daemon restarts.
	return json.Marshal(map[string]any{
		"cipher":   cfg.Cipher,
		"round":    cfg.Round,
		"bits":     res.Converged.Bits(),
		"t":        res.ConvergedT,
		"leaky":    res.ConvergedLeaky,
		"fault":    res.ConvergedModel,
		"episodes": res.Episodes,
		"models":   models,
	})
}

// pattern builds the job's fault pattern over stateBits: from bit indices,
// or else from groups of groupBits bits.
func (a *assessJob) pattern(stateBits, groupBits int) (Pattern, error) {
	if len(a.Bits) > 0 {
		for _, b := range a.Bits {
			if b < 0 || b >= stateBits {
				return Pattern{}, fmt.Errorf("bit %d out of range 0..%d", b, stateBits-1)
			}
		}
		return PatternFromBits(stateBits, a.Bits...), nil
	}
	groups := stateBits / groupBits
	for _, g := range a.Groups {
		if g < 0 || g >= groups {
			return Pattern{}, fmt.Errorf("group %d out of range 0..%d", g, groups-1)
		}
	}
	return PatternFromGroups(stateBits, groupBits, a.Groups...), nil
}

func (a *assessJob) run(ctx context.Context, _ server.Files, metrics *obs.Registry, events *obs.Emitter) (json.RawMessage, error) {
	info, err := LookupCipher(a.Cipher)
	if err != nil {
		return nil, err
	}
	stateBits := info.BlockBytes * 8
	assess := AssessContext
	if a.Protected {
		stateBits *= 2
		assess = AssessProtectedContext
	}
	pattern, err := a.pattern(stateBits, info.GroupBits)
	if err != nil {
		return nil, err
	}
	cfg := a.AssessConfig
	cfg.Key = a.Key
	cfg.Metrics, cfg.Events = metrics, events
	res, err := assess(ctx, pattern, cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"cipher":    cfg.Cipher,
		"round":     cfg.Round,
		"t":         res.T,
		"leaky":     res.Leaky,
		"threshold": res.Threshold,
		"order":     res.Order,
		"point":     res.Point,
	})
}

func (s *sweepJob) run(ctx context.Context, files server.Files, metrics *obs.Registry, events *obs.Emitter) (json.RawMessage, error) {
	cfg := s.SweepConfig
	cfg.Key = s.Key
	cfg.Checkpoint = files.Checkpoint
	cfg.Metrics, cfg.Events = metrics, events
	atlas, err := Sweep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if err := atlas.WriteFile(files.Output); err != nil {
		return nil, err
	}
	canon, err := atlas.MarshalCanonical()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	return json.Marshal(map[string]any{
		"cipher":      cfg.Cipher,
		"cells":       atlas.Summary.Cells,
		"exploitable": atlas.Summary.Exploitable,
		"max_t":       atlas.Summary.MaxT,
		"shard_range": [2]int{cfg.ShardLo, cfg.ShardHi},
		"sha256":      hex.EncodeToString(sum[:]),
		"atlas":       filepath.Base(files.Output),
	})
}
