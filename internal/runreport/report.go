// Package runreport reduces the structured JSONL event logs written
// with -events (and optionally the Chrome trace files written with
// -trace) into offline run reports: phase latency breakdown, throughput
// over time, cache effectiveness, episode and leakage rates, and
// event-loss detection via the final emitter_stats line. It is the
// analysis engine behind cmd/obsreport and the job server's
// GET /jobs/{id}/report endpoint, and its fleet mode (fleet.go) folds a
// directory of per-job logs into one cost-attribution report.
package runreport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// Report is the distilled view of one run's event log (plus an optional
// trace file). It is the JSON output shape; the markdown renderer walks
// the same struct.
type Report struct {
	Source string `json:"source"`
	Binary string `json:"binary,omitempty"`
	Cipher string `json:"cipher,omitempty"`
	Events int    `json:"events"`

	// Emitter health, from the final emitter_stats line.
	EmitterStatsSeen bool   `json:"emitter_stats_seen"`
	EventsDropped    uint64 `json:"events_dropped"`

	WallClock float64 `json:"wall_clock_seconds"`

	// Phase latency breakdown, one row per phase.
	Phases []PhaseStat `json:"phases,omitempty"`

	// Throughput over time: samples/sec per elapsed-time bucket, from
	// campaign_finished durations.
	Throughput []ThroughputPoint `json:"throughput,omitempty"`

	// Oracle cache effectiveness.
	Cache CacheStat `json:"cache"`

	// Training census.
	Episodes       int     `json:"episodes"`
	LeakyEpisodes  int     `json:"leaky_episodes"`
	LeakyRate      float64 `json:"leaky_rate"`
	EpisodesPerMin float64 `json:"episodes_per_min,omitempty"`
	BestT          float64 `json:"best_t,omitempty"`

	// BatchPaths counts campaigns per cipher and encryption engine, from
	// the batch_path field campaign events carry ("kernel" when the
	// cipher's batch kernel ran, "scalar-fallback" otherwise).
	BatchPaths []BatchPathStat `json:"batch_paths,omitempty"`

	// FaultModels breaks the run down per typed fault model, from the
	// fault_model field episode and campaign events carry: exploitable
	// rate per model (which model the agent found rewarding) and
	// campaign latency per model (what each injection op costs — the
	// XOR-only hot path versus (AND, XOR) lanes versus scalar fallback).
	FaultModels []FaultModelStat `json:"fault_models,omitempty"`

	// Sweep aggregates an exhaustive atlas sweep's events, when the log
	// came from cmd/atlas (or anything else emitting sweep_* events).
	Sweep *SweepStat `json:"sweep,omitempty"`

	// Usage is the job's resource accounting, from the last job_usage
	// line of a job-server event log (absent for plain CLI runs).
	Usage *JobUsage `json:"usage,omitempty"`

	// Span aggregates from the optional trace file.
	Spans []SpanStat `json:"spans,omitempty"`
	// WorkerUtilization is busy-shard time over workers*campaign wall
	// time, derivable only when a trace file is given and campaign events
	// recorded the worker count.
	WorkerUtilization float64 `json:"worker_utilization,omitempty"`

	Warnings []string `json:"warnings,omitempty"`

	// workers is the largest worker count any campaign reported; it only
	// feeds the trace-derived utilization estimate, so it stays out of
	// the JSON shape.
	workers float64
}

// PhaseStat aggregates the durations of one phase (campaigns, PPO
// updates, whole sessions) as reported by the events themselves.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// FaultModelStat aggregates one typed fault model's episodes and
// campaign durations.
type FaultModelStat struct {
	Model          string  `json:"model"`
	Episodes       int     `json:"episodes"`
	LeakyEpisodes  int     `json:"leaky_episodes"`
	LeakyRate      float64 `json:"leaky_rate"`
	Campaigns      int     `json:"campaigns"`
	CampaignMeanMS float64 `json:"campaign_mean_ms"`
	CampaignMaxMS  float64 `json:"campaign_max_ms"`
}

// SweepStat distills sweep_started / sweep_cell / sweep_finished events:
// how big the enumeration was, how fast it went, and which fault models
// carried the exploitable cells. CellEvents counts freshly assessed
// cells (resumed shards replay from the checkpoint without re-emitting),
// so CellEvents < Cells on a resumed run is expected, not data loss.
type SweepStat struct {
	Cells           int              `json:"cells"`
	ResumedShards   int              `json:"resumed_shards,omitempty"`
	CellEvents      int              `json:"cell_events"`
	Exploitable     int              `json:"exploitable"`
	ExploitableRate float64          `json:"exploitable_rate"`
	MaxT            float64          `json:"max_t"`
	DurationSeconds float64          `json:"duration_seconds,omitempty"`
	CellsPerSec     float64          `json:"cells_per_sec,omitempty"`
	Finished        bool             `json:"finished"`
	ByModel         []SweepModelStat `json:"by_model,omitempty"`
}

// SweepModelStat is one fault model's share of the sweep's cell events.
type SweepModelStat struct {
	Model       string  `json:"model"`
	Cells       int     `json:"cells"`
	Exploitable int     `json:"exploitable"`
	MaxT        float64 `json:"max_t"`
}

// BatchPathStat counts one cipher's campaigns on one encryption engine.
type BatchPathStat struct {
	Cipher    string `json:"cipher"`
	Path      string `json:"path"`
	Campaigns int    `json:"campaigns"`
}

// ThroughputPoint is the mean campaign throughput (t-test traces per
// second) inside one elapsed-time bucket.
type ThroughputPoint struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	TracesPerSec   float64 `json:"traces_per_sec"`
	Campaigns      int     `json:"campaigns"`
}

// CacheStat is the oracle memoization summary, preferring the
// authoritative session_finished totals and falling back to counting
// oracle_eval events.
type CacheStat struct {
	Lookups uint64  `json:"lookups"`
	Hits    uint64  `json:"hits"`
	HitRate float64 `json:"hit_rate"`
}

// SpanStat aggregates the trace file's complete events by span name.
type SpanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// JobUsage is the resource accounting a job-server log carries on its
// job_usage lines: the daemon's cumulative cost figures for the job,
// plus the attribution labels the fleet report groups by. The last
// job_usage line of a log wins (each attempt re-emits the cumulative
// figure).
type JobUsage struct {
	ID         string `json:"id,omitempty"`
	Tenant     string `json:"tenant,omitempty"`
	Kind       string `json:"kind,omitempty"`
	Cipher     string `json:"cipher,omitempty"`
	FaultModel string `json:"fault_model,omitempty"`
	State      string `json:"state,omitempty"`

	Attempts      int     `json:"attempts,omitempty"`
	WallSeconds   float64 `json:"wall_seconds"`
	CPUSeconds    float64 `json:"cpu_seconds"`
	QueueSeconds  float64 `json:"queue_seconds"`
	Episodes      uint64  `json:"episodes,omitempty"`
	Cells         uint64  `json:"cells,omitempty"`
	Traces        uint64  `json:"traces,omitempty"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes,omitempty"`
}

// AnalyzeFile parses one JSONL event log (and optional trace file) into
// a Report.
func AnalyzeFile(eventsPath, tracePath string) (*Report, error) {
	f, err := os.Open(eventsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := Analyze(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", eventsPath, err)
	}
	rep.Source = eventsPath
	if tracePath != "" {
		if err := analyzeTrace(rep, tracePath); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// num reads a numeric event field (JSON decodes every number into
// float64).
func num(fields map[string]any, key string) (float64, bool) {
	v, ok := fields[key].(float64)
	return v, ok
}

// str reads a string event field.
func str(fields map[string]any, key string) string {
	s, _ := fields[key].(string)
	return s
}

// Analyze reduces an event stream to a Report.
func Analyze(r io.Reader) (*Report, error) {
	rep := &Report{}
	phases := map[string]*PhaseStat{}
	phase := func(name string) *PhaseStat {
		p := phases[name]
		if p == nil {
			p = &PhaseStat{Phase: name}
			phases[name] = p
		}
		return p
	}
	observe := func(p *PhaseStat, ms float64) {
		p.Count++
		p.TotalMS += ms
		if ms > p.MaxMS {
			p.MaxMS = ms
		}
	}

	models := map[string]*FaultModelStat{}
	modelStat := func(fields map[string]any) *FaultModelStat {
		name, ok := fields["fault_model"].(string)
		if !ok || name == "" {
			return nil
		}
		m := models[name]
		if m == nil {
			m = &FaultModelStat{Model: name}
			models[name] = m
		}
		return m
	}

	// campaign_finished carries duration but not the sample count, which
	// lives on the matching campaign_started; campaigns from concurrent
	// environments interleave, so pair them by pattern.
	samplesByPattern := map[string]float64{}
	batchPaths := map[[2]string]int{}
	var sweep *SweepStat
	sweepModels := map[string]*SweepModelStat{}
	var firstTS, lastTS time.Time
	var evalHits, evalLookups uint64
	var sessionCache *CacheStat
	var throughput []ThroughputPoint
	workers := 0.0

	err := obs.ReadEvents(r, func(line int, ev obs.Event, err error) error {
		if err != nil {
			return fmt.Errorf("line %d: %v", line, err)
		}
		rep.Events++
		if ts, err := time.Parse(time.RFC3339Nano, ev.TS); err == nil {
			if firstTS.IsZero() {
				firstTS = ts
			}
			lastTS = ts
		}
		f := ev.Fields
		switch ev.Event {
		case obs.EventRunStarted:
			if b, ok := f["binary"].(string); ok {
				rep.Binary = b
			}
			if c, ok := f["cipher"].(string); ok {
				rep.Cipher = c
			}
		case obs.EventJobStarted:
			// Job-server logs identify their target on the attempt
			// marker; lift the cipher so per-job reports carry it like
			// CLI runs do.
			if c := str(f, "cipher"); c != "" && rep.Cipher == "" {
				rep.Cipher = c
			}
		case obs.EventJobUsage:
			// The fields decoded as a map; re-encode them to read them
			// through JobUsage's JSON tags. A field of the wrong type
			// stays zero.
			u := &JobUsage{}
			b, _ := json.Marshal(f)
			_ = json.Unmarshal(b, u)
			rep.Usage = u // last line wins: usage is cumulative per attempt
		case obs.EventCampaignStarted:
			if p, ok := f["pattern"].(string); ok {
				if s, ok := num(f, "samples"); ok {
					samplesByPattern[p] = s
				}
			}
			if w, ok := num(f, "workers"); ok && w > workers {
				workers = w
			}
			if bp, ok := f["batch_path"].(string); ok && bp != "" {
				cipher, _ := f["cipher"].(string)
				batchPaths[[2]string{cipher, bp}]++
			}
		case obs.EventCampaignFinished:
			ms, _ := num(f, "duration_ms")
			observe(phase("campaign"), ms)
			if m := modelStat(f); m != nil {
				m.Campaigns++
				m.CampaignMeanMS += ms // running total; divided below
				if ms > m.CampaignMaxMS {
					m.CampaignMaxMS = ms
				}
			}
			if p, ok := f["pattern"].(string); ok && ms > 0 {
				if s, ok := samplesByPattern[p]; ok {
					ts, err := time.Parse(time.RFC3339Nano, ev.TS)
					elapsed := 0.0
					if err == nil && !firstTS.IsZero() {
						elapsed = ts.Sub(firstTS).Seconds()
					}
					throughput = append(throughput, ThroughputPoint{
						ElapsedSeconds: elapsed,
						TracesPerSec:   s / (ms / 1e3),
						Campaigns:      1,
					})
				}
			}
		case obs.EventOracleEval:
			evalLookups++
			if c, ok := f["cached"].(bool); ok && c {
				evalHits++
			}
			if ms, ok := num(f, "duration_ms"); ok {
				observe(phase("oracle_eval"), ms)
			}
		case obs.EventEpisode:
			rep.Episodes++
			leaky := false
			if l, ok := f["leaky"].(bool); ok && l {
				rep.LeakyEpisodes++
				leaky = true
			}
			if t, ok := num(f, "t"); ok && t > rep.BestT {
				rep.BestT = t
			}
			if m := modelStat(f); m != nil {
				m.Episodes++
				if leaky {
					m.LeakyEpisodes++
				}
			}
		case obs.EventPPOUpdate:
			if ms, ok := num(f, "duration_ms"); ok {
				observe(phase("ppo_update"), ms)
			}
		case obs.EventSessionFinished:
			if ms, ok := num(f, "duration_ms"); ok {
				observe(phase("session"), ms)
			}
			if epm, ok := num(f, "episodes_per_min"); ok {
				rep.EpisodesPerMin = epm
			}
			hits, _ := num(f, "cache_hits")
			misses, _ := num(f, "cache_misses")
			if hits+misses > 0 {
				sessionCache = &CacheStat{
					Lookups: uint64(hits + misses),
					Hits:    uint64(hits),
				}
			}
		case obs.EventSweepStarted:
			sweep = &SweepStat{}
			if n, ok := num(f, "cells"); ok {
				sweep.Cells = int(n)
			}
			if n, ok := num(f, "resumed_shards"); ok {
				sweep.ResumedShards = int(n)
			}
		case obs.EventSweepCell:
			if sweep == nil {
				sweep = &SweepStat{}
			}
			sweep.CellEvents++
			exploitable := false
			if e, ok := f["exploitable"].(bool); ok && e {
				exploitable = true
			}
			t, _ := num(f, "t")
			if name, ok := f["model"].(string); ok && name != "" {
				m := sweepModels[name]
				if m == nil {
					m = &SweepModelStat{Model: name}
					sweepModels[name] = m
				}
				m.Cells++
				if exploitable {
					m.Exploitable++
				}
				if t > m.MaxT {
					m.MaxT = t
				}
			}
			// Provisional totals; sweep_finished overwrites them with the
			// authoritative atlas summary (which includes resumed cells).
			if exploitable {
				sweep.Exploitable++
			}
			if t > sweep.MaxT {
				sweep.MaxT = t
			}
		case obs.EventSweepFinished:
			if sweep == nil {
				sweep = &SweepStat{}
			}
			sweep.Finished = true
			if n, ok := num(f, "cells"); ok {
				sweep.Cells = int(n)
			}
			if n, ok := num(f, "exploitable"); ok {
				sweep.Exploitable = int(n)
			}
			if t, ok := num(f, "max_t"); ok {
				sweep.MaxT = t
			}
			if ms, ok := num(f, "duration_ms"); ok && ms > 0 {
				sweep.DurationSeconds = ms / 1e3
				sweep.CellsPerSec = float64(sweep.Cells) / sweep.DurationSeconds
			}
		case obs.EventEmitterStats:
			rep.EmitterStatsSeen = true
			if d, ok := num(f, "dropped"); ok {
				rep.EventsDropped = uint64(d)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rep.Events == 0 {
		return nil, errors.New("no events found")
	}

	if !firstTS.IsZero() {
		rep.WallClock = lastTS.Sub(firstTS).Seconds()
	}
	if rep.Episodes > 0 {
		rep.LeakyRate = float64(rep.LeakyEpisodes) / float64(rep.Episodes)
		if rep.EpisodesPerMin == 0 && rep.WallClock > 0 {
			rep.EpisodesPerMin = float64(rep.Episodes) / (rep.WallClock / 60)
		}
	}

	// Cache: the session's own totals are authoritative (they include
	// lookups made before event emission was attached); fall back to
	// counting oracle_eval events.
	if sessionCache != nil {
		rep.Cache = *sessionCache
	} else {
		rep.Cache = CacheStat{Lookups: evalLookups, Hits: evalHits}
	}
	if rep.Cache.Lookups > 0 {
		rep.Cache.HitRate = float64(rep.Cache.Hits) / float64(rep.Cache.Lookups)
	}

	for _, p := range phases {
		if p.Count > 0 {
			p.MeanMS = p.TotalMS / float64(p.Count)
		}
		rep.Phases = append(rep.Phases, *p)
	}
	sort.Slice(rep.Phases, func(i, j int) bool { return rep.Phases[i].TotalMS > rep.Phases[j].TotalMS })

	for _, m := range models {
		if m.Campaigns > 0 {
			m.CampaignMeanMS /= float64(m.Campaigns)
		}
		if m.Episodes > 0 {
			m.LeakyRate = float64(m.LeakyEpisodes) / float64(m.Episodes)
		}
		rep.FaultModels = append(rep.FaultModels, *m)
	}
	sort.Slice(rep.FaultModels, func(i, j int) bool { return rep.FaultModels[i].Model < rep.FaultModels[j].Model })

	for key, n := range batchPaths {
		rep.BatchPaths = append(rep.BatchPaths, BatchPathStat{Cipher: key[0], Path: key[1], Campaigns: n})
	}
	sort.Slice(rep.BatchPaths, func(i, j int) bool {
		if rep.BatchPaths[i].Cipher != rep.BatchPaths[j].Cipher {
			return rep.BatchPaths[i].Cipher < rep.BatchPaths[j].Cipher
		}
		return rep.BatchPaths[i].Path < rep.BatchPaths[j].Path
	})

	if sweep != nil {
		if sweep.Cells > 0 {
			sweep.ExploitableRate = float64(sweep.Exploitable) / float64(sweep.Cells)
		}
		for _, m := range sweepModels {
			sweep.ByModel = append(sweep.ByModel, *m)
		}
		sort.Slice(sweep.ByModel, func(i, j int) bool { return sweep.ByModel[i].Model < sweep.ByModel[j].Model })
		rep.Sweep = sweep
	}

	rep.Throughput = bucketThroughput(throughput, rep.WallClock)
	rep.Warnings = reportWarnings(rep)
	rep.workers = workers
	return rep, nil
}

// bucketThroughput folds per-campaign throughput points into at most ten
// elapsed-time buckets so "traces/sec over time" stays readable for long
// runs.
func bucketThroughput(points []ThroughputPoint, wall float64) []ThroughputPoint {
	if len(points) == 0 {
		return nil
	}
	const maxBuckets = 10
	width := wall / maxBuckets
	if width <= 0 {
		// Sub-resolution run: everything lands in one bucket.
		width = math.Inf(1)
	}
	type acc struct {
		sum float64
		n   int
	}
	buckets := map[int]*acc{}
	for _, p := range points {
		i := 0
		if !math.IsInf(width, 1) {
			i = int(p.ElapsedSeconds / width)
			if i >= maxBuckets {
				i = maxBuckets - 1
			}
		}
		a := buckets[i]
		if a == nil {
			a = &acc{}
			buckets[i] = a
		}
		a.sum += p.TracesPerSec
		a.n++
	}
	var out []ThroughputPoint
	for i, a := range buckets {
		elapsed := 0.0
		if !math.IsInf(width, 1) {
			elapsed = (float64(i) + 0.5) * width
		}
		out = append(out, ThroughputPoint{
			ElapsedSeconds: elapsed,
			TracesPerSec:   a.sum / float64(a.n),
			Campaigns:      a.n,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ElapsedSeconds < out[j].ElapsedSeconds })
	return out
}

// reportWarnings derives data-quality notes a reader should see before
// trusting the numbers.
func reportWarnings(rep *Report) []string {
	var w []string
	if !rep.EmitterStatsSeen {
		w = append(w, "no emitter_stats line: the run ended without closing its event log (crash or kill -9); counts may be incomplete")
	}
	if rep.EventsDropped > 0 {
		w = append(w, fmt.Sprintf("%d events were dropped by the emitter; the log is incomplete", rep.EventsDropped))
	}
	return w
}

// analyzeTrace parses a Chrome trace-event file, aggregates its complete
// ("X") events by span name into rep.Spans, and estimates worker
// utilization from shard spans when the event log recorded a worker
// count.
func analyzeTrace(rep *Report, path string) error {
	entries, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	agg := map[string]*SpanStat{}
	var shardUS, assessUS float64
	for _, ev := range entries {
		if ev.Ph != "X" {
			continue
		}
		s := agg[ev.Name]
		if s == nil {
			s = &SpanStat{Name: ev.Name}
			agg[ev.Name] = s
		}
		s.Count++
		ms := ev.Dur / 1e3
		s.TotalMS += ms
		if ms > s.MaxMS {
			s.MaxMS = ms
		}
		switch ev.Name {
		case "shard":
			shardUS += ev.Dur
		case "assess":
			assessUS += ev.Dur
		}
	}
	if len(agg) == 0 {
		return fmt.Errorf("%s: no complete (\"X\") span events", path)
	}
	for _, s := range agg {
		s.MeanMS = s.TotalMS / float64(s.Count)
		rep.Spans = append(rep.Spans, *s)
	}
	sort.Slice(rep.Spans, func(i, j int) bool { return rep.Spans[i].TotalMS > rep.Spans[j].TotalMS })
	if rep.workers > 0 && assessUS > 0 {
		rep.WorkerUtilization = shardUS / (assessUS * rep.workers)
	}
	return nil
}
