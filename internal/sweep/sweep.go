// Package sweep is the exhaustive campaign engine: where the RL agent
// samples the fault space, sweep enumerates it — every round × position ×
// fault model (and a bounded order-2 pair mode) — and classifies each
// cell with the same evaluate.Engine oracle the agent trains against.
// The result is an exploitability atlas: a machine-readable ground-truth
// map of the cipher's fault spectrum (ARMORY-style), against which a
// discovery run's episode log can be replayed to measure RL sample
// efficiency (see Compare).
//
// Parallelism is cell-sharded, not trace-sharded: cells are pure,
// independent assessments (each one a pure function of (seed, pattern,
// round, model) via evaluate.PatternSeed), so the sweep groups them into
// fixed-size shards and fans the shards across workers, while each
// cell's own campaign runs serially inside its worker. This keeps the
// per-cell result bitwise independent of worker count and makes the
// shard the checkpoint grain: a finished shard is persisted via
// checkpoint.Stages, so an interrupted multi-hour sweep resumes at the
// last shard boundary bit-identically.
package sweep

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/ciphers"
	"repro/internal/evaluate"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/prng"
	"repro/internal/stats"
)

// ShardCells is the number of cells per checkpoint shard. Small enough
// that an interrupt loses at most a few seconds of work at production
// trace budgets, large enough that checkpoint writes stay rare.
const ShardCells = 16

// CheckpointKind tags sweep shard checkpoints inside the envelope of
// internal/checkpoint.
const CheckpointKind = "sweep-shards"

// DefaultSamples is the per-cell trace budget. Exhaustive sweeps trade
// per-cell precision for coverage: 512 traces classify the strong leaks
// an attacker cares about; rerun interesting cells at 2048+ to confirm
// marginal ones.
const DefaultSamples = 512

// DefaultOrder2Cap bounds the pairs enumerated per (round, model) in
// order-2 mode: the first DefaultOrder2Cap pairs in lexicographic
// order. Without a cap the pair space is quadratic in positions (8128
// pairs for AES-128 bytes), which multiplies sweep cost beyond what the
// bounded mode is for.
const DefaultOrder2Cap = 256

// Config tunes one exhaustive sweep. Zero values select defaults. Its
// JSON form, plus a hex key, is a sweep job's config document (the job
// spec carries the shard range); fields tagged "-" are library-only.
type Config struct {
	// Cipher names the registered target.
	Cipher string `json:"cipher"`
	// Key is the cipher key; nil derives one from Seed exactly like
	// Discover (prng.New(Seed ^ 0x5eed)), so a sweep and a discovery run
	// with equal seeds attack the same keyed instance.
	Key []byte `json:"-"`
	// Rounds lists the injection rounds to enumerate; empty sweeps every
	// round 1..Rounds of the cipher. Duplicates are removed, order is
	// normalized ascending.
	Rounds []int `json:"rounds,omitempty"`
	// GranBits is the position granularity in bits (a "position" is one
	// aligned GranBits-wide field of the state); 0 uses the cipher's
	// native substitution width.
	GranBits int `json:"gran_bits,omitempty"`
	// Models lists the typed fault models to enumerate; empty sweeps
	// only fault.XorFlip.
	Models []fault.Model `json:"models,omitempty"`
	// Oracle selects the statistical oracle (default fault.OracleWelch).
	Oracle fault.OracleKind `json:"oracle,omitempty"`
	// Mode selects the fault-value model (default fault.RandomMask).
	Mode fault.Mode `json:"-"`
	// Samples is the per-cell trace budget (default DefaultSamples).
	Samples int `json:"samples,omitempty"`
	// MaxOrder is the highest t-test order (default 2, at most 16).
	MaxOrder int `json:"max_order,omitempty"`
	// GroupBits is the oracle's differential grouping granularity; 0
	// uses the cipher's native width. Independent of GranBits.
	GroupBits int `json:"group_bits,omitempty"`
	// Threshold is the exploitability threshold θ (default 4.5).
	Threshold float64 `json:"threshold,omitempty"`
	// Lag and Window position the observation window (defaults
	// fault.DefaultLag / fault.DefaultWindow).
	Lag    int `json:"lag,omitempty"`
	Window int `json:"window,omitempty"`
	// Order2 additionally enumerates two-position cells (pairs of
	// distinct positions faulted together), bounded by Order2Cap.
	Order2 bool `json:"order2,omitempty"`
	// Order2Cap caps the pairs per (round, model) (default
	// DefaultOrder2Cap); ignored unless Order2.
	Order2Cap int `json:"order2_cap,omitempty"`
	// ShardLo and ShardHi restrict the run to checkpoint shards
	// [ShardLo, ShardHi) of the canonical cell enumeration (ShardCells
	// cells per shard). Both zero sweeps everything. A restricted run
	// returns a partial atlas (its ShardLo/ShardHi fields record the
	// range) whose cells are bit-identical to the same shards of a full
	// run; Merge reassembles contiguous partial atlases into the full
	// document byte for byte. Shard indices are global, so partial runs
	// may share a Checkpoint file with each other and with a full run.
	ShardLo int `json:"-"`
	ShardHi int `json:"-"`
	// Workers is the cell-shard worker count; 0 uses GOMAXPROCS.
	// Results are bit-identical for every value.
	Workers int `json:"workers,omitempty"`
	// NoBatch forces the scalar cipher path (bit-identical, slower).
	NoBatch bool `json:"no_batch,omitempty"`
	// Seed drives all randomness; the atlas is a pure function of the
	// config including it.
	Seed uint64 `json:"seed,omitempty"`
	// Metrics/Events receive sweep instrumentation; nil disables.
	Metrics *obs.Registry `json:"-"`
	Events  *obs.Emitter  `json:"-"`
	// Checkpoint, if non-empty, persists finished shards to this file;
	// rerunning with an identical config resumes after the last finished
	// shard.
	Checkpoint string `json:"-"`
	// Progress, if non-nil, is called after every accounted cell
	// (assessed or restored from checkpoint) with the running count and
	// the total. Tests use it to cancel at a precise cell index.
	Progress func(done, total int) `json:"-"`
}

func (cfg *Config) setDefaults(info ciphers.Info) {
	if cfg.GranBits == 0 {
		cfg.GranBits = info.GroupBits
	}
	if len(cfg.Models) == 0 {
		cfg.Models = []fault.Model{fault.XorFlip}
	}
	if cfg.Samples == 0 {
		cfg.Samples = DefaultSamples
	}
	if cfg.MaxOrder == 0 {
		cfg.MaxOrder = 2
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
	if cfg.Order2Cap == 0 {
		cfg.Order2Cap = DefaultOrder2Cap
	}
	if len(cfg.Rounds) == 0 {
		for r := 1; r <= info.Rounds; r++ {
			cfg.Rounds = append(cfg.Rounds, r)
		}
	} else {
		seen := map[int]bool{}
		var rounds []int
		for _, r := range cfg.Rounds {
			if !seen[r] {
				seen[r] = true
				rounds = append(rounds, r)
			}
		}
		sort.Ints(rounds)
		cfg.Rounds = rounds
	}
}

// cellSpec identifies one cell before assessment.
type cellSpec struct {
	Round int
	Pos   []int
	Model fault.Model
}

// enumerate lists every cell in canonical order: round ascending, then
// model in config order, then single positions ascending, then (in
// order-2 mode) position pairs in lexicographic order up to the cap.
// The order is part of the atlas contract — resume and golden tests
// depend on it.
func enumerate(cfg *Config, positions int) []cellSpec {
	var cells []cellSpec
	for _, round := range cfg.Rounds {
		for _, model := range cfg.Models {
			for p := 0; p < positions; p++ {
				cells = append(cells, cellSpec{Round: round, Pos: []int{p}, Model: model})
			}
			if !cfg.Order2 {
				continue
			}
			pairs := 0
			for i := 0; i < positions && pairs < cfg.Order2Cap; i++ {
				for j := i + 1; j < positions && pairs < cfg.Order2Cap; j++ {
					cells = append(cells, cellSpec{Round: round, Pos: []int{i, j}, Model: model})
					pairs++
				}
			}
		}
	}
	return cells
}

// key is the canonical config string identifying a sweep for checkpoint
// resume. Workers, NoBatch, instrumentation and paths are excluded:
// results are bit-identical across them.
func (cfg *Config) key(keyBytes []byte) string {
	models := make([]string, len(cfg.Models))
	for i, m := range cfg.Models {
		models[i] = m.String()
	}
	return fmt.Sprintf("sweep|%s|key=%x|r=%v|g=%d|m=%v|o=%s|mode=%s|s=%d|ord=%d|gb=%d|th=%g|lag=%d|win=%d|o2=%v|cap=%d|seed=%d",
		cfg.Cipher, keyBytes, cfg.Rounds, cfg.GranBits, models, cfg.Oracle, cfg.Mode,
		cfg.Samples, cfg.MaxOrder, cfg.GroupBits, cfg.Threshold, cfg.Lag, cfg.Window,
		cfg.Order2, cfg.Order2Cap, cfg.Seed)
}

// Run executes the sweep: it assesses every enumerated cell and returns
// the finished atlas. A cancelled ctx aborts at the next trace-block
// boundary and returns ctx.Err(); rerunning with Checkpoint set resumes
// after the last persisted shard. The returned atlas is a pure function
// of the Config — bit-identical across worker counts, batch/scalar
// paths, interrupts and resumes.
func Run(ctx context.Context, cfg Config) (*Atlas, error) {
	info, err := ciphers.Lookup(cfg.Cipher)
	if err != nil {
		return nil, err
	}
	cfg.setDefaults(info)
	stateBits := 8 * info.BlockBytes
	if cfg.GranBits <= 0 || stateBits%cfg.GranBits != 0 {
		return nil, fmt.Errorf("sweep: granularity %d does not divide state width %d", cfg.GranBits, stateBits)
	}
	for _, r := range cfg.Rounds {
		if r < 1 || r > info.Rounds {
			return nil, fmt.Errorf("sweep: round %d out of range 1..%d", r, info.Rounds)
		}
	}

	// Key derivation matches Discover so seed-matched sweeps and
	// discovery runs share the keyed instance the comparator assumes.
	key := cfg.Key
	if key == nil {
		key = make([]byte, info.KeyBytes)
		prng.New(cfg.Seed ^ 0x5eed).Fill(key)
	} else if len(key) != info.KeyBytes {
		return nil, fmt.Errorf("sweep: %s needs a %d-byte key, got %d", cfg.Cipher, info.KeyBytes, len(key))
	}
	cipher, err := info.New(key)
	if err != nil {
		return nil, err
	}

	positions := stateBits / cfg.GranBits
	specs := enumerate(&cfg, positions)
	total := len(specs)
	shards := (total + ShardCells - 1) / ShardCells

	// Resolve the shard range. The default (0, 0) covers every shard;
	// a partial run walks the same global shard indices, so its cells
	// and checkpoint stages are bit-compatible with the full run's.
	shardLo, shardHi := cfg.ShardLo, cfg.ShardHi
	if shardHi == 0 {
		shardHi = shards
	}
	if shardLo < 0 || shardHi > shards || shardLo >= shardHi {
		return nil, fmt.Errorf("sweep: shard range [%d, %d) out of range 0..%d", cfg.ShardLo, cfg.ShardHi, shards)
	}
	cellLo := shardLo * ShardCells
	cellHi := shardHi * ShardCells
	if cellHi > total {
		cellHi = total
	}
	rangeTotal := cellHi - cellLo

	stages, err := checkpoint.OpenStages(cfg.Checkpoint, CheckpointKind, cfg.key(key))
	if err != nil {
		return nil, fmt.Errorf("sweep: loading checkpoint: %w", err)
	}
	resumed := stages.Len()

	// One engine serves every cell: it is safe for concurrent use, and
	// Workers: 1 keeps each cell's campaign serial inside its own cell
	// worker (cell-level parallelism, not trace-level). Events are left
	// nil — per-cell campaign events at atlas scale would drown the run
	// log; the sweep emits one sweep_cell event per cell instead.
	engine, err := evaluate.New(cipher, evaluate.Config{
		Samples:   cfg.Samples,
		MaxOrder:  cfg.MaxOrder,
		GroupBits: cfg.GroupBits,
		Threshold: cfg.Threshold,
		Lag:       cfg.Lag,
		Window:    cfg.Window,
		Mode:      cfg.Mode,
		Oracle:    cfg.Oracle,
		Workers:   1,
		NoBatch:   cfg.NoBatch,
		Metrics:   cfg.Metrics,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	sp, ctx := trace.StartSpan(ctx, trace.SpanSweep)
	sp.SetAttr("cipher", cfg.Cipher)
	sp.SetAttr("cells", total)
	sp.SetAttr("shards", shards)
	defer sp.End()

	m, events := cfg.Metrics, cfg.Events
	events.Emit(obs.EventSweepStarted, map[string]any{
		"cipher": cfg.Cipher, "cells": rangeTotal, "shards": shards,
		"rounds": len(cfg.Rounds), "positions": positions,
		"models": len(cfg.Models), "samples": cfg.Samples,
		"oracle": cfg.Oracle.String(), "order2": cfg.Order2,
		"resumed_shards": resumed, "seed": cfg.Seed,
	})
	var start time.Time
	if m != nil || events != nil {
		start = time.Now()
	}
	shardHist := m.Histogram("sweep.shard_seconds", obs.LatencyBuckets)

	workers := cfg.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > shardHi-shardLo {
		workers = shardHi - shardLo
	}

	cells := make([]Cell, total)
	var done atomic.Int64
	var progressMu sync.Mutex
	account := func(n int) {
		d := int(done.Add(int64(n)))
		if cfg.Progress != nil {
			progressMu.Lock()
			cfg.Progress(d, rangeTotal)
			progressMu.Unlock()
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				shard := shardLo + int(next.Add(1)) - 1
				if shard >= shardHi {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				lo := shard * ShardCells
				hi := lo + ShardCells
				if hi > total {
					hi = total
				}
				name := fmt.Sprintf("shard-%05d", shard)
				var stored []Cell
				if stages.Done(name, &stored) && len(stored) == hi-lo {
					copy(cells[lo:hi], stored)
					account(hi - lo)
					continue
				}
				ssp, sctx := trace.StartSpan(ctx, trace.SpanSweepShard)
				ssp.SetAttr("shard", shard)
				ssp.OwnLane()
				st := shardHist.Start()
				out := make([]Cell, 0, hi-lo)
				for i := lo; i < hi; i++ {
					c, err := assessCell(sctx, engine, &cfg, specs[i])
					if err != nil {
						errs[w] = err
						ssp.End()
						return
					}
					cells[i] = c
					out = append(out, c)
					m.Counter("sweep.cells_total").Inc()
					if c.Exploitable {
						m.Counter("sweep.exploitable_total").Inc()
					}
					events.Emit(obs.EventSweepCell, map[string]any{
						"round": c.Round, "pos": c.Pos, "model": c.Model,
						"t": c.T, "exploitable": c.Exploitable, "point": c.Point,
					})
					account(1)
				}
				st.Stop()
				ssp.End()
				if err := stages.Put(name, out); err != nil {
					errs[w] = err
					return
				}
				if cfg.Checkpoint != "" {
					events.Emit(obs.EventCheckpointSaved, map[string]any{
						"binary": "sweep", "stage": name, "path": cfg.Checkpoint,
					})
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	atlas := buildAtlas(&cfg, info, key, positions, cells[cellLo:cellHi])
	if shardLo != 0 || shardHi != shards {
		atlas.ShardLo, atlas.ShardHi = shardLo, shardHi
	}
	if m != nil || events != nil {
		wall := time.Since(start)
		if secs := wall.Seconds(); secs > 0 {
			m.Gauge("sweep.cells_per_sec").Set(float64(rangeTotal-resumed*ShardCells) / secs)
		}
		events.Emit(obs.EventSweepFinished, map[string]any{
			"cipher": cfg.Cipher, "cells": rangeTotal,
			"exploitable": atlas.Summary.Exploitable,
			"max_t":       atlas.Summary.MaxT,
			"duration_ms": float64(wall) / float64(time.Millisecond),
		})
	}
	sp.SetAttr("exploitable", atlas.Summary.Exploitable)
	return atlas, nil
}

// assessCell runs one cell's campaign and classifies it.
func assessCell(ctx context.Context, engine *evaluate.Engine, cfg *Config, spec cellSpec) (Cell, error) {
	pattern := patternFor(engine.StateBits(), cfg.GranBits, spec.Pos)
	a, err := engine.AssessModel(ctx, &pattern, spec.Round, spec.Model)
	if err != nil {
		return Cell{}, err
	}
	return Cell{
		Round:       spec.Round,
		Pos:         spec.Pos,
		Model:       spec.Model.String(),
		Order:       len(spec.Pos),
		T:           a.T,
		StatOrder:   a.Best.Stat.Order,
		Point:       a.Best.Point.String(),
		Exploitable: a.Leaky,
	}, nil
}
