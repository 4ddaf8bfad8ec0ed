package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// writeLog synthesizes a realistic event log through the real emitter
// (same envelope, same marshaling) with a pinned clock: each event is
// 100ms after the previous one. campaignMS scales how long each campaign
// claims to have taken, so diff tests can fabricate regressions.
func writeLog(t *testing.T, path string, campaignMS float64, close bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := obs.NewEmitter(f)
	base := time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC)
	n := 0
	e.SetClock(func() time.Time {
		n++
		return base.Add(time.Duration(n) * 100 * time.Millisecond)
	})

	e.Emit(obs.EventRunStarted, map[string]any{"binary": "explorefault", "cipher": "gift64", "round": 25})
	for i := 0; i < 4; i++ {
		// Alternate fault models so the per-model breakdown has two rows.
		model := "xor"
		if i%2 == 1 {
			model = "stuck-at-0"
		}
		// Campaign i=3 pretends its cipher lacks a batch kernel so the
		// coverage line has both paths.
		bp := "kernel"
		if i == 3 {
			bp = "scalar-fallback"
		}
		e.Emit(obs.EventCampaignStarted, map[string]any{
			"pattern": "aa00", "samples": 640, "workers": 4, "fault_model": model,
			"cipher": "gift64", "batch_path": bp,
		})
		e.Emit(obs.EventCampaignFinished, map[string]any{
			"pattern": "aa00", "t": 5.5, "leaky": true, "duration_ms": campaignMS, "fault_model": model,
		})
		e.Emit(obs.EventOracleEval, map[string]any{
			"pattern": "aa00", "t": 5.5, "leaky": true,
			"cached": i%2 == 1, "duration_ms": campaignMS,
		})
		e.Emit(obs.EventEpisode, map[string]any{
			"episode": i + 1, "bits": 3, "t": 5.5 + float64(i), "leaky": i != 0, "reward": 1.0,
			"fault_model": model,
		})
	}
	e.Emit(obs.EventPPOUpdate, map[string]any{"episodes": 4, "duration_ms": 2.5})
	e.Emit(obs.EventSessionFinished, map[string]any{
		"episodes": 4, "duration_ms": 4 * campaignMS, "episodes_per_min": 120.0,
		"cache_hits": 2, "cache_misses": 2,
	})
	if close {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReportMarkdown(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeLog(t, path, 50, true)

	var out, errb bytes.Buffer
	if err := run([]string{path}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"binary `explorefault`, cipher `gift64`",
		"phase latency",
		"campaign",
		"ppo_update",
		"oracle cache: 2 hits / 4 lookups (50% hit rate)",
		"episodes: 4 total, 3 exploitable (75.0%), best t = 8.5, 120 episodes/min",
		"per fault model",
		"stuck-at-0",
		"batch coverage: 3/4 campaigns on the kernel path (gift64 kernel x3, gift64 scalar-fallback x1)",
		"throughput over time",
		"event log complete: emitter reported 0 dropped events",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("markdown report missing %q\n%s", want, text)
		}
	}
}

func TestReportJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeLog(t, path, 50, true)

	var out bytes.Buffer
	if err := run([]string{"-format", "json", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Binary != "explorefault" || rep.Cipher != "gift64" {
		t.Errorf("run identity: got %q/%q", rep.Binary, rep.Cipher)
	}
	if rep.Episodes != 4 || rep.LeakyEpisodes != 3 {
		t.Errorf("episodes %d leaky %d, want 4/3", rep.Episodes, rep.LeakyEpisodes)
	}
	if rep.Cache.HitRate != 0.5 {
		t.Errorf("cache hit rate %v, want 0.5", rep.Cache.HitRate)
	}
	if !rep.EmitterStatsSeen || rep.EventsDropped != 0 {
		t.Errorf("emitter stats: seen=%v dropped=%d", rep.EmitterStatsSeen, rep.EventsDropped)
	}
	// Per-model breakdown: the log alternates xor and stuck-at-0 (sorted
	// alphabetically in the report); only episode i=0 (xor) is clean.
	if len(rep.FaultModels) != 2 {
		t.Fatalf("fault models = %+v, want 2 rows", rep.FaultModels)
	}
	sa, xor := rep.FaultModels[0], rep.FaultModels[1]
	if sa.Model != "stuck-at-0" || sa.Episodes != 2 || sa.LeakyEpisodes != 2 || sa.Campaigns != 2 {
		t.Errorf("stuck-at-0 row = %+v, want 2 episodes / 2 leaky / 2 campaigns", sa)
	}
	if xor.Model != "xor" || xor.Episodes != 2 || xor.LeakyEpisodes != 1 || xor.LeakyRate != 0.5 {
		t.Errorf("xor row = %+v, want 2 episodes / 1 leaky / rate 0.5", xor)
	}
	if sa.CampaignMeanMS != 50 {
		t.Errorf("stuck-at-0 campaign mean = %v ms, want 50", sa.CampaignMeanMS)
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", rep.Warnings)
	}
	if len(rep.BatchPaths) != 2 ||
		rep.BatchPaths[0] != (BatchPathStat{Cipher: "gift64", Path: "kernel", Campaigns: 3}) ||
		rep.BatchPaths[1] != (BatchPathStat{Cipher: "gift64", Path: "scalar-fallback", Campaigns: 1}) {
		t.Errorf("batch paths = %+v, want gift64 kernel x3 + scalar-fallback x1", rep.BatchPaths)
	}
	// 4 campaigns at 640 samples per 50ms = 12800 traces/sec.
	if len(rep.Throughput) == 0 || rep.Throughput[0].TracesPerSec < 12000 || rep.Throughput[0].TracesPerSec > 13000 {
		t.Errorf("throughput %+v, want ~12800 traces/sec", rep.Throughput)
	}
}

// writeSweepLog synthesizes a cmd/atlas-style sweep event log: 4 cells
// across two fault models, one shard resumed from a checkpoint.
func writeSweepLog(t *testing.T, path string, finished bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e := obs.NewEmitter(f)
	base := time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC)
	n := 0
	e.SetClock(func() time.Time {
		n++
		return base.Add(time.Duration(n) * 100 * time.Millisecond)
	})

	e.Emit(obs.EventRunStarted, map[string]any{"binary": "atlas", "cipher": "gift64"})
	e.Emit(obs.EventSweepStarted, map[string]any{
		"cipher": "gift64", "cells": 6, "shards": 2, "resumed_shards": 1,
	})
	for i, cell := range []struct {
		model       string
		tval        float64
		exploitable bool
	}{
		{"xor", 12.0, true},
		{"xor", 1.5, false},
		{"stuck-at-0", 8.0, true},
		{"stuck-at-0", 9.0, true},
	} {
		e.Emit(obs.EventSweepCell, map[string]any{
			"round": 25, "pos": []int{i}, "model": cell.model,
			"t": cell.tval, "exploitable": cell.exploitable, "point": "r25",
		})
	}
	if finished {
		// The finished totals include the 2 cells of the resumed shard
		// that never re-emitted sweep_cell.
		e.Emit(obs.EventSweepFinished, map[string]any{
			"cipher": "gift64", "cells": 6, "exploitable": 4,
			"max_t": 12.0, "duration_ms": 3000.0,
		})
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReportSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	writeSweepLog(t, path, true)

	var out bytes.Buffer
	if err := run([]string{"-format", "json", path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	s := rep.Sweep
	if s == nil {
		t.Fatal("sweep section missing from a sweep log")
	}
	if s.Cells != 6 || s.CellEvents != 4 || s.ResumedShards != 1 || !s.Finished {
		t.Errorf("sweep census %+v, want 6 cells / 4 cell events / 1 resumed shard / finished", s)
	}
	// The authoritative finished totals, not the 3 exploitable cell events.
	if s.Exploitable != 4 || s.MaxT != 12.0 {
		t.Errorf("sweep totals %+v, want 4 exploitable max t 12 (from sweep_finished)", s)
	}
	if s.ExploitableRate != 4.0/6.0 {
		t.Errorf("exploitable rate %v, want 4/6", s.ExploitableRate)
	}
	if s.CellsPerSec != 2.0 || s.DurationSeconds != 3.0 {
		t.Errorf("throughput %v cells/sec over %vs, want 2.0 over 3.0", s.CellsPerSec, s.DurationSeconds)
	}
	if len(s.ByModel) != 2 || s.ByModel[0].Model != "stuck-at-0" || s.ByModel[1].Model != "xor" {
		t.Fatalf("by-model rows %+v, want sorted stuck-at-0, xor", s.ByModel)
	}
	if sa := s.ByModel[0]; sa.Cells != 2 || sa.Exploitable != 2 || sa.MaxT != 9.0 {
		t.Errorf("stuck-at-0 row %+v, want 2/2 max t 9", sa)
	}
	if xor := s.ByModel[1]; xor.Cells != 2 || xor.Exploitable != 1 || xor.MaxT != 12.0 {
		t.Errorf("xor row %+v, want 2/1 max t 12", xor)
	}

	out.Reset()
	if err := run([]string{path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"sweep: 6 cells, 4 exploitable (66.7%), max t = 12.0, 2.0 cells/sec over 3.00s (1 shards resumed from checkpoint)",
		"sweep cells per fault model",
		"stuck-at-0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("markdown sweep report missing %q\n%s", want, text)
		}
	}

	// An interrupted sweep (no sweep_finished) keeps provisional totals
	// and is flagged.
	cut := filepath.Join(t.TempDir(), "cut.jsonl")
	writeSweepLog(t, cut, false)
	out.Reset()
	if err := run([]string{cut}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "INTERRUPTED before sweep_finished") {
		t.Errorf("interrupted sweep not flagged:\n%s", out.String())
	}
}

func TestReportWarnsOnTruncatedLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeLog(t, path, 50, false) // no Close: no emitter_stats line

	var out bytes.Buffer
	if err := run([]string{path}, &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no emitter_stats line") {
		t.Errorf("report should warn about missing emitter_stats:\n%s", out.String())
	}
}

func TestReportWithTrace(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "run.jsonl")
	writeLog(t, events, 50, true)

	// Hand-written Chrome trace: one 100ms assess span and four 80ms
	// shard spans on a 4-worker campaign -> utilization 320/(100*4) = 0.8.
	trace := filepath.Join(dir, "trace.json")
	doc := map[string]any{"displayTimeUnit": "ms", "traceEvents": []map[string]any{
		{"name": "process_name", "ph": "M", "pid": 1, "tid": 0},
		{"name": "assess", "ph": "X", "ts": 0, "dur": 100000.0, "pid": 1, "tid": 0},
		{"name": "shard", "ph": "X", "ts": 0, "dur": 80000.0, "pid": 1, "tid": 1},
		{"name": "shard", "ph": "X", "ts": 0, "dur": 80000.0, "pid": 1, "tid": 2},
		{"name": "shard", "ph": "X", "ts": 10000, "dur": 80000.0, "pid": 1, "tid": 3},
		{"name": "shard", "ph": "X", "ts": 10000, "dur": 80000.0, "pid": 1, "tid": 4},
	}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trace, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run([]string{"-format", "json", "-trace", trace, events}, &out, &out); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) != 2 {
		t.Fatalf("span groups %d, want 2 (assess, shard): %+v", len(rep.Spans), rep.Spans)
	}
	if rep.Spans[0].Name != "shard" || rep.Spans[0].Count != 4 || rep.Spans[0].TotalMS != 320 {
		t.Errorf("busiest span %+v, want shard count 4 total 320ms", rep.Spans[0])
	}
	if rep.WorkerUtilization < 0.79 || rep.WorkerUtilization > 0.81 {
		t.Errorf("worker utilization %v, want 0.8", rep.WorkerUtilization)
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.jsonl")
	writeLog(t, old, 50, true)

	t.Run("no_regression", func(t *testing.T) {
		cur := filepath.Join(dir, "same.jsonl")
		writeLog(t, cur, 52, true) // 4% slower campaigns: inside threshold
		var out bytes.Buffer
		if err := run([]string{"-diff", old, cur}, &out, &out); err != nil {
			t.Fatalf("diff flagged a regression it should not have: %v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "mean_campaign_ms") {
			t.Errorf("diff output missing campaign metric:\n%s", out.String())
		}
	})

	t.Run("regression", func(t *testing.T) {
		cur := filepath.Join(dir, "slow.jsonl")
		writeLog(t, cur, 80, true) // 60% slower campaigns
		var out bytes.Buffer
		err := run([]string{"-diff", "-threshold", "0.2", old, cur}, &out, &out)
		if err == nil {
			t.Fatalf("diff should exit nonzero on a 60%% campaign slowdown:\n%s", out.String())
		}
		if !strings.Contains(err.Error(), "regressed") {
			t.Errorf("error %q should mention regression", err)
		}
		if !strings.Contains(out.String(), "REGRESSED") {
			t.Errorf("diff table should flag the regression:\n%s", out.String())
		}
	})

	t.Run("json_format", func(t *testing.T) {
		var out bytes.Buffer
		if err := run([]string{"-diff", "-format", "json", old, old}, &out, &out); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Metrics   []diffMetric `json:"metrics"`
			Regressed int          `json:"regressed"`
		}
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatalf("diff JSON invalid: %v\n%s", err, out.String())
		}
		if doc.Regressed != 0 || len(doc.Metrics) == 0 {
			t.Errorf("self-diff: regressed=%d metrics=%d", doc.Regressed, len(doc.Metrics))
		}
	})
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.jsonl")
	if err := os.WriteFile(garbage, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	for _, args := range [][]string{
		{},
		{empty},
		{garbage},
		{"-format", "yaml", empty},
		{"-diff", empty},
		{filepath.Join(dir, "missing.jsonl")},
	} {
		if err := run(args, &sink, &sink); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestDamagedLineNamed: a damaged line fails the report with an error
// that names its physical line number, blank lines included.
func TestDamagedLineNamed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	log := `{"ts":"2026-02-03T04:05:06Z","seq":0,"event":"run_started"}` + "\n\n" + `{"ts":"2026-02-03T04:05:07Z","se`
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if err := run([]string{path}, &sink, &sink); err == nil || !strings.Contains(err.Error(), "line 3: ") {
		t.Fatalf("error = %v, want one naming line 3", err)
	}
}
