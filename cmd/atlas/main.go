// atlas runs exhaustive fault-space sweeps and works with their output:
// it enumerates every round × position × fault model cell of a cipher
// (ARMORY-style), classifies each with the t-test/SIFA oracle, and
// writes a machine-readable exploitability atlas plus a round × position
// heatmap. It also validates existing atlases and replays discovery-run
// event logs against them to report RL sample efficiency.
//
//	# sweep the last paper rounds of GIFT-64 under two fault models
//	go run ./cmd/atlas -cipher gift64 -rounds 24-26 -fault-type xor,stuck-at-0 \
//	    -samples 256 -seed 7 -o gift64-atlas.json
//
//	# structural validation of an atlas document
//	go run ./cmd/atlas -validate gift64-atlas.json
//
//	# how much of the exploitable space did a discovery run find?
//	go run ./cmd/atlas -replay run-events.jsonl -atlas gift64-atlas.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	explorefault "repro"
	"repro/internal/obs"
)

func main() {
	// First SIGINT/SIGTERM cancels the run context: the sweep stops at
	// the next trace-block boundary with all finished shards checkpointed.
	// A second signal force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "atlas:", err)
		os.Exit(1)
	}
}

// parseRounds accepts "25", "8-10", "1,3,5" and combinations.
func parseRounds(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(lo)
			if err != nil {
				return nil, err
			}
			b, err := strconv.Atoi(hi)
			if err != nil {
				return nil, err
			}
			if b < a {
				return nil, fmt.Errorf("empty range %q", part)
			}
			for r := a; r <= b; r++ {
				out = append(out, r)
			}
			continue
		}
		r, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func parseModels(s string) ([]explorefault.FaultModel, error) {
	var out []explorefault.FaultModel
	for _, part := range strings.Split(s, ",") {
		m, err := explorefault.ParseFaultModel(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// run is the testable CLI body.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("atlas", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cipher := fs.String("cipher", "gift64", "target cipher: "+fmt.Sprint(explorefault.Ciphers()))
	roundsFlag := fs.String("rounds", "", "injection rounds to sweep: \"25\", \"8-10\", \"1,3,5\" (default: every round)")
	gran := fs.Int("granularity", 0, "position width in bits (0 = the cipher's native S-box width)")
	faultTypes := fs.String("fault-type", "xor", "comma-separated typed fault models to enumerate")
	oracleName := fs.String("oracle", "welch", "leakage oracle: welch or sifa")
	samples := fs.Int("samples", 0, "plaintexts per cell (default 512)")
	maxOrder := fs.Int("max-order", 0, "highest t-test order (default 2)")
	threshold := fs.Float64("threshold", 0, "exploitability threshold (default 4.5)")
	order2 := fs.Bool("order2", false, "also enumerate two-position cells (bounded by -order2-cap)")
	order2Cap := fs.Int("order2-cap", 0, "max position pairs per round and model in -order2 mode (default 256)")
	workers := fs.Int("workers", 0, "cell-shard worker goroutines (0 = GOMAXPROCS; results are identical for every value)")
	scalar := fs.Bool("scalar", false, "force the scalar cipher path instead of the batch kernel (bit-identical, slower)")
	seed := fs.Uint64("seed", 1, "experiment seed (drives key derivation and all campaigns)")
	outPath := fs.String("o", "", "write the atlas JSON to this file")
	heatmap := fs.String("heatmap", "text", "heatmap rendering on stdout: text, markdown or none")
	checkpointPath := fs.String("checkpoint", "", "persist finished shards to this file; rerunning with the same arguments resumes after the last finished shard")
	eventsPath := fs.String("events", "", "write structured JSONL run events to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON span timeline to this file (open in ui.perfetto.dev)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	validatePath := fs.String("validate", "", "validate the atlas JSON at this path and exit")
	replayPath := fs.String("replay", "", "replay the discovery-run JSONL event log at this path against -atlas and report coverage")
	atlasPath := fs.String("atlas", "", "atlas file for -replay")
	replayRound := fs.Int("round", 0, "injection round for -replay (0 = auto-detect from the log)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *validatePath != "" {
		return runValidate(*validatePath, stdout)
	}
	if *replayPath != "" {
		if *atlasPath == "" {
			return fmt.Errorf("-replay needs -atlas")
		}
		return runReplay(*replayPath, *atlasPath, *replayRound, stdout)
	}

	rounds, err := parseRounds(*roundsFlag)
	if err != nil {
		return fmt.Errorf("bad -rounds: %v", err)
	}
	models, err := parseModels(*faultTypes)
	if err != nil {
		return fmt.Errorf("bad -fault-type: %v", err)
	}
	oracle, err := explorefault.ParseOracle(*oracleName)
	if err != nil {
		return fmt.Errorf("bad -oracle: %v", err)
	}
	switch *heatmap {
	case "text", "markdown", "none":
	default:
		return fmt.Errorf("bad -heatmap %q: want text, markdown or none", *heatmap)
	}

	obsRun, ctx, err := obs.StartRun(ctx, *metricsAddr, *eventsPath, *tracePath, stderr, map[string]any{
		"binary": "atlas", "cipher": *cipher, "rounds": *roundsFlag,
		"fault_types": *faultTypes, "oracle": oracle.String(),
		"samples": *samples, "order2": *order2, "seed": *seed,
	})
	if err != nil {
		return err
	}
	defer obsRun.Close(&err)

	atlas, err := explorefault.Sweep(ctx, explorefault.SweepConfig{
		Cipher:     *cipher,
		Rounds:     rounds,
		GranBits:   *gran,
		Models:     models,
		Oracle:     oracle,
		Samples:    *samples,
		MaxOrder:   *maxOrder,
		Threshold:  *threshold,
		Order2:     *order2,
		Order2Cap:  *order2Cap,
		Workers:    *workers,
		NoBatch:    *scalar,
		Seed:       *seed,
		Metrics:    obsRun.Metrics,
		Events:     obsRun.Events,
		Checkpoint: *checkpointPath,
	})
	if err != nil {
		if ctx.Err() != nil && *checkpointPath != "" {
			fmt.Fprintf(stderr, "atlas: interrupted; finished shards saved to %s — rerun with the same arguments to resume\n", *checkpointPath)
		}
		return err
	}

	fmt.Fprintf(stdout, "cipher %s: %d cells (%d rounds x %d positions x %d models%s), %d exploitable, max t = %.2f\n",
		atlas.Cipher, atlas.Summary.Cells, len(atlas.Rounds), atlas.Positions, len(atlas.Models),
		map[bool]string{true: " + order-2 pairs", false: ""}[atlas.Order2],
		atlas.Summary.Exploitable, atlas.Summary.MaxT)
	switch *heatmap {
	case "text":
		fmt.Fprintln(stdout)
		atlas.Heatmap().Render(stdout)
	case "markdown":
		fmt.Fprintln(stdout)
		atlas.Heatmap().RenderMarkdown(stdout)
	}
	if *outPath != "" {
		if err := atlas.WriteFile(*outPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "atlas written to %s\n", *outPath)
	}
	obsRun.Events.Emit(obs.EventRunFinished, map[string]any{
		"binary": "atlas", "cells": atlas.Summary.Cells,
		"exploitable": atlas.Summary.Exploitable, "max_t": atlas.Summary.MaxT,
	})
	return nil
}

func runValidate(path string, stdout io.Writer) error {
	a, err := explorefault.ReadAtlas(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: valid atlas (%s): %d cells, %d exploitable, max t = %.2f, threshold %.1f\n",
		path, a.Schema, a.Summary.Cells, a.Summary.Exploitable, a.Summary.MaxT, a.Threshold)
	return nil
}

func runReplay(logPath, atlasPath string, round int, stdout io.Writer) error {
	a, err := explorefault.ReadAtlas(atlasPath)
	if err != nil {
		return err
	}
	f, err := os.Open(logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := explorefault.CompareAtlas(a, round, f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "round %d: %d episodes (%d leaky), atlas has %d exploitable cells\n",
		rep.Round, rep.Episodes, rep.LeakyEpisodes, rep.ExploitableCells)
	fmt.Fprintf(stdout, "coverage: %d/%d exploitable cells found (%.1f%%)\n",
		rep.FoundCells, rep.ExploitableCells, 100*rep.Coverage)
	if rep.EpisodesToFirstHit > 0 {
		fmt.Fprintf(stdout, "episodes to first exploitable hit: %d\n", rep.EpisodesToFirstHit)
	} else {
		fmt.Fprintln(stdout, "no exploitable atlas cell was hit")
	}
	if rep.OffAtlas > 0 {
		fmt.Fprintf(stdout, "off-atlas leaky episodes (outside the enumerated space): %d\n", rep.OffAtlas)
	}
	if len(rep.ByModel) > 0 {
		data, _ := json.Marshal(rep.ByModel)
		fmt.Fprintf(stdout, "found cells by model: %s\n", data)
	}
	return nil
}
