// explorefault is the command-line front end of the discovery framework:
// it trains the RL agent against a chosen cipher and round (optionally
// behind the duplication countermeasure) and prints the converged fault
// pattern, the verified fault models, and the training census.
//
// Examples:
//
//	go run ./cmd/explorefault -cipher gift64 -round 25 -episodes 1000
//	go run ./cmd/explorefault -cipher aes128 -round 8 -episodes 2000
//	go run ./cmd/explorefault -cipher aes128 -round 9 -protected
//	go run ./cmd/explorefault -cipher gift64 -round 25 \
//	    -events run.jsonl -metrics-addr localhost:6060
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	explorefault "repro"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	// First SIGINT/SIGTERM cancels the run context: the session stops at
	// the next episode boundary, writes a final checkpoint, and the event
	// log and metrics endpoint are flushed and closed on the way out. A
	// second signal restores default handling, so Ctrl-C twice force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "explorefault:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: it parses args, executes the discovery
// session, and writes human output to stdout and diagnostics to stderr.
// Cancelling ctx stops the session at the next episode boundary.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("explorefault", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cipher := fs.String("cipher", "gift64", "target cipher: "+fmt.Sprint(explorefault.Ciphers()))
	round := fs.Int("round", 25, "fault-injection round (1-based)")
	episodes := fs.Int("episodes", 1000, "training episode budget")
	protected := fs.Bool("protected", false, "evaluate the duplication countermeasure (ciphertext-only t-test)")
	faultTypes := fs.String("fault-type", "xor", "typed fault model(s) the agent may inject, comma-separated: xor, stuck-at-0, stuck-at-1, biased-and, random-byte, random-nibble")
	oracleName := fs.String("oracle", "welch", "leakage oracle: welch (t-test on ciphertext differentials) or sifa (ineffective-fault conditioning)")
	samples := fs.Int("samples", 512, "t-test samples per reward evaluation")
	workers := fs.Int("workers", 0, "fault-campaign worker goroutines per oracle (0 = GOMAXPROCS; results are identical for every value)")
	scalar := fs.Bool("scalar", false, "force the scalar reference path instead of the batch cipher kernel (bit-identical, slower)")
	cache := fs.Bool("cache", true, "memoize oracle evaluations (exact; disable to pay full simulation cost per episode)")
	seed := fs.Uint64("seed", 1, "experiment seed")
	keyHex := fs.String("key", "", "cipher key in hex (default: random from seed)")
	eventsPath := fs.String("events", "", "write structured JSONL run events to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON span timeline to this file (open in ui.perfetto.dev)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	checkpointPath := fs.String("checkpoint", "", "snapshot training state to this file (atomic; written at update boundaries and on interrupt)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "episodes between periodic checkpoint writes (0 = default cadence)")
	resume := fs.Bool("resume", false, "restore training state from -checkpoint before running (missing file starts fresh)")
	verbose := fs.Bool("v", false, "print training progress")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var key []byte
	if *keyHex != "" {
		var err error
		if key, err = hex.DecodeString(*keyHex); err != nil {
			return fmt.Errorf("bad -key: %v", err)
		}
	}

	if *resume && *checkpointPath == "" {
		return errors.New("-resume requires -checkpoint")
	}

	faultModels, err := parseFaultTypes(*faultTypes)
	if err != nil {
		return err
	}
	oracle, err := explorefault.ParseOracle(*oracleName)
	if err != nil {
		return err
	}

	obsRun, ctx, err := obs.StartRun(ctx, *metricsAddr, *eventsPath, *tracePath, stderr, map[string]any{
		"binary": "explorefault", "cipher": *cipher, "round": *round,
		"episodes": *episodes, "protected": *protected, "seed": *seed,
		"fault_types": *faultTypes, "oracle": oracle.String(),
	})
	if err != nil {
		return err
	}
	defer obsRun.Close(&err)

	cfg := explorefault.DiscoverConfig{
		Cipher:          *cipher,
		Key:             key,
		Round:           *round,
		Protected:       *protected,
		FaultModels:     faultModels,
		Oracle:          oracle,
		Episodes:        *episodes,
		Samples:         *samples,
		Workers:         *workers,
		NoBatch:         *scalar,
		NoOracleCache:   !*cache,
		Seed:            *seed,
		Metrics:         obsRun.Metrics,
		Events:          obsRun.Events,
		Checkpoint:      *checkpointPath,
		CheckpointEvery: *checkpointEvery,
		Resume:          *resume,
	}
	if *verbose {
		cfg.Progress = func(p explorefault.Progress) {
			if p.Episodes%100 < 8 {
				fmt.Fprintf(stderr,
					"episode %5d: exploitable %.2f, avg bits %5.1f, best %3d, entropy %.2f\n",
					p.Episodes, p.AvgLeaky, p.AvgBits, p.BestLeakyN, p.Entropy)
			}
		}
	}

	start := time.Now()
	res, err := explorefault.DiscoverContext(ctx, cfg)
	if err != nil {
		obsRun.Events.Emit(obs.EventRunFinished, map[string]any{"binary": "explorefault", "error": err.Error()})
		if errors.Is(err, context.Canceled) && *checkpointPath != "" {
			fmt.Fprintf(stderr, "interrupted; training state saved to %s (resume with -resume)\n", *checkpointPath)
		}
		return err
	}

	fmt.Fprintf(stdout, "cipher: %s, round %d, protected=%v, key %x\n", *cipher, *round, *protected, res.Key)
	fmt.Fprintf(stdout, "trained %d episodes in %s (%.0f episodes/min, %.0f steps/min)\n",
		res.Episodes, time.Since(start).Round(time.Second), res.EpisodesPerMin, res.StepsPerMin)
	if lookups := res.Cache.Hits + res.Cache.Misses; lookups > 0 {
		fmt.Fprintf(stdout, "oracle cache: %d hits / %d lookups (%.0f%% hit rate, %d evictions)\n",
			res.Cache.Hits, lookups, 100*res.Cache.HitRate(), res.Cache.Evictions)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "converged pattern: %s\n", res.Converged.String())
	if len(faultModels) > 1 {
		fmt.Fprintf(stdout, "  fault model: %s\n", res.ConvergedModel)
	}
	fmt.Fprintf(stdout, "  leakage t = %.1f, exploitable = %v\n\n", res.ConvergedT, res.ConvergedLeaky)

	if len(res.Models) > 0 {
		tb := report.NewTable("verified fault models", "model", "t statistic")
		for _, m := range res.Models {
			tb.AddRow(m.String(), fmt.Sprintf("%.1f", m.T))
		}
		tb.Render(stdout)
	}

	tb := report.NewTable("training census (per 1000-episode window)",
		"episodes", "exploitable", "1-bit", "multi-bit", "avg bits")
	for _, b := range res.Buckets {
		tb.AddRow(fmt.Sprintf("%d-%d", b.StartEpisode, b.EndEpisode),
			b.LeakyEpisodes, b.SingleBitModels, b.MultiBitModels,
			fmt.Sprintf("%.1f", b.AvgBitsSelected))
	}
	tb.Render(stdout)

	obsRun.Events.Emit(obs.EventRunFinished, map[string]any{
		"binary": "explorefault", "episodes": res.Episodes,
		"converged_leaky": res.ConvergedLeaky, "models": len(res.Models),
	})
	return nil
}

// parseFaultTypes parses the comma-separated -fault-type list.
func parseFaultTypes(s string) ([]explorefault.FaultModel, error) {
	var out []explorefault.FaultModel
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		fm, err := explorefault.ParseFaultModel(name)
		if err != nil {
			return nil, fmt.Errorf("bad -fault-type: %w", err)
		}
		out = append(out, fm)
	}
	if len(out) == 0 {
		return nil, errors.New("bad -fault-type: empty list")
	}
	return out, nil
}
