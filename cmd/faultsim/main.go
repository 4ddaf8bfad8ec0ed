// faultsim assesses a single fault pattern: it runs the fault simulation
// and the higher-order t-test oracle, and prints the leakage verdict plus
// the round-by-round propagation profile.
//
// Patterns are given either as raw bit indices or as group indices
// (nibbles/bytes, matching the cipher's S-box width):
//
//	go run ./cmd/faultsim -cipher aes128 -round 8 -bytes 2,7,8,13
//	go run ./cmd/faultsim -cipher gift64 -round 25 -nibbles 8,9,10,11,12,14
//	go run ./cmd/faultsim -cipher aes128 -round 8 -bits 29,34,35,38,77,118
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	explorefault "repro"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/obs/trace"
)

// stageCheckpointKind tags faultsim stage checkpoints inside the envelope
// of internal/checkpoint (distinct from explore-session checkpoints).
//
// Per-stage results (order-1, order-2, full verdict, propagation) live in
// a checkpoint.Stages store so an interrupted multi-stage run resumes
// after the last finished stage instead of repeating multi-second
// campaigns. The store key is the canonical argument string; a file
// written for different arguments is discarded, not misapplied. Workers
// and -scalar are excluded from the key because results are bit-identical
// across them.
const stageCheckpointKind = "faultsim-stages"

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	// First SIGINT/SIGTERM cancels the run context: the campaign stops at
	// the next shard boundary and the event log is flushed and closed on
	// the way out. A second signal force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: it parses args, runs the assessment and
// propagation profile, and writes human output to stdout. Cancelling ctx
// stops the in-flight campaign at the next shard boundary.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cipher := fs.String("cipher", "aes128", "target cipher: "+fmt.Sprint(explorefault.Ciphers()))
	round := fs.Int("round", 8, "fault-injection round (1-based)")
	bits := fs.String("bits", "", "comma-separated state bit indices")
	nibbles := fs.String("nibbles", "", "comma-separated nibble indices")
	bytesFlag := fs.String("bytes", "", "comma-separated byte indices")
	samples := fs.Int("samples", 2048, "plaintexts per t-test")
	faultType := fs.String("fault-type", "xor", "typed fault model: xor, stuck-at-0, stuck-at-1, biased-and, random-byte, random-nibble")
	oracleName := fs.String("oracle", "welch", "leakage oracle: welch (t-test on ciphertext differentials) or sifa (ineffective-fault conditioning)")
	workers := fs.Int("workers", 0, "fault-campaign worker goroutines (0 = GOMAXPROCS; results are identical for every value)")
	scalar := fs.Bool("scalar", false, "force the scalar reference path instead of the batch cipher kernel (bit-identical, slower)")
	seed := fs.Uint64("seed", 1, "experiment seed")
	eventsPath := fs.String("events", "", "write structured JSONL run events to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON span timeline to this file (open in ui.perfetto.dev)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	checkpointPath := fs.String("checkpoint", "", "persist per-stage results to this file; rerunning with the same arguments resumes after the last finished stage")
	if err := fs.Parse(args); err != nil {
		return err
	}

	info, err := explorefault.LookupCipher(*cipher)
	if err != nil {
		return err
	}
	stateBits := 8 * info.BlockBytes

	pattern := explorefault.NewPattern(stateBits)
	vs, err := parseInts(*bits)
	if err != nil {
		return fmt.Errorf("bad -bits: %v", err)
	}
	for _, b := range vs {
		pattern.Set(b)
	}
	if vs, err := parseInts(*nibbles); err != nil {
		return fmt.Errorf("bad -nibbles: %v", err)
	} else if len(vs) > 0 {
		p := explorefault.PatternFromGroups(stateBits, 4, vs...)
		pattern.Or(&p)
	}
	if vs, err := parseInts(*bytesFlag); err != nil {
		return fmt.Errorf("bad -bytes: %v", err)
	} else if len(vs) > 0 {
		p := explorefault.PatternFromGroups(stateBits, 8, vs...)
		pattern.Or(&p)
	}
	if pattern.IsZero() {
		return errors.New("empty pattern: pass -bits, -nibbles or -bytes")
	}
	faultModel, err := explorefault.ParseFaultModel(*faultType)
	if err != nil {
		return fmt.Errorf("bad -fault-type: %v", err)
	}
	oracle, err := explorefault.ParseOracle(*oracleName)
	if err != nil {
		return fmt.Errorf("bad -oracle: %v", err)
	}

	obsRun, ctx, err := obs.StartRun(ctx, *metricsAddr, *eventsPath, *tracePath, stderr, map[string]any{
		"binary": "faultsim", "cipher": *cipher, "round": *round,
		"bits": pattern.Count(), "samples": *samples, "seed": *seed,
		"fault_model": faultModel.String(), "oracle": oracle.String(),
	})
	if err != nil {
		return err
	}
	defer obsRun.Close(&err)

	// Stage checkpointing: load any prior partial run for these exact
	// arguments, then persist after every finished stage so an interrupt
	// costs at most one stage. An empty -checkpoint yields an in-memory
	// store with the same control flow.
	key := fmt.Sprintf("%s|r%d|%s|s=%d|m=%s|o=%s|seed=%d",
		*cipher, *round, pattern.String(), *samples, faultModel, oracle, *seed)
	stages, err := checkpoint.OpenStages(*checkpointPath, stageCheckpointKind, key)
	if err != nil {
		return fmt.Errorf("loading -checkpoint: %w", err)
	}
	putStage := func(stage string, val any) error {
		if err := stages.Put(stage, val); err != nil {
			return err
		}
		if *checkpointPath != "" {
			obsRun.Events.Emit(obs.EventCheckpointSaved, map[string]any{
				"binary": "faultsim", "stage": stage, "path": *checkpointPath,
			})
		}
		return nil
	}
	assessStage := func(stage string, fixedOrder int) (explorefault.Assessment, error) {
		var a explorefault.Assessment
		if stages.Done(stage, &a) {
			return a, nil
		}
		// One span per stage, named after it, so the trace timeline shows
		// where a multi-stage run spent its time (and which stages a
		// resumed run skipped).
		ssp, sctx := trace.StartSpan(ctx, stage)
		a, err := explorefault.AssessContext(sctx, pattern, explorefault.AssessConfig{
			Cipher: *cipher, Round: *round, Samples: *samples,
			FaultModel: faultModel, Oracle: oracle,
			FixedOrder: fixedOrder, Workers: *workers, NoBatch: *scalar, Seed: *seed,
			Metrics: obsRun.Metrics, Events: obsRun.Events,
		})
		ssp.SetAttr("t", a.T)
		ssp.End()
		if err != nil {
			return a, err
		}
		return a, putStage(stage, &a)
	}

	fmt.Fprintf(stdout, "cipher %s, fault at round %d, pattern %s (%d bits), model %s, oracle %s\n\n",
		*cipher, *round, pattern.String(), pattern.Count(), faultModel, oracle)

	for order := 1; order <= 2; order++ {
		a, err := assessStage(fmt.Sprintf("order%d", order), order)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "order-%d t-test: t = %8.2f at %s\n", order, a.T, a.Point)
	}
	full, err := assessStage("full", 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "verdict: t = %.2f (threshold %.1f) -> exploitable = %v\n\n",
		full.T, full.Threshold, full.Leaky)

	var prof *explorefault.PropagationProfile
	if !stages.Done("propagation", &prof) {
		if err := ctx.Err(); err != nil {
			return err
		}
		psp, _ := trace.StartSpan(ctx, "propagation")
		prof, err = explorefault.PropagateModel(pattern, *cipher, nil, faultModel, *round, *samples, *seed)
		psp.End()
		if err != nil {
			return err
		}
		if err := putStage("propagation", prof); err != nil {
			return err
		}
	}
	fmt.Fprintln(stdout, "propagation profile (round inputs after injection):")
	for r := *round + 1; r <= info.Rounds; r++ {
		fmt.Fprintf(stdout, "  round %2d: %6.2f active groups, %.2f bits entropy, max |corr| %.3f\n",
			r, prof.ActiveGroups[r-1], prof.Entropy[r-1], prof.MaxAbsCorr[r-1])
	}
	if prof.DistinguisherRound > 0 {
		fmt.Fprintf(stdout, "deepest distinguisher: round %d input\n", prof.DistinguisherRound)
	} else {
		fmt.Fprintln(stdout, "no distinguisher found after the injection round")
	}

	obsRun.Events.Emit(obs.EventRunFinished, map[string]any{
		"binary": "faultsim", "t": full.T, "leaky": full.Leaky,
		"distinguisher_round": prof.DistinguisherRound,
	})
	return nil
}
