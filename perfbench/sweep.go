package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	explorefault "repro"
	"repro/internal/obs/trace"
)

// The sweep-gift64 workload: an exhaustive order-2 atlas of GIFT-64 over
// every round (28 rounds x (16 nibbles + 120 nibble pairs) = 3,808 cells
// at the default 512 samples), with a shard checkpoint file as the atlas
// CLI and daemon sweep jobs write one. No RL and no cache: kernel,
// accumulation and checkpoint costs show here and not in discovery.
const sweepCipher = "gift64"

// pinnedSweep is the SHA-256 of the default seed's canonical atlas.
const pinnedSweep = "9196f2ba207601bed263c0defc68947cc0f3954ffad83d6d2755345d99f1f7b8"

func sweepConfig(seed uint64, checkpoint string, rounds []int) explorefault.SweepConfig {
	return explorefault.SweepConfig{
		Cipher:     sweepCipher,
		Rounds:     rounds,
		Order2:     true,
		Seed:       seed,
		Checkpoint: checkpoint,
	}
}

// sweepCall is one timed Sweep call.
type sweepCall struct {
	atlas        *explorefault.Atlas
	wall         float64
	cpu          float64 // process CPU seconds during the call
	wrote        float64 // process write(2) bytes during the call
	finalCkBytes float64 // size of the checkpoint file it left
	sum          string  // SHA-256 of the canonical atlas
}

// callSweep runs one sweep against a fresh checkpoint file in dir.
func callSweep(ctx context.Context, dir string, seed uint64, rounds []int) (sweepCall, error) {
	ck := filepath.Join(dir, "sweep.ckpt")
	defer os.Remove(ck)
	before := readIO()
	start, cpu := time.Now(), cpuSeconds()
	atlas, err := explorefault.Sweep(ctx, sweepConfig(seed, ck, rounds))
	call := sweepCall{atlas: atlas, wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu,
		wrote: readIO().wchar - before.wchar}
	if err != nil {
		return call, err
	}
	if st, err := os.Stat(ck); err == nil {
		call.finalCkBytes = float64(st.Size())
	}
	if err := atlas.Validate(); err != nil {
		return call, fmt.Errorf("atlas does not validate: %w", err)
	}
	canon, err := atlas.MarshalCanonical()
	if err != nil {
		return call, err
	}
	sum := sha256.Sum256(canon)
	call.sum = hex.EncodeToString(sum[:])
	return call, nil
}

func runSweep(opt options) (*result, error) {
	ctx := context.Background()
	var clock setupClock
	for i := 0; i < setupRounds; i++ {
		err := clock.run(func() error {
			_, err := callSweep(ctx, opt.workDir, opt.seed, []int{1})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("sweep warm-up: %w", err)
		}
	}

	res := &result{correct: true}
	first := ""
	check := func(call sweepCall, err error) bool {
		res.attempted++
		if err != nil {
			res.failed++
			res.notes = append(res.notes, "sweep failed: "+err.Error())
			return false
		}
		switch {
		case first != "" && call.sum != first:
			res.notes = append(res.notes, "atlas hash differs between calls: "+call.sum)
		case opt.seed == defaultSeed && call.sum != pinnedSweep:
			res.notes = append(res.notes, "atlas hash "+call.sum+" differs from the pinned "+pinnedSweep)
		default:
			if first == "" {
				first = call.sum
				res.notes = append(res.notes, fmt.Sprintf("atlas sha256 %s (%d cells, %d exploitable)",
					call.sum, call.atlas.Summary.Cells, call.atlas.Summary.Exploitable))
			}
			return true
		}
		res.failed++
		res.correct = false
		return false
	}

	var walls, rates, cpus []float64
	var layers []map[string]float64
	var baseWall float64
	if opt.trace {
		call, err := callSweep(ctx, opt.workDir, opt.seed, nil)
		if check(call, err) {
			baseWall = call.wall
		}
	}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for res.attempted == 0 || time.Now().Before(deadline) {
		tr, root, cctx := startTrace(ctx, opt.trace)
		call, err := callSweep(cctx, opt.workDir, opt.seed, nil)
		root.End()
		if !check(call, err) {
			if err != nil {
				break
			}
			continue
		}
		walls = append(walls, call.wall)
		rates = append(rates, float64(call.atlas.Summary.Cells)/call.wall)
		cpus = append(cpus, call.cpu)
		if opt.trace {
			ss, err := readSpans(tr)
			if err != nil {
				return nil, err
			}
			layers = append(layers, sweepLayers(ss, call))
		}
	}

	res.endToEnd = endToEnd(&clock, median(cpus))
	res.named = []namedValue{
		{"sweep.wall_s", "s", median(walls)},
		{"sweep.cells_per_s", "1/s", median(rates)},
		{"sweep.calls", "count", float64(len(walls))},
	}
	if opt.trace {
		lm := medianLayers(layers)
		lm["obs.trace_overhead_ratio"] = median(walls)/baseWall - 1
		info, err := explorefault.LookupCipher(sweepCipher)
		if err != nil {
			return nil, err
		}
		pair := explorefault.PatternFromGroups(64, 4, 0, 1)
		rounds := make([]int, info.Rounds)
		for i := range rounds {
			rounds[i] = i + 1
		}
		cr, err := replayCampaign(sweepCipher, pair, rounds, opt.seed)
		if err != nil {
			return nil, err
		}
		cr.record(lm, res)
		res.layers = layerMetrics(lm)
	}
	return res, nil
}

// sweepLayers attributes one traced sweep call to layers.
func sweepLayers(ss *spanSet, call sweepCall) map[string]float64 {
	m := map[string]float64{
		"sweep.shard_busy_s":         ss.busy(trace.SpanSweepShard),
		"evaluate.assess_busy_s":     ss.busy(trace.SpanAssess),
		"fault.collect_busy_s":       ss.busy(trace.SpanCollect),
		"fault.collect_ns_per_trace": nsPerTrace(ss),
		"checkpoint.bytes_written":   call.wrote,
		"unattributed_ratio":         (call.wall - ss.covered(trace.SpanSweepShard)) / call.wall,
	}
	if call.finalCkBytes > 0 {
		m["checkpoint.write_amplification"] = call.wrote / call.finalCkBytes
	}
	return m
}
