// dfa mounts the key-recovery attack a discovered fault model enables:
// the Piret–Quisquater DFA for AES-128 byte faults, or the nibble-wise
// guess-and-filter DFA for GIFT-64 and GIFT-128 (any nibble-level fault
// model).
//
// Examples:
//
//	go run ./cmd/dfa -cipher aes128
//	go run ./cmd/dfa -cipher gift64 -nibbles 8,9,10,11,12,14 -round 25
//	go run ./cmd/dfa -cipher gift128 -pairs 96
package main

import (
	"context"
	"encoding/hex"
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
	"repro/internal/obs/trace"
)

// giftNames maps the GIFT variants the nibble DFA attacks to the names
// printed in the banner. Each variant's state width and default fault
// round (rounds - 3, GIFTDFA's default) come from the cipher registry.
var giftNames = map[string]string{"gift64": "GIFT-64", "gift128": "GIFT-128"}

func main() {
	// First SIGINT/SIGTERM cancels the run context so the event log and
	// metrics endpoint are flushed and closed on the way out; a second
	// signal force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dfa:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: it parses args, mounts the key-recovery
// attack, and writes human output to stdout. The attack itself is short;
// ctx is checked between setup and the attack.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("dfa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cipher := fs.String("cipher", "gift64", "target cipher: aes128, gift64 or gift128")
	nibbles := fs.String("nibbles", "8,9,10,11,12,14", "GIFT fault-model nibbles")
	round := fs.Int("round", 0, "fault round (default rounds - 3: 25 for gift64, 37 for gift128; aes128 faults round 9 only)")
	faultType := fs.String("fault-type", "xor", "typed fault model: xor, stuck-at-0, stuck-at-1, biased-and, random-byte, random-nibble (GIFT only; aes128 is defined for xor)")
	pairs := fs.Int("pairs", 256, "faulty encryptions to collect")
	seed := fs.Uint64("seed", 1, "experiment seed")
	keyHex := fs.String("key", "", "victim key in hex (default: random from seed)")
	eventsPath := fs.String("events", "", "write structured JSONL run events to this file")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON span timeline to this file (open in ui.perfetto.dev)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
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

	faultModel, err := explorefault.ParseFaultModel(*faultType)
	if err != nil {
		return fmt.Errorf("bad -fault-type: %v", err)
	}

	// The banner is printed once VerifyKeyRecovery has accepted the
	// round and pair count, so a rejected run prints none.
	var banner string
	pattern := explorefault.Pattern{}
	name, isGIFT := giftNames[*cipher]
	switch {
	case isGIFT:
		info, err := explorefault.LookupCipher(*cipher)
		if err != nil {
			return err
		}
		width := 8 * info.BlockBytes
		var ns []int
		for _, part := range strings.Split(*nibbles, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -nibbles: %v", err)
			}
			if v < 0 || v >= width/4 {
				return fmt.Errorf("bad -nibbles: nibble %d out of range (want 0..%d)", v, width/4-1)
			}
			ns = append(ns, v)
		}
		if *round == 0 {
			*round = info.Rounds - 3
		}
		pattern = explorefault.PatternFromGroups(width, 4, ns...)
		banner = fmt.Sprintf("%s DFA: fault model %s, nibbles %v at round %d, %d pairs\n", name, faultModel, ns, *round, *pairs)
	case *cipher == "aes128":
		banner = "AES-128 Piret–Quisquater DFA: single-byte faults at round 9\n"
	default:
		return fmt.Errorf("no key-recovery attack for cipher %q (want aes128, gift64 or gift128)", *cipher)
	}

	obsRun, ctx, err := obs.StartRun(ctx, *metricsAddr, *eventsPath, *tracePath, stderr, map[string]any{
		"binary": "dfa", "cipher": *cipher, "round": *round,
		"pairs": *pairs, "seed": *seed, "fault_model": faultModel.String(),
	})
	if err != nil {
		return err
	}
	defer obsRun.Close(&err)

	if err := ctx.Err(); err != nil {
		return err
	}
	asp, _ := trace.StartSpan(ctx, "key_recovery")
	res, err := explorefault.VerifyKeyRecovery(pattern, explorefault.VerifyConfig{
		Cipher: *cipher, Key: key, Round: *round, Pairs: *pairs,
		FaultModel: faultModel, Seed: *seed,
	})
	asp.End()
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, banner)
	fmt.Fprintf(stdout, "recovered key bits : %d / %d\n", res.RecoveredBits, res.TotalKeyBits)
	fmt.Fprintf(stdout, "faulty encryptions : %d\n", res.FaultsUsed)
	fmt.Fprintf(stdout, "offline complexity : ~2^%.1f\n", res.OfflineLog2)
	fmt.Fprintf(stdout, "verified correct   : %v\n", res.Correct)
	fmt.Fprintf(stdout, "detail             : %s\n", res.Notes)

	obsRun.Events.Emit(obs.EventRunFinished, map[string]any{
		"binary": "dfa", "recovered_bits": res.RecoveredBits,
		"total_key_bits": res.TotalKeyBits, "correct": res.Correct,
	})
	return nil
}
