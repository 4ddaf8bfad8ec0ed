// tracecheck validates a Chrome trace-event JSON file written with
// -trace: the document must parse, every complete ("X") event must have
// a non-negative duration, and each span name given as an extra argument
// must appear at least once. CI runs it over the smoke run's trace so a
// schema regression fails the build before anyone loads a broken file
// into Perfetto.
//
//	go run ./cmd/tracecheck trace.json run session episode
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/obs/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body: args are the trace path followed by
// required span names.
func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return errors.New("usage: tracecheck trace.json [required-span-name ...]")
	}
	entries, err := trace.ReadFile(args[0])
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("%s: no trace events", args[0])
	}
	spans := 0
	seen := map[string]int{}
	for i, ev := range entries {
		switch ev.Ph {
		case "X":
			if ev.Dur < 0 || ev.TS < 0 {
				return fmt.Errorf("%s: event %d (%s): negative ts/dur", args[0], i, ev.Name)
			}
			spans++
			seen[ev.Name]++
		case "M":
			// Metadata (process/thread names) carries no timing.
		default:
			return fmt.Errorf("%s: event %d (%s): unexpected phase %q", args[0], i, ev.Name, ev.Ph)
		}
	}
	if spans == 0 {
		return fmt.Errorf("%s: no complete (\"X\") spans", args[0])
	}
	var missing []string
	for _, want := range args[1:] {
		if seen[want] == 0 {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: required spans missing: %v", args[0], missing)
	}
	fmt.Fprintf(stdout, "tracecheck: %s ok (%d spans, %d names)\n", args[0], spans, len(seen))
	return nil
}
