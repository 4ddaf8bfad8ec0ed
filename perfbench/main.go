// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads through the public entry points — RL discovery
// (explorefault.DiscoverContext), an exhaustive atlas sweep
// (explorefault.Sweep) and the explorefaultd job API over loopback HTTP —
// checks their outputs, and prints one JSON result line.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload discover-aes128 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics: the run
// attaches a span tracer to every public call it makes, computes each
// layer's busy and self time from the spans the program already emits,
// and replays single layers through their public functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// processStart is taken as early as the program can: set-up time is
// measured from here to the first timed operation.
var processStart = time.Now()

// defaultSeed is the seed the correctness pins were recorded under.
const defaultSeed = 1

// setupRounds is how many times each workload repeats its set-up; setup_s
// reports the median.
const setupRounds = 3

// options are the command-line flags shared by every workload.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	workDir string // scratch space inside the checkout, removed at exit
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	correct           bool
	// endToEnd holds the contract's end-to-end metrics (tracing off);
	// layers the per-layer metrics (tracing on).
	endToEnd map[string]metric
	layers   map[string]metric
	// named are the workload's end-to-end figures under their
	// workload-specific names, printed for readers.
	named []namedValue
	notes []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type namedValue struct {
	name, unit string
	value      float64
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options) (*result, error){
	"discover-aes128": runDiscover,
	"sweep-gift64":    runSweep,
	"jobserver":       runJobServer,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	// Scratch files live under .bench_build in the working directory, so
	// a run reads and writes only inside its checkout.
	base, err := filepath.Abs(".bench_build")
	if err == nil {
		err = os.MkdirAll(base, 0o755)
	}
	var work string
	if err == nil {
		work, err = os.MkdirTemp(base, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	opt := options{seed: *seed, seconds: *seconds, trace: *traced == 1, workDir: work}
	host := readHostCPU()
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.notes = append(res.notes, readHostCPU().since(host))
	printResult(*workload, opt, res)
	return 0
}

// endToEnd assembles the end-to-end metrics every workload reports.
func endToEnd(setup *setupClock, cpuPerOp float64) map[string]metric {
	return map[string]metric{
		"setup_s":      {median(setup.times), "s"},
		"peak_rss_mb":  {peakRSSMB(), "MB"},
		"cpu_s_per_op": {cpuPerOp, "s"},
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printResult writes the readable summary and, as the last line, the
// JSON result object.
func printResult(workload string, opt options, res *result) {
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%v\n", workload, opt.seed, opt.seconds, opt.trace)
	fmt.Printf("# go=%s GOOS=%s GOARCH=%s nproc=%d GOMAXPROCS=%d cpu=%q\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Printf("failed_ratio              %.6g fraction (%d failed of %d attempted)\n", ratio, res.failed, res.attempted)
	for _, nv := range res.named {
		fmt.Printf("%-25s %.6g %s\n", nv.name, nv.value, nv.unit)
	}
	metrics := res.endToEnd
	if opt.trace {
		metrics = res.layers
	}
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-32s %.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   res.correct && res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(out))
}

// cpuModel reads the processor name for the run metadata.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
