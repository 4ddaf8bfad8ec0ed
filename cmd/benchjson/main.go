// benchjson converts `go test -bench` output into a JSON record keyed by
// benchmark name and run label, averaging repeated -count runs and
// keeping their median and quartiles beside the mean. Feeding
// two runs into the same output file under different labels (e.g.
// "before" and "after") produces a machine-readable comparison:
//
//	go test -run '^$' -bench 'Campaign|Oracle|Encrypt' -benchmem -count 5 . |
//	    go run ./cmd/benchjson -label after -o BENCH_pr2.json
//
// An existing output file is merged, not overwritten: only the entries of
// the given label are replaced.
//
// -compare mode instead diffs benchmark sets benchmark by benchmark and
// exits nonzero when any shared benchmark slowed down beyond the
// threshold or any baseline benchmark is missing from the new set, so
// CI (or a pre-merge checklist) can gate on "this change did not regress
// the kernels and did not silently drop coverage". The gate reads the
// means; each side's median and interquartile range are printed beside
// them, so a reader can tell a shift from the runs' own spread. Added and
// removed benchmarks are listed in their own sections. Given one record,
// it compares that record's "before" entries with its "after" entries,
// two sets best recorded interleaved on one host so that host drift
// falls on both; given two records, it compares them under -label:
//
//	go run ./cmd/benchjson -compare BENCH_pr22.json
//	go run ./cmd/benchjson -compare BENCH_pr2.json BENCH_pr5.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's averaged measurements under one label, with
// the median and quartiles of its ns/op runs. Records written before
// the quartiles were kept lack them; they read as zero.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsMedian    float64 `json:"ns_median,omitempty"`
	NsQ1        float64 `json:"ns_q1,omitempty"`
	NsQ3        float64 `json:"ns_q3,omitempty"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Runs        int     `json:"runs"`
}

// Record is the file layout: environment header plus, per benchmark name,
// one Metrics entry per label.
type Record struct {
	Goos       string                         `json:"goos,omitempty"`
	Goarch     string                         `json:"goarch,omitempty"`
	CPU        string                         `json:"cpu,omitempty"`
	Benchmarks map[string]map[string]*Metrics `json:"benchmarks"`
}

// benchLine matches one result line, e.g.
// "BenchmarkFoo/sub-8  18  63464410 ns/op  1577265 B/op  12424 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run is the testable CLI body.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	label := fs.String("label", "after", "label for this run's entries (e.g. before, after); in -compare mode, the label to read from each file")
	out := fs.String("o", "", "output JSON file (merged if it exists; default stdout)")
	compare := fs.Bool("compare", false, "compare one record's before and after entries (benchjson -compare rec.json) or two record files (benchjson -compare old.json new.json)")
	threshold := fs.Float64("threshold", 0.20, "relative ns/op regression threshold for -compare (0.20 = 20%)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *compare {
		switch fs.NArg() {
		case 1:
			return compareLabels(stdout, fs.Arg(0), *threshold)
		case 2:
			return compareRecords(stdout, fs.Arg(0), fs.Arg(1), *label, *threshold)
		}
		return errors.New("-compare needs one record file (rec.json, before against after) or two (old.json new.json)")
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v (reading bench output from stdin; did you mean -compare?)", fs.Args())
	}
	return ingest(stdin, stdout, *label, *out)
}

// ingest reads `go test -bench` output from stdin and writes (or merges)
// the JSON record.
func ingest(stdin io.Reader, stdout io.Writer, label, out string) error {
	rec := Record{Benchmarks: map[string]map[string]*Metrics{}}
	if out != "" {
		if data, err := os.ReadFile(out); err == nil {
			if err := json.Unmarshal(data, &rec); err != nil {
				return fmt.Errorf("existing %s is not valid: %v", out, err)
			}
			if rec.Benchmarks == nil {
				rec.Benchmarks = map[string]map[string]*Metrics{}
			}
		}
	}

	type sums struct {
		ns, bytes, allocs float64
		runs              int
		nsRuns            []float64
	}
	totals := map[string]*sums{}
	var order []string
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rec.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rec.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rec.CPU = strings.TrimPrefix(line, "cpu: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		t, ok := totals[name]
		if !ok {
			t = &sums{}
			totals[name] = t
			order = append(order, name)
		}
		ns, err := atof(m[2])
		if err != nil {
			return err
		}
		b, err := atof(m[3])
		if err != nil {
			return err
		}
		allocs, err := atof(m[4])
		if err != nil {
			return err
		}
		t.ns += ns
		t.nsRuns = append(t.nsRuns, ns)
		t.bytes += b
		t.allocs += allocs
		t.runs++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stdin: %v", err)
	}
	if len(totals) == 0 {
		return errors.New("no benchmark lines on stdin")
	}

	for _, name := range order {
		t := totals[name]
		n := float64(t.runs)
		if rec.Benchmarks[name] == nil {
			rec.Benchmarks[name] = map[string]*Metrics{}
		}
		slices.Sort(t.nsRuns)
		rec.Benchmarks[name][label] = &Metrics{
			NsPerOp:     t.ns / n,
			NsMedian:    quantile(t.nsRuns, 0.5),
			NsQ1:        quantile(t.nsRuns, 0.25),
			NsQ3:        quantile(t.nsRuns, 0.75),
			BPerOp:      t.bytes / n,
			AllocsPerOp: t.allocs / n,
			Runs:        t.runs,
		}
	}

	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err := stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchjson: wrote %d %q entries to %s\n", len(totals), label, out)
	return nil
}

// quantile returns the p-quantile of sorted, interpolating linearly
// between the order statistics at p·(n-1).
func quantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// spread formats a record's median and interquartile range, or "-" for
// a record written without them.
func spread(m *Metrics) string {
	if m.NsMedian == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f (IQR %.0f)", m.NsMedian, m.NsQ3-m.NsQ1)
}

// pickLabel returns the metrics of label in one benchmark's entry map,
// falling back to the sole entry when the file uses a single different
// label (e.g. comparing a "before" baseline against an "after" record).
func pickLabel(entries map[string]*Metrics, label string) *Metrics {
	if m, ok := entries[label]; ok {
		return m
	}
	if len(entries) == 1 {
		for _, m := range entries {
			return m
		}
	}
	return nil
}

// loadRecord reads a record file that holds at least one benchmark.
func loadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &rec, nil
}

// labelSet maps each benchmark of rec to its entry under label. With
// fallback set, a benchmark without that label contributes its sole entry
// (see pickLabel).
func labelSet(rec *Record, label string, fallback bool) map[string]*Metrics {
	set := map[string]*Metrics{}
	for name, entries := range rec.Benchmarks {
		m := entries[label]
		if fallback {
			m = pickLabel(entries, label)
		}
		if m != nil {
			set[name] = m
		}
	}
	return set
}

// compareRecords compares two record files under label.
func compareRecords(w io.Writer, oldPath, newPath string, label string, threshold float64) error {
	oldRec, err := loadRecord(oldPath)
	if err != nil {
		return err
	}
	newRec, err := loadRecord(newPath)
	if err != nil {
		return err
	}
	return compareSets(w, oldPath, newPath, labelSet(oldRec, label, true), labelSet(newRec, label, true), threshold)
}

// compareLabels compares the "before" entries of one record file with its
// "after" entries; a record that lacks either label fails.
func compareLabels(w io.Writer, path string, threshold float64) error {
	rec, err := loadRecord(path)
	if err != nil {
		return err
	}
	before, after := labelSet(rec, "before", false), labelSet(rec, "after", false)
	switch {
	case len(before) == 0:
		return fmt.Errorf("%s has no %q entries to compare", path, "before")
	case len(after) == 0:
		return fmt.Errorf("%s has no %q entries to compare", path, "after")
	}
	return compareSets(w, path+" before", path+" after", before, after, threshold)
}

// compareSets prints per-benchmark ns/op deltas between two benchmark
// sets, with each side's median and interquartile range, and returns an
// error when any shared benchmark's mean regressed beyond threshold or
// when any benchmark disappeared. Added and removed
// benchmarks get their own sections after the shared table: additions are
// informational, but a removed benchmark usually means lost coverage (a
// rename or a dropped case), so it fails the comparison and must be
// renamed in the baseline or acknowledged by regenerating it.
func compareSets(w io.Writer, oldName, newName string, oldSet, newSet map[string]*Metrics, threshold float64) error {
	names := make([]string, 0, len(oldSet))
	for name := range oldSet {
		names = append(names, name)
	}
	for name := range newSet {
		if _, ok := oldSet[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	fmt.Fprintf(w, "benchmark comparison: %s -> %s (regression threshold %+.0f%%)\n",
		oldName, newName, 100*threshold)
	regressed := 0
	compared := 0
	var added, removed []string
	for _, name := range names {
		o, n := oldSet[name], newSet[name]
		short := strings.TrimPrefix(name, "Benchmark")
		switch {
		case o == nil:
			added = append(added, short)
		case n == nil:
			removed = append(removed, short)
		case o.NsPerOp <= 0:
			fmt.Fprintf(w, "  %-50s old ns/op is zero; skipped\n", short)
		default:
			compared++
			delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp
			verdict := ""
			if delta > threshold {
				verdict = "  REGRESSED"
				regressed++
			}
			fmt.Fprintf(w, "  %-50s %12.0f -> %12.0f ns/op  %+6.1f%%  median %s -> %s%s\n",
				short, o.NsPerOp, n.NsPerOp, 100*delta, spread(o), spread(n), verdict)
		}
	}
	if len(added) > 0 {
		fmt.Fprintf(w, "added (%d):\n", len(added))
		for _, name := range added {
			fmt.Fprintf(w, "  %s\n", name)
		}
	}
	if len(removed) > 0 {
		fmt.Fprintf(w, "removed (%d):\n", len(removed))
		for _, name := range removed {
			fmt.Fprintf(w, "  %s\n", name)
		}
	}
	if compared == 0 {
		// No overlap at all usually means the two sets come from
		// different bench regexes (or one side was regenerated under new
		// names); say so explicitly instead of printing an empty table.
		fmt.Fprintf(w, "warning: %s and %s share no benchmarks (%d only in old, %d only in new) — were they produced by the same -bench pattern?\n",
			oldName, newName, len(removed), len(added))
		return fmt.Errorf("no shared benchmarks to compare (%d only in %s, %d only in %s)",
			len(removed), oldName, len(added), newName)
	}
	var failures []string
	if regressed > 0 {
		failures = append(failures, fmt.Sprintf("%d benchmark(s) regressed beyond %.0f%%", regressed, 100*threshold))
	}
	if len(removed) > 0 {
		failures = append(failures, fmt.Sprintf("%d benchmark(s) removed", len(removed)))
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	fmt.Fprintf(w, "ok: %d benchmarks compared, none regressed, none removed\n", compared)
	return nil
}

func atof(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q: %v", s, err)
	}
	return v, nil
}
