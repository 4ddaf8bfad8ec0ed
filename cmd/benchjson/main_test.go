package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
cpu: model x
BenchmarkCampaign/gift64-8   	      18	  63464410 ns/op	 1577265 B/op	   12424 allocs/op
BenchmarkCampaign/gift64-8   	      20	  61000000 ns/op	 1500000 B/op	   12000 allocs/op
BenchmarkOracle-8            	     100	   1000000 ns/op
PASS
`

func TestIngest(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	var stdout bytes.Buffer
	err := run([]string{"-label", "before", "-o", out},
		strings.NewReader(benchOutput), &stdout, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Goos != "linux" || rec.CPU != "model x" {
		t.Errorf("environment header: %+v", rec)
	}
	m := rec.Benchmarks["BenchmarkCampaign/gift64"]["before"]
	if m == nil {
		t.Fatalf("missing averaged entry: %+v", rec.Benchmarks)
	}
	if m.Runs != 2 || m.NsPerOp != (63464410+61000000)/2.0 {
		t.Errorf("averaging: %+v", m)
	}

	// Merging a second label preserves the first.
	err = run([]string{"-label", "after", "-o", out},
		strings.NewReader(benchOutput), &stdout, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(out)
	rec = Record{}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Benchmarks["BenchmarkCampaign/gift64"]["before"] == nil ||
		rec.Benchmarks["BenchmarkCampaign/gift64"]["after"] == nil {
		t.Errorf("merge lost a label: %+v", rec.Benchmarks["BenchmarkCampaign/gift64"])
	}
}

// TestIngestQuartiles pins the median and quartiles kept beside the mean:
// linear interpolation between the sorted runs, in any input order.
func TestIngestQuartiles(t *testing.T) {
	const runs = `BenchmarkKernel-2   10   40 ns/op
BenchmarkKernel-2   10   10 ns/op
BenchmarkKernel-2   10   100 ns/op
BenchmarkKernel-2   10   30 ns/op
BenchmarkKernel-2   10   20 ns/op
BenchmarkPair-2     10   60 ns/op
BenchmarkPair-2     10   50 ns/op
`
	var stdout, stderr bytes.Buffer
	if err := run(nil, strings.NewReader(runs), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]Metrics{
		"BenchmarkKernel": {NsPerOp: 40, NsMedian: 30, NsQ1: 20, NsQ3: 40, Runs: 5},
		"BenchmarkPair":   {NsPerOp: 55, NsMedian: 55, NsQ1: 52.5, NsQ3: 57.5, Runs: 2},
	} {
		if got := rec.Benchmarks[name]["after"]; got == nil || *got != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}
}

// writeRecord writes a record file with the given ns/op per benchmark
// under one label.
func writeRecord(t *testing.T, path, label string, ns map[string]float64) {
	t.Helper()
	rec := Record{Benchmarks: map[string]map[string]*Metrics{}}
	for name, v := range ns {
		rec.Benchmarks[name] = map[string]*Metrics{label: {NsPerOp: v, Runs: 5}}
	}
	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	writeRecord(t, old, "after", map[string]float64{
		"BenchmarkCampaign": 100, "BenchmarkOracle": 50, "BenchmarkGone": 10,
	})

	t.Run("ok_within_threshold", func(t *testing.T) {
		cur := filepath.Join(dir, "ok.json")
		writeRecord(t, cur, "after", map[string]float64{
			"BenchmarkCampaign": 110, "BenchmarkOracle": 40, "BenchmarkGone": 10, "BenchmarkNew": 7,
		})
		var out bytes.Buffer
		if err := run([]string{"-compare", old, cur}, nil, &out, &out); err != nil {
			t.Fatalf("10%% slowdown under 20%% threshold should pass: %v\n%s", err, out.String())
		}
		text := out.String()
		if !strings.Contains(text, "+10.0%") || !strings.Contains(text, "-20.0%") {
			t.Errorf("deltas missing:\n%s", text)
		}
		if !strings.Contains(text, "added (1):") || !strings.Contains(text, "New") {
			t.Errorf("added benchmarks should be listed:\n%s", text)
		}
	})

	t.Run("removed_fails", func(t *testing.T) {
		cur := filepath.Join(dir, "shrunk.json")
		writeRecord(t, cur, "after", map[string]float64{
			"BenchmarkCampaign": 100, "BenchmarkOracle": 50,
		})
		var out bytes.Buffer
		err := run([]string{"-compare", old, cur}, nil, &out, &out)
		if err == nil {
			t.Fatalf("a removed benchmark should fail the comparison:\n%s", out.String())
		}
		if !strings.Contains(err.Error(), "removed") || !strings.Contains(out.String(), "removed (1):") {
			t.Errorf("removal not reported: err=%v\n%s", err, out.String())
		}
	})

	t.Run("regression_fails", func(t *testing.T) {
		cur := filepath.Join(dir, "slow.json")
		writeRecord(t, cur, "after", map[string]float64{
			"BenchmarkCampaign": 130, "BenchmarkOracle": 50,
		})
		var out bytes.Buffer
		err := run([]string{"-compare", old, cur}, nil, &out, &out)
		if err == nil {
			t.Fatalf("30%% slowdown should fail:\n%s", out.String())
		}
		if !strings.Contains(err.Error(), "regressed") || !strings.Contains(out.String(), "REGRESSED") {
			t.Errorf("regression not reported: err=%v\n%s", err, out.String())
		}
	})

	t.Run("custom_threshold", func(t *testing.T) {
		cur := filepath.Join(dir, "slow2.json")
		writeRecord(t, cur, "after", map[string]float64{
			"BenchmarkCampaign": 130, "BenchmarkOracle": 50, "BenchmarkGone": 10,
		})
		var out bytes.Buffer
		if err := run([]string{"-compare", "-threshold", "0.5", old, cur}, nil, &out, &out); err != nil {
			t.Fatalf("30%% slowdown under 50%% threshold should pass: %v", err)
		}
	})

	t.Run("label_fallback", func(t *testing.T) {
		// A "before"-labelled baseline compares against an "after" run
		// without flag gymnastics: single-label files fall back.
		base := filepath.Join(dir, "before.json")
		writeRecord(t, base, "before", map[string]float64{"BenchmarkCampaign": 100})
		cur := filepath.Join(dir, "after.json")
		writeRecord(t, cur, "after", map[string]float64{"BenchmarkCampaign": 105})
		var out bytes.Buffer
		if err := run([]string{"-compare", base, cur}, nil, &out, &out); err != nil {
			t.Fatalf("single-label fallback: %v\n%s", err, out.String())
		}
	})

	t.Run("no_overlap", func(t *testing.T) {
		// Disjoint benchmark sets (e.g. two files from different -bench
		// regexes) must fail loudly with the counts, not silently print an
		// empty table or pretend nothing regressed.
		cur := filepath.Join(dir, "disjoint.json")
		writeRecord(t, cur, "after", map[string]float64{
			"BenchmarkSweep": 42, "BenchmarkOther": 7,
		})
		var out bytes.Buffer
		err := run([]string{"-compare", old, cur}, nil, &out, &out)
		if err == nil {
			t.Fatalf("disjoint records should fail the comparison:\n%s", out.String())
		}
		if !strings.Contains(err.Error(), "no shared benchmarks") ||
			!strings.Contains(err.Error(), "3 only in") || !strings.Contains(err.Error(), "2 only in") {
			t.Errorf("error should carry the per-side counts: %v", err)
		}
		text := out.String()
		if !strings.Contains(text, "warning:") || !strings.Contains(text, "share no benchmarks") {
			t.Errorf("explicit warning missing:\n%s", text)
		}
		if !strings.Contains(text, "added (2):") || !strings.Contains(text, "removed (3):") {
			t.Errorf("added/removed sections should still be listed:\n%s", text)
		}
	})

	t.Run("median_and_iqr", func(t *testing.T) {
		// A record with quartiles compares against one written without
		// them: the old side prints "-", and the gate still reads the
		// means (+10% here, under the threshold although the median
		// moved more).
		cur := filepath.Join(dir, "quartiles.json")
		rec := Record{Benchmarks: map[string]map[string]*Metrics{
			"BenchmarkCampaign": {"after": {NsPerOp: 110, NsMedian: 140, NsQ1: 90, NsQ3: 150, Runs: 5}},
			"BenchmarkOracle":   {"after": {NsPerOp: 50, Runs: 5}},
			"BenchmarkGone":     {"after": {NsPerOp: 10, NsMedian: 10, NsQ1: 9, NsQ3: 12, Runs: 5}},
		}}
		data, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(cur, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-compare", old, cur}, nil, &out, &out); err != nil {
			t.Fatalf("mean +10%% should pass whatever the median: %v\n%s", err, out.String())
		}
		text := out.String()
		for _, want := range []string{"+10.0%  median - -> 140 (IQR 60)", "median - -> -", "median - -> 10 (IQR 3)"} {
			if !strings.Contains(text, want) {
				t.Errorf("output lacks %q:\n%s", want, text)
			}
		}
		var back bytes.Buffer
		if err := run([]string{"-compare", cur, cur}, nil, &back, &back); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(back.String(), "median 140 (IQR 60) -> 140 (IQR 60)") {
			t.Errorf("both sides' quartiles missing:\n%s", back.String())
		}
	})

	t.Run("bad_inputs", func(t *testing.T) {
		var sink bytes.Buffer
		for _, args := range [][]string{
			{"-compare"},
			{"-compare", old},
			{"-compare", old, filepath.Join(dir, "missing.json")},
			{"-compare", old, old, old},
		} {
			if err := run(args, nil, &sink, &sink); err == nil {
				t.Errorf("run(%v) should fail", args)
			}
		}
	})
}

// TestCompareOneRecord covers -compare with one record: its "before"
// entries against its "after" entries, through the same gate.
func TestCompareOneRecord(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, sides map[string]map[string]float64) string {
		rec := Record{Benchmarks: map[string]map[string]*Metrics{}}
		for label, set := range sides {
			for bench, ns := range set {
				if rec.Benchmarks[bench] == nil {
					rec.Benchmarks[bench] = map[string]*Metrics{}
				}
				rec.Benchmarks[bench][label] = &Metrics{NsPerOp: ns, NsMedian: ns, NsQ1: ns - 1, NsQ3: ns + 1, Runs: 5}
			}
		}
		path := filepath.Join(dir, name)
		data, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	set := map[string]float64{"BenchmarkCampaign": 100, "BenchmarkOracle": 50}

	t.Run("equal_sets_pass", func(t *testing.T) {
		path := write("equal.json", map[string]map[string]float64{"before": set, "after": set})
		var out bytes.Buffer
		if err := run([]string{"-compare", path}, nil, &out, &out); err != nil {
			t.Fatalf("equal before and after sets should pass: %v\n%s", err, out.String())
		}
		text := out.String()
		for _, want := range []string{path + " before -> " + path + " after", "+0.0%  median 100 (IQR 2) -> 100 (IQR 2)", "ok: 2 benchmarks compared"} {
			if !strings.Contains(text, want) {
				t.Errorf("output lacks %q:\n%s", want, text)
			}
		}
	})

	t.Run("mean_rise_fails", func(t *testing.T) {
		path := write("slow.json", map[string]map[string]float64{
			"before": set, "after": {"BenchmarkCampaign": 125, "BenchmarkOracle": 50},
		})
		var out bytes.Buffer
		err := run([]string{"-compare", path}, nil, &out, &out)
		if err == nil || !strings.Contains(err.Error(), "1 benchmark(s) regressed") {
			t.Fatalf("a 25%% rise of the mean should fail: %v\n%s", err, out.String())
		}
		if !strings.Contains(out.String(), "+25.0%") || !strings.Contains(out.String(), "REGRESSED") {
			t.Errorf("regression not reported:\n%s", out.String())
		}
	})

	t.Run("missing_label_fails", func(t *testing.T) {
		for _, label := range []string{"before", "after"} {
			other := map[string]string{"before": "after", "after": "before"}[label]
			path := write("no-"+label+".json", map[string]map[string]float64{other: set})
			var out bytes.Buffer
			err := run([]string{"-compare", path}, nil, &out, &out)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("no %q entries", label)) {
				t.Errorf("a record without %q entries: err = %v, want one naming the label", label, err)
			}
		}
	})
}

func TestIngestErrors(t *testing.T) {
	var sink bytes.Buffer
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &sink, &sink); err == nil {
		t.Error("empty bench output should fail")
	}
	if err := run([]string{"stray-arg"}, strings.NewReader(benchOutput), &sink, &sink); err == nil {
		t.Error("stray positional arg should fail")
	}
}
