package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/trace"
)

// eventKinds returns the event kinds of a log in order.
func eventKinds(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var kinds []string
	err = ReadEvents(f, func(line int, ev Envelope[struct{}], err error) error {
		kinds = append(kinds, ev.Event)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return kinds
}

// TestStartRunArtifacts: run_started carries the fields to the event log
// and to the root span's attributes, and Close writes the trace and ends
// the log with emitter_stats.
func TestStartRunArtifacts(t *testing.T) {
	dir := t.TempDir()
	eventsPath, tracePath := filepath.Join(dir, "run.jsonl"), filepath.Join(dir, "trace.json")
	run, ctx, err := StartRun(context.Background(), "", eventsPath, tracePath, nil,
		map[string]any{"binary": "test", "round": 25})
	if err != nil {
		t.Fatal(err)
	}
	if run.Metrics == nil || run.Events == nil || trace.FromContext(ctx) == nil {
		t.Fatalf("StartRun left metrics %v, events %v or the root span disabled", run.Metrics, run.Events)
	}
	var runErr error
	run.Close(&runErr)
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got := strings.Join(eventKinds(t, eventsPath), " "); got != "run_started emitter_stats" {
		t.Errorf("event kinds = %s", got)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == trace.SpanRun {
			if ev.Args["binary"] != "test" || ev.Args["round"] != float64(25) {
				t.Errorf("root span args = %v, want the run_started fields", ev.Args)
			}
			return
		}
	}
	t.Fatal("no root span in the trace")
}

// TestStartRunUnwritableTrace: a trace path that cannot be created fails
// StartRun after it opened the event log, and the log is closed again,
// so it ends with emitter_stats.
func TestStartRunUnwritableTrace(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "run.jsonl")
	_, _, err := StartRun(context.Background(), "", eventsPath, filepath.Join(dir, "missing", "trace.json"), nil,
		map[string]any{"binary": "test"})
	if err == nil {
		t.Fatal("StartRun with an unwritable trace path succeeded")
	}
	if got := strings.Join(eventKinds(t, eventsPath), " "); got != EventEmitterStats {
		t.Errorf("event kinds = %s, want %s alone", got, EventEmitterStats)
	}
}
