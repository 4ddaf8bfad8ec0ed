package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// rawEvent mirrors the wire shape for schema validation.
type rawEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   *float64       `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  *int64         `json:"pid"`
	TID  *int64         `json:"tid"`
	Args map[string]any `json:"args"`
}

type rawTrace struct {
	TraceEvents     []rawEvent `json:"traceEvents"`
	DisplayTimeUnit string     `json:"displayTimeUnit"`
}

// buildSampleTrace records a realistic hierarchy: run → session →
// episode (cross-goroutine) → oracle_eval → assess → concurrent shards.
func buildSampleTrace(t *testing.T) *Tracer {
	t.Helper()
	tr := New()
	tr.NameLane(1, "env-0")

	run, ctx := tr.StartRoot(context.Background(), SpanRun)
	run.SetAttr("binary", "test")
	sess, sctx := StartSpan(ctx, SpanSession)

	ep, ectx := StartSpanCross(sctx, SpanEpisode)
	ep.SetLane(1)
	eval, evctx := StartSpan(ectx, SpanOracleEval)
	assess, actx := StartSpan(evctx, SpanAssess)
	assess.SetAttr("cipher", "gift64")
	assess.SetAttr("round", 25)

	var wg sync.WaitGroup
	for shard := 0; shard < 4; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			sp, _ := StartSpan(actx, SpanShard)
			sp.SetAttr("shard", shard)
			sp.OwnLane()
			sp.End()
		}(shard)
	}
	wg.Wait()

	assess.End()
	eval.End()
	ep.End()
	sess.End()
	run.End()
	return tr
}

// TestChromeTraceSchema validates the exported document against the
// trace-event format rules Perfetto's JSON importer enforces: a
// traceEvents array of objects that each carry name/ph/ts/pid/tid,
// phases limited to the ones we emit ("M" metadata, "X" complete),
// non-negative microsecond timestamps and durations, unique span IDs,
// parent references to recorded spans, and children contained in their
// parent's time range.
func TestChromeTraceSchema(t *testing.T) {
	tr := buildSampleTrace(t)
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}

	var doc rawTrace
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("document is not schema-clean JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	type spanTime struct{ start, end float64 }
	spans := map[uint64]spanTime{}
	var xEvents []rawEvent
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" {
			t.Fatalf("event %d: empty name", i)
		}
		if ev.PID == nil || ev.TID == nil || ev.TS == nil {
			t.Fatalf("event %d (%s): missing pid/tid/ts", i, ev.Name)
		}
		switch ev.Ph {
		case "M":
			if ev.Name != "process_name" && ev.Name != "thread_name" {
				t.Errorf("event %d: unexpected metadata %q", i, ev.Name)
			}
			if _, ok := ev.Args["name"].(string); !ok {
				t.Errorf("event %d: metadata without args.name", i)
			}
		case "X":
			if *ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("event %d (%s): negative ts/dur (%v, %v)", i, ev.Name, *ev.TS, ev.Dur)
			}
			id, ok := asUint(ev.Args["span_id"])
			if !ok {
				t.Fatalf("event %d (%s): missing span_id", i, ev.Name)
			}
			if _, dup := spans[id]; dup {
				t.Fatalf("duplicate span_id %d", id)
			}
			spans[id] = spanTime{*ev.TS, *ev.TS + ev.Dur}
			xEvents = append(xEvents, ev)
		default:
			t.Errorf("event %d: unexpected phase %q", i, ev.Ph)
		}
	}

	// Parent references must resolve, and children must be contained in
	// their parent's interval (completion order writes children first,
	// so all spans are registered before this pass).
	for _, ev := range xEvents {
		pid, ok := asUint(ev.Args["parent_id"])
		if !ok {
			continue // root
		}
		parent, exists := spans[pid]
		if !exists {
			t.Fatalf("span %s references unknown parent %d", ev.Name, pid)
		}
		id, _ := asUint(ev.Args["span_id"])
		child := spans[id]
		const slack = 1.0 // µs float rounding
		if child.start < parent.start-slack || child.end > parent.end+slack {
			t.Errorf("span %s [%v,%v] escapes parent [%v,%v]",
				ev.Name, child.start, child.end, parent.start, parent.end)
		}
	}

	// Slices sharing a lane must not overlap (Perfetto mis-nests them
	// otherwise). Concurrent shard spans moved to own lanes guarantee it.
	byLane := map[int64][]spanTime{}
	for _, ev := range xEvents {
		id, _ := asUint(ev.Args["span_id"])
		byLane[*ev.TID] = append(byLane[*ev.TID], spans[id])
	}
	for lane, ts := range byLane {
		for i := 0; i < len(ts); i++ {
			for j := i + 1; j < len(ts); j++ {
				a, b := ts[i], ts[j]
				nested := (a.start <= b.start && b.end <= a.end) || (b.start <= a.start && a.end <= b.end)
				disjoint := a.end <= b.start || b.end <= a.start
				if !nested && !disjoint {
					t.Errorf("lane %d: partially overlapping slices [%v,%v] and [%v,%v]",
						lane, a.start, a.end, b.start, b.end)
				}
			}
		}
	}
}

func asUint(v any) (uint64, bool) {
	f, ok := v.(float64)
	if !ok || f < 0 {
		return 0, false
	}
	return uint64(f), true
}

// TestNilTracerIsZeroCost: the disabled state never allocates spans and
// every method no-ops.
func TestNilTracerIsZeroCost(t *testing.T) {
	var tr *Tracer
	sp, ctx := tr.StartRoot(context.Background(), SpanRun)
	if sp != nil {
		t.Fatal("nil tracer produced a span")
	}
	if ctx != context.Background() {
		t.Error("nil tracer changed the context")
	}
	child, cctx := StartSpan(ctx, SpanAssess)
	if child != nil || cctx != ctx {
		t.Error("span started from a span-free context")
	}
	cross, _ := StartSpanCross(ctx, SpanEpisode)
	if cross != nil {
		t.Error("cross span started from a span-free context")
	}
	// All nil-span methods must be safe.
	sp.SetAttr("k", 1)
	sp.SetLane(3)
	sp.OwnLane()
	sp.End()
	tr.NameLane(1, "x")
	if tr.Dropped() != 0 {
		t.Error("nil Dropped != 0")
	}
	if err := tr.Export(&bytes.Buffer{}); err != nil {
		t.Errorf("nil Export: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// TestOpenEmptyPathDisables: Open("") is the disabled state, not an
// error, so flag plumbing needs no branch.
func TestOpenEmptyPathDisables(t *testing.T) {
	tr, err := Open("")
	if err != nil || tr != nil {
		t.Fatalf("Open(\"\") = %v, %v; want nil, nil", tr, err)
	}
}

// TestOpenWritesFileOnClose: the file-backed tracer persists its
// document at Close, idempotently.
func TestOpenWritesFileOnClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	tr, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := tr.StartRoot(context.Background(), SpanRun)
	sp.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc rawTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == SpanRun {
			found = true
		}
	}
	if !found {
		t.Error("run span missing from written trace")
	}
}

// TestSpanBufferCap: spans past the cap are dropped and counted, and
// Export surfaces the truncation as an error.
func TestSpanBufferCap(t *testing.T) {
	tr := New()
	tr.max = 2
	_, ctx := tr.StartRoot(context.Background(), SpanRun)
	for i := 0; i < 4; i++ {
		sp, _ := StartSpan(ctx, SpanShard)
		sp.End()
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped = %d, want 2", got)
	}
	if err := tr.Export(&bytes.Buffer{}); err == nil {
		t.Error("Export of a truncated trace returned nil error")
	}
}

// TestEndIdempotent: double End records exactly one event.
func TestEndIdempotent(t *testing.T) {
	tr := New()
	sp, _ := tr.StartRoot(context.Background(), SpanRun)
	sp.End()
	sp.End()
	tr.mu.Lock()
	n := len(tr.events)
	tr.mu.Unlock()
	if n != 1 {
		t.Errorf("events = %d, want 1", n)
	}
}

// TestReadFile: ReadFile returns the spans of an exported trace in
// document order, and names the path when the file is not a trace.
func TestReadFile(t *testing.T) {
	tr := buildSampleTrace(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []Entry
	for _, e := range entries {
		if e.Ph == "X" {
			spans = append(spans, e)
		}
	}
	if len(spans) != len(tr.events) {
		t.Fatalf("ReadFile returned %d spans, the tracer recorded %d", len(spans), len(tr.events))
	}
	for i, ev := range tr.events {
		if want := (Entry{Name: ev.Name, Ph: ev.Ph, TS: ev.TS, Dur: ev.Dur}); spans[i] != want {
			t.Errorf("span %d = %+v, want %+v", i, spans[i], want)
		}
	}

	events := filepath.Join(dir, "run.jsonl")
	if err := os.WriteFile(events, []byte(`{"ts":"2026-01-01T00:00:00Z","seq":0,"event":"run_started"}`+"\n"+`{"seq":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(events); err == nil || !strings.Contains(err.Error(), events) {
		t.Errorf("ReadFile of an event log: error %v, want one naming %s", err, events)
	}
}
