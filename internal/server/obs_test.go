package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// tracedRun is countRun plus engine-style instrumentation: it counts
// traces into the job's own registry, so the tests can follow the
// numbers from per-job registries through usage records, /stats and the
// folded fleet snapshot.
func tracedRun(ctx context.Context, spec Spec, files Files, m *obs.Registry, em *obs.Emitter) (json.RawMessage, error) {
	res, err := countRun(ctx, spec, files, m, em)
	if err != nil {
		return nil, err
	}
	var cfg struct {
		Traces uint64 `json:"traces"`
	}
	json.Unmarshal(spec.Config, &cfg)
	m.Counter("campaign.traces_total").Add(cfg.Traces)
	return res, nil
}

// tracedSpec is a countSpec whose config also names a cipher (for label
// sniffing) and a trace count (for the work counters).
func tracedSpec(name, tenant string, traces uint64) Spec {
	return Spec{
		Type:   TypeDiscover,
		Tenant: tenant,
		Name:   name,
		Config: json.RawMessage(fmt.Sprintf(
			`{"n":2,"step_ms":1,"cipher":"gift64","traces":%d}`, traces)),
	}
}

// TestServerUsageAndLabeledMetrics drives a two-tenant fleet through
// the full attribution pipeline: per-job usage records, the /stats
// aggregates, and the labeled fleet snapshot whose per-tenant series
// must sum exactly to the unlabeled totals.
func TestServerUsageAndLabeledMetrics(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{
		DataDir: dir, Workers: 2,
		Runner:  testRunner{run: tracedRun},
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	jobs := []*Job{
		submitSpec(t, s, tracedSpec("a", "t1", 7)),
		submitSpec(t, s, tracedSpec("b", "t1", 7)),
		submitSpec(t, s, tracedSpec("c", "t2", 7)),
	}
	for _, j := range jobs {
		waitJob(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })
	}

	// Every finished job carries a usage record with real figures.
	var wallSum float64
	for _, j := range jobs {
		got := waitJob(t, s, j.ID, func(j *Job) bool { return j.Usage != nil })
		u := got.Usage
		if u.Attempts != 1 {
			t.Errorf("job %s attempts = %d, want 1", j.ID, u.Attempts)
		}
		if u.WallSeconds <= 0 {
			t.Errorf("job %s wall_seconds = %v, want > 0", j.ID, u.WallSeconds)
		}
		if u.Traces != 7 {
			t.Errorf("job %s traces = %d, want 7", j.ID, u.Traces)
		}
		wallSum += u.WallSeconds
	}

	// /stats aggregates are the per-job records re-grouped by tenant.
	st := s.Stats()
	if st.Totals.Jobs != 3 || st.Totals.States["done"] != 3 {
		t.Fatalf("totals = %+v", st.Totals)
	}
	if st.Tenants["t1"].Usage.Traces != 14 || st.Tenants["t2"].Usage.Traces != 7 {
		t.Errorf("tenant traces = t1:%d t2:%d, want 14/7",
			st.Tenants["t1"].Usage.Traces, st.Tenants["t2"].Usage.Traces)
	}
	if st.Totals.Usage.Traces != 21 || st.Totals.Usage.Attempts != 3 {
		t.Errorf("total usage = %+v", st.Totals.Usage)
	}
	if diff := st.Totals.Usage.WallSeconds - wallSum; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("stats wall %v != sum of job records %v", st.Totals.Usage.WallSeconds, wallSum)
	}

	// The fleet snapshot: unlabeled totals equal the sum of the labeled
	// per-tenant series, for the folded engine counter and the
	// scheduler's own labeled counters alike.
	snap := s.MetricsSnapshot()
	if got := snap.Counters["campaign.traces_total"]; got != 21 {
		t.Fatalf("folded traces total = %d, want 21", got)
	}
	fam := snap.CounterVecs["campaign.traces_total"]
	var labeledSum uint64
	for _, v := range fam.Series {
		labeledSum += v
	}
	if labeledSum != snap.Counters["campaign.traces_total"] {
		t.Errorf("labeled series sum %d != unlabeled total %d",
			labeledSum, snap.Counters["campaign.traces_total"])
	}
	t1Key := `{cipher="gift64",fault_model="default",kind="discover",tenant="t1"}`
	if fam.Series[t1Key] != 14 {
		t.Errorf("series %s = %d, want 14 (have %v)", t1Key, fam.Series[t1Key], fam.Series)
	}

	doneFam := snap.CounterVecs["server.jobs_done_total"]
	var doneSum uint64
	for _, v := range doneFam.Series {
		doneSum += v
	}
	if doneSum != snap.Counters["server.jobs_done_total"] || doneSum != 3 {
		t.Errorf("jobs_done labeled sum %d vs total %d, want 3",
			doneSum, snap.Counters["server.jobs_done_total"])
	}
}

// TestServerUsageAcrossRestart: an interrupted job's usage survives the
// restart on the durable record, the resumed attempt adds to it, and
// the /stats aggregates match the per-job record afterwards — the
// SIGTERM+restart acceptance path.
func TestServerUsageAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1, Runner: testRunner{run: countRun}, Metrics: obs.NewRegistry()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := submitSpec(t, s, countSpec("restart-usage", 400, 2))
	files := s.Files(j.ID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := checkpoint.OpenStages(files.Checkpoint, "count", "count/v1")
		progress := 0
		if err == nil && st.Done("progress", &progress) && progress >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	// The interrupted attempt's usage is already on the reloaded record.
	first, err := s2.Job(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if first.Usage == nil || first.Usage.Attempts != 1 || first.Usage.WallSeconds <= 0 {
		t.Fatalf("usage after restart = %+v, want 1 recorded attempt", first.Usage)
	}

	got := waitJob(t, s2, j.ID, func(j *Job) bool { return j.State == StateDone })
	if got.Usage == nil || got.Usage.Attempts != 2 {
		t.Fatalf("usage after resume = %+v, want 2 attempts", got.Usage)
	}
	if got.Usage.WallSeconds <= first.Usage.WallSeconds {
		t.Errorf("resumed wall %v did not grow past interrupted %v",
			got.Usage.WallSeconds, first.Usage.WallSeconds)
	}

	st := s2.Stats()
	if st.Totals.Usage != *got.Usage {
		t.Errorf("stats totals %+v != job record %+v", st.Totals.Usage, *got.Usage)
	}

	// Each attempt appended a cumulative job_usage event; the log's last
	// one equals the record, which is what obsreport -fleet reads.
	sum := summarizeEvents(files.Events)
	if sum == nil || sum.Events[obs.EventJobUsage] != 2 {
		t.Fatalf("event summary = %+v, want 2 job_usage lines", sum)
	}
}

// TestServerReadyzDrain: /readyz tells load balancers to stop routing
// the moment a drain begins, while /healthz keeps answering 200 so the
// process is not killed mid-shutdown.
func TestServerReadyzDrain(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, Workers: 1, Runner: testRunner{run: countRun}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body.Status
	}

	if code, status := get("/readyz"); code != http.StatusOK || status != "ready" {
		t.Fatalf("/readyz before close = %d %q", code, status)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if code, status := get("/readyz"); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("/readyz after close = %d %q, want 503 draining", code, status)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after close = %d, want 200 (liveness, not readiness)", code)
	}
}

// TestServerReportEndpoint: a queued job has no event log yet (409,
// retry later); a finished one renders the obsreport markdown.
func TestServerReportEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, Workers: 1, Runner: testRunner{run: countRun}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The only worker is busy with a, so b stays queued.
	a := submitSpec(t, s, countSpec("busy", 200, 5))
	b := submitSpec(t, s, countSpec("parked", 1, 1))
	waitJob(t, s, a.ID, func(j *Job) bool { return j.State == StateRunning })

	resp, err := http.Get(ts.URL + "/jobs/" + b.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report on queued job = %d, want 409", resp.StatusCode)
	}

	if _, err := http.Get(ts.URL + "/jobs/nope/report"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/jobs/nope/report")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("report on unknown job = %d, want 404", resp.StatusCode)
	}

	if _, _, err := s.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, s, b.ID, func(j *Job) bool { return j.State == StateDone })

	resp, err = http.Get(ts.URL + "/jobs/" + done.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report on done job = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/markdown") {
		t.Errorf("Content-Type = %q", ct)
	}
	md := string(body)
	if !strings.Contains(md, "# Run report:") || !strings.Contains(md, "job cost:") {
		t.Errorf("report missing sections:\n%s", md)
	}
}

// TestSummarizeEventsTruncated: a log line beyond the scanner's 4 MB cap
// stops the scan; the summary must say so instead of passing the partial
// tally off as complete.
func TestSummarizeEventsTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, `{"event":"job_started"}`)
	// One line over the 4 MB scanner cap.
	fmt.Fprintf(f, `{"event":"huge","pad":%q}`+"\n", strings.Repeat("x", 5*1024*1024))
	fmt.Fprintln(f, `{"event":"job_finished"}`)
	f.Close()

	sum := summarizeEvents(path)
	if sum == nil {
		t.Fatal("summary is nil")
	}
	if sum.Truncated == "" {
		t.Fatal("Truncated not set for an oversized line")
	}
	if sum.Events["job_started"] != 1 {
		t.Errorf("events before the bad line = %+v", sum.Events)
	}
	if sum.Events["job_finished"] != 0 {
		t.Errorf("scan continued past the oversized line: %+v", sum.Events)
	}
}

// TestSummarizeEventsCountsDamagedLines: a damaged line is counted under
// "" and the tally goes on past it.
func TestSummarizeEventsCountsDamagedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	log := `{"event":"job_started"}` + "\n" + `{"ts":"2026-01-01T00:00:00Z","ev` + "\n" + `{"event":"job_finished"}` + "\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	sum := summarizeEvents(path)
	if sum == nil || sum.Truncated != "" || sum.Lines != 3 {
		t.Fatalf("summary = %+v, want 3 lines and no truncation", sum)
	}
	if sum.Events[""] != 1 || sum.Events["job_started"] != 1 || sum.Events["job_finished"] != 1 {
		t.Errorf("events = %v, want the damaged line under \"\"", sum.Events)
	}
}

// TestSSEStreamsLongLine: a log line longer than the stream's 64 KiB
// read buffer spans two reads and still arrives as one data: frame.
func TestSSEStreamsLongLine(t *testing.T) {
	pad := strings.Repeat("x", 100<<10)
	s, err := New(Config{DataDir: t.TempDir(), Workers: 1, Runner: testRunner{
		run: func(ctx context.Context, spec Spec, files Files, m *obs.Registry, em *obs.Emitter) (json.RawMessage, error) {
			em.Emit("long", map[string]any{"pad": pad})
			return json.RawMessage(`{}`), nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j := submitSpec(t, s, countSpec("long", 1, 1))
	waitJob(t, s, j.ID, func(j *Job) bool { return j.State.Terminal() })

	resp, err := http.Get(ts.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, frame := range strings.Split(string(body), "\n\n") {
		data, ok := strings.CutPrefix(frame, "data: ")
		if !ok {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("data frame of %d bytes is not one event: %v", len(data), err)
		}
		if ev.Event == "long" {
			found = ev.Fields["pad"] == pad
		}
	}
	if !found {
		t.Fatal("no data frame carried the long line whole")
	}
}
