package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// testRunner adapts per-test callbacks to the Runner interface.
type testRunner struct {
	validate func(Spec) error
	run      func(ctx context.Context, spec Spec, files Files, m *obs.Registry, em *obs.Emitter) (json.RawMessage, error)
}

func (r testRunner) Validate(spec Spec) error {
	if r.validate != nil {
		return r.validate(spec)
	}
	return nil
}

func (r testRunner) Run(ctx context.Context, spec Spec, files Files, m *obs.Registry, em *obs.Emitter) (json.RawMessage, error) {
	return r.run(ctx, spec, files, m, em)
}

// countRun is a miniature resumable engine: it counts to cfg.n in timed
// steps, checkpointing progress through checkpoint.Stages exactly like
// the real engines, so interrupting and re-running it converges to the
// same result.
func countRun(ctx context.Context, spec Spec, files Files, _ *obs.Registry, em *obs.Emitter) (json.RawMessage, error) {
	var cfg struct {
		N      int `json:"n"`
		StepMS int `json:"step_ms"`
	}
	if err := json.Unmarshal(spec.Config, &cfg); err != nil {
		return nil, err
	}
	st, err := checkpoint.OpenStages(files.Checkpoint, "count", "count/v1")
	if err != nil {
		return nil, err
	}
	done := 0
	st.Done("progress", &done)
	for i := done; i < cfg.N; i++ {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Duration(cfg.StepMS) * time.Millisecond):
		}
		if err := st.Put("progress", i+1); err != nil {
			return nil, err
		}
		em.Emit("step", map[string]any{"i": i})
	}
	return json.RawMessage(fmt.Sprintf(`{"count":%d}`, cfg.N)), nil
}

func waitJob(t *testing.T, s *Server, id string, pred func(*Job) bool) *Job {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if pred(j) {
			return j
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the expected state", id)
	return nil
}

func submitSpec(t *testing.T, s *Server, spec Spec) *Job {
	t.Helper()
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return j
}

func countSpec(name string, n, stepMS int) Spec {
	return Spec{
		Type:   TypeDiscover,
		Name:   name,
		Config: json.RawMessage(fmt.Sprintf(`{"n":%d,"step_ms":%d}`, n, stepMS)),
	}
}

func TestServerLifecycleHTTP(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, Workers: 1, Runner: testRunner{run: countRun}, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Submit over HTTP.
	body := `{"type":"discover","name":"lifecycle","config":{"n":3,"step_ms":1}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs status = %d, want 202", resp.StatusCode)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j.ID == "" || j.State != StateQueued && j.State != StateRunning {
		t.Fatalf("submitted job = %+v", j)
	}

	waitJob(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })

	// GET /jobs/{id}: record plus event summary.
	resp, err = http.Get(ts.URL + "/jobs/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Job
		Summary *eventSummary `json:"summary"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var res struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(got.Result, &res); err != nil || res.Count != 3 {
		t.Fatalf("result = %s, want count 3", got.Result)
	}
	if got.Summary == nil || got.Summary.Events["step"] != 3 {
		t.Fatalf("summary = %+v, want 3 step events", got.Summary)
	}
	if got.Summary.Events[obs.EventJobFinished] != 1 {
		t.Fatalf("summary missing job_finished: %+v", got.Summary.Events)
	}

	// GET /jobs lists it.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs  []*Job `json:"jobs"`
		Count int    `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Count != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
		t.Fatalf("GET /jobs = %+v", list)
	}

	// SSE on a finished job drains the full log and terminates.
	resp, err = http.Get(ts.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	var dataLines, doneFrames int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			dataLines++
		}
		if line == "event: done" {
			doneFrames++
		}
	}
	resp.Body.Close()
	if doneFrames != 1 {
		t.Fatalf("SSE done frames = %d, want 1", doneFrames)
	}
	// step*3 + job_started + job_finished + emitter_stats + the done payload.
	if dataLines < 6 {
		t.Fatalf("SSE data lines = %d, want >= 6", dataLines)
	}

	// DELETE on a terminal job purges the record and its files.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE terminal status = %d, want 200", resp.StatusCode)
	}
	if _, err := s.Job(j.ID); err != ErrNotFound {
		t.Fatalf("Job after purge err = %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(s.Files(j.ID).Events); !os.IsNotExist(err) {
		t.Fatalf("events file survived purge: %v", err)
	}

	// Purged IDs are not reused.
	j2 := submitSpec(t, s, countSpec("next", 1, 1))
	if j2.ID == j.ID {
		t.Fatalf("ID %s reused after purge", j2.ID)
	}

	// Error mapping: bad spec 400, unknown job 404.
	resp, _ = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"type":"nope","config":{}}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/jobs/j-999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

func TestServerCancelRunning(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, Workers: 1, Runner: testRunner{run: countRun}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := submitSpec(t, s, countSpec("slow", 10_000, 5))
	waitJob(t, s, j.ID, func(j *Job) bool { return j.State == StateRunning })
	if _, purged, err := s.Delete(j.ID); err != nil || purged {
		t.Fatalf("Delete(running) = purged %v, err %v", purged, err)
	}
	got := waitJob(t, s, j.ID, func(j *Job) bool { return j.State.Terminal() })
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}
	if got.Error == "" {
		t.Fatal("cancelled job should record the cancellation cause")
	}
}

func TestServerCancelQueued(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	run := func(ctx context.Context, spec Spec, files Files, m *obs.Registry, em *obs.Emitter) (json.RawMessage, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return json.RawMessage(`{}`), nil
	}
	s, err := New(Config{DataDir: dir, Workers: 1, Runner: testRunner{run: run}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(gate)
	blocker := submitSpec(t, s, Spec{Type: TypeDiscover, Config: json.RawMessage(`{}`)})
	waitJob(t, s, blocker.ID, func(j *Job) bool { return j.State == StateRunning })
	queued := submitSpec(t, s, Spec{Type: TypeDiscover, Config: json.RawMessage(`{}`)})
	j, purged, err := s.Delete(queued.ID)
	if err != nil || purged {
		t.Fatalf("Delete(queued) = purged %v, err %v", purged, err)
	}
	if j.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", j.State)
	}
}

func TestServerTenantQuota(t *testing.T) {
	dir := t.TempDir()
	var (
		mu      sync.Mutex
		started []string
	)
	gate := make(chan struct{})
	run := func(ctx context.Context, spec Spec, files Files, m *obs.Registry, em *obs.Emitter) (json.RawMessage, error) {
		mu.Lock()
		started = append(started, spec.Name)
		mu.Unlock()
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return json.RawMessage(`{}`), nil
	}
	s, err := New(Config{DataDir: dir, Workers: 2, TenantQuota: 1, Runner: testRunner{run: run}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	submitSpec(t, s, Spec{Type: TypeDiscover, Tenant: "a", Name: "a1", Config: json.RawMessage(`{}`)})
	submitSpec(t, s, Spec{Type: TypeDiscover, Tenant: "a", Name: "a2", Config: json.RawMessage(`{}`)})
	submitSpec(t, s, Spec{Type: TypeDiscover, Tenant: "b", Name: "b1", Config: json.RawMessage(`{}`)})

	// Both workers should fill: a1 plus b1 (a2 is quota-blocked and must
	// not hold b1 back).
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(started)
		mu.Unlock()
		if n == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("started = %v, want 2 running", started)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	two := map[string]bool{started[0]: true, started[1]: true}
	mu.Unlock()
	if !two["a1"] || !two["b1"] {
		t.Fatalf("running = %v, want a1 and b1", started)
	}
	close(gate)
	for _, j := range s.Jobs() {
		waitJob(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })
	}
	mu.Lock()
	defer mu.Unlock()
	if len(started) != 3 || started[2] != "a2" {
		t.Fatalf("start order = %v, want a2 last", started)
	}
}

func TestServerRestartResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1, Runner: testRunner{run: countRun}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	j := submitSpec(t, s, countSpec("resume", n, 2))
	files := s.Files(j.ID)

	// Let the job make real progress, then stop the daemon mid-run.
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

	// The on-disk record must still be "running" so the next daemon
	// requeues it.
	st, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, _ := st.load()
	if len(onDisk) != 1 || onDisk[0].State != StateRunning {
		t.Fatalf("on-disk state after shutdown = %+v, want running", onDisk)
	}

	// Restart: the job is requeued, resumed from its checkpoint, and
	// completes with the same result as an uninterrupted run.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := waitJob(t, s2, j.ID, func(j *Job) bool { return j.State == StateDone })
	if got.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1", got.Resumes)
	}
	want := fmt.Sprintf(`{"count":%d}`, n)
	if string(got.Result) != want {
		t.Fatalf("result = %s, want %s", got.Result, want)
	}

	// The appended event log holds two job_started lines (original +
	// resume) and exactly one job_finished.
	sum := summarizeEvents(files.Events)
	if sum == nil || sum.Events[obs.EventJobStarted] != 2 || sum.Events[obs.EventJobFinished] != 1 {
		t.Fatalf("event summary after resume = %+v", sum)
	}
}

func TestServerSubmitAfterClose(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, Workers: 1, Runner: testRunner{run: countRun}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(countSpec("late", 1, 1)); err != ErrClosed {
		t.Fatalf("Submit after Close err = %v, want ErrClosed", err)
	}
}

func TestServerValidateRejects(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{
		DataDir: dir,
		Runner: testRunner{
			run:      countRun,
			validate: func(sp Spec) error { return fmt.Errorf("no") },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.Submit(countSpec("bad", 1, 1))
	if err == nil || !strings.Contains(err.Error(), "no") {
		t.Fatalf("Submit err = %v, want runner validation error", err)
	}
}

// TestServerPurgeKeepsJobWhenStoreDeleteFails purges a done job while
// the job table cannot be written: the purge must fail without dropping
// the record from memory or deleting the job's files, so a restart never
// finds a record whose event log is gone.
func TestServerPurgeKeepsJobWhenStoreDeleteFails(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, Workers: 1, Runner: testRunner{run: countRun}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := submitSpec(t, s, countSpec("purge", 2, 1))
	waitJob(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })

	// A directory in the table's place fails both ways the store writes:
	// an appending open and a rename onto it. File permissions would not
	// stop a privileged process.
	table := filepath.Join(dir, storeFile)
	if err := os.Remove(table); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(table, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, purged, err := s.Delete(j.ID); err == nil || purged {
		t.Fatalf("purge with an unwritable store: purged=%v err=%v, want an error", purged, err)
	}
	if got, err := s.Job(j.ID); err != nil || got.State != StateDone {
		t.Fatalf("job after the failed purge: %+v, %v", got, err)
	}
	if _, err := os.Stat(s.Files(j.ID).Events); err != nil {
		t.Fatalf("event log after the failed purge: %v", err)
	}
}

// TestServerReportsDroppedStoreTail restarts a daemon whose job table
// ends in a torn delta: the store keeps every whole record, and the
// daemon's first event reports the bytes it dropped.
func TestServerReportsDroppedStoreTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1, Runner: testRunner{run: countRun}}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j := submitSpec(t, s, countSpec("torn", 2, 1))
	waitJob(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	torn := []byte("EFCKPT\x00\x01\x00") // the first bytes of a delta envelope
	f, err := os.OpenFile(filepath.Join(dir, storeFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var events strings.Builder
	cfg.Events = obs.NewEmitter(&events)
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Job(j.ID); err != nil || got.State != StateDone || string(got.Result) != `{"count":2}` {
		t.Fatalf("job after the torn tail: %+v, %v", got, err)
	}
	var first obs.Event
	line, _, _ := strings.Cut(events.String(), "\n")
	if err := json.Unmarshal([]byte(line), &first); err != nil {
		t.Fatal(err)
	}
	if first.Event != obs.EventJobStoreOpened || first.Fields["dropped_bytes"] != float64(len(torn)) || first.Fields["jobs"] != float64(1) {
		t.Fatalf("first daemon event = %s, want %s with dropped_bytes %d", line, obs.EventJobStoreOpened, len(torn))
	}
}
