package explorefault

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/server"
)

func waitJobState(t *testing.T, s *JobServer, id string, pred func(*JobRecord) bool) *JobRecord {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if pred(j) {
			return j
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the expected state", id)
	return nil
}

// countEventLines counts lines of the given event kind in a JSONL log.
func countEventLines(t *testing.T, path, kind string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == kind {
			n++
		}
	}
	return n
}

// TestJobServerRestartDeterminism is the PR's acceptance pin: a gift64
// discovery job interrupted by a daemon shutdown mid-run and finished by
// a restarted daemon produces a result byte-identical to the same job
// run without interruption, and its event log carries the same episodes.
func TestJobServerRestartDeterminism(t *testing.T) {
	spec := JobSpec{
		Type: server.TypeDiscover,
		Name: "gift64-restart",
		Config: json.RawMessage(`{
			"cipher": "gift64", "round": 25, "episodes": 96,
			"samples": 128, "seed": 7, "checkpoint_every": 8
		}`),
	}

	// Reference: one daemon lifetime, uninterrupted.
	refDir := t.TempDir()
	ref, err := NewJobServer(JobServerConfig{DataDir: refDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitJobState(t, ref, refJob.ID, func(j *JobRecord) bool { return j.State == server.StateDone })
	refEpisodes := countEventLines(t, ref.Files(refJob.ID).Events, "episode")
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if refEpisodes == 0 {
		t.Fatal("reference run emitted no episode events")
	}

	// Interrupted: stop the daemon once training is demonstrably in
	// flight, then restart on the same data directory.
	dir := t.TempDir()
	s, err := NewJobServer(JobServerConfig{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	events := s.Files(j.ID).Events
	deadline := time.Now().Add(60 * time.Second)
	for countEventLines(t, events, "episode") < 16 {
		if time.Now().After(deadline) {
			t.Fatal("job never made training progress")
		}
		jj, err := s.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jj.State.Terminal() {
			t.Fatalf("job finished before it could be interrupted (state %s)", jj.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewJobServer(JobServerConfig{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := waitJobState(t, s2, j.ID, func(j *JobRecord) bool { return j.State == server.StateDone })
	if got.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1", got.Resumes)
	}
	if !bytes.Equal(got.Result, refDone.Result) {
		t.Fatalf("resumed result differs from uninterrupted run:\n  resumed: %s\n  ref:     %s",
			got.Result, refDone.Result)
	}
	// The episode stream is deterministic too: training emits the same
	// episodes in the same order; the resumed log may replay a suffix of
	// episodes that ran after the last checkpoint, so after dedup it
	// must equal the reference count exactly.
	if n := dedupEpisodes(t, events); n != refEpisodes {
		t.Fatalf("deduped episode events = %d, want %d", n, refEpisodes)
	}
}

// dedupEpisodes counts distinct episode events (by fields, ignoring
// ts/seq) in a JSONL log.
func dedupEpisodes(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev struct {
			Event  string          `json:"event"`
			Fields json.RawMessage `json:"fields"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Event != "episode" {
			continue
		}
		seen[string(ev.Fields)] = true
	}
	return len(seen)
}

// TestJobServerSweepShardFanOut pins the horizontal-scaling contract at
// the job level: two sweep jobs covering complementary shard ranges,
// merged, equal the single full-range job byte for byte.
func TestJobServerSweepShardFanOut(t *testing.T) {
	dir := t.TempDir()
	s, err := NewJobServer(JobServerConfig{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	config := json.RawMessage(`{
		"cipher": "gift64", "rounds": [24, 25], "samples": 32, "seed": 11
	}`)
	submit := func(name string, lo, hi int) *JobRecord {
		j, err := s.Submit(JobSpec{
			Type:       server.TypeSweep,
			Name:       name,
			ShardRange: [2]int{lo, hi},
			Config:     config,
		})
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		return j
	}
	full := submit("full", 0, 0)
	lo := submit("lo", 0, 1)
	hi := submit("hi", 1, 2)
	for _, j := range []*JobRecord{full, lo, hi} {
		got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() })
		if got.State != server.StateDone {
			t.Fatalf("job %s state = %s (%s)", j.ID, got.State, got.Error)
		}
	}

	fullAtlas, err := ReadAtlas(s.Files(full.ID).Output)
	if err != nil {
		t.Fatal(err)
	}
	loAtlas, err := ReadAtlas(s.Files(lo.ID).Output)
	if err != nil {
		t.Fatal(err)
	}
	hiAtlas, err := ReadAtlas(s.Files(hi.ID).Output)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeAtlases(hiAtlas, loAtlas)
	if err != nil {
		t.Fatal(err)
	}
	mergedBytes, err := merged.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	fullBytes, err := fullAtlas.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBytes, fullBytes) {
		t.Fatalf("merged fan-out atlas differs from full run (%d vs %d bytes)",
			len(mergedBytes), len(fullBytes))
	}
}

// TestJobRunnerValidate pins submission-time validation: typos and
// out-of-range configs are rejected before a worker ever runs.
func TestJobRunnerValidate(t *testing.T) {
	dir := t.TempDir()
	s, err := NewJobServer(JobServerConfig{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := []JobSpec{
		{Type: "discover", Config: json.RawMessage(`{"cipher":"gift64","round":99}`)},
		{Type: "discover", Config: json.RawMessage(`{"cipher":"nope","round":1}`)},
		{Type: "discover", Config: json.RawMessage(`{"cipher":"gift64","round":25,"epsiodes":5}`)},
		{Type: "assess", Config: json.RawMessage(`{"cipher":"gift64","round":25}`)},
		{Type: "sweep", Config: json.RawMessage(`{"cipher":"gift64","key":"zz"}`)},
	}
	for i, spec := range bad {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted: %s", i, spec.Config)
		}
	}
	// Assess works end to end (speck64 included: every registered cipher
	// is available to the daemon).
	j, err := s.Submit(JobSpec{Type: "assess", Config: json.RawMessage(
		fmt.Sprintf(`{"cipher":"speck64","round":25,"groups":[0],"samples":128,"seed":3}`))})
	if err != nil {
		t.Fatal(err)
	}
	got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() })
	if got.State != server.StateDone {
		t.Fatalf("assess job state = %s (%s)", got.State, got.Error)
	}
	var res struct {
		T         float64 `json:"t"`
		Threshold float64 `json:"threshold"`
	}
	if err := json.Unmarshal(got.Result, &res); err != nil || res.Threshold == 0 {
		t.Fatalf("assess result = %s (%v)", got.Result, err)
	}
}

// TestProtectedAssessJobBadGroupBitsFails pins that a protected assess job
// with an unsupported group size ends failed with an error instead of
// taking the daemon down, and that the worker goes on to run the next job.
func TestProtectedAssessJobBadGroupBitsFails(t *testing.T) {
	s, err := NewJobServer(JobServerConfig{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, gb := range []int{3, 16} {
		j, err := s.Submit(JobSpec{Type: "assess", Config: json.RawMessage(fmt.Sprintf(
			`{"cipher":"aes128","round":9,"protected":true,"bits":[1,129],"group_bits":%d,"samples":64,"seed":1}`, gb))})
		if err != nil {
			t.Fatal(err)
		}
		got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() })
		if got.State != server.StateFailed || got.Error == "" {
			t.Fatalf("group_bits %d: job state = %s (%q), want failed with an error", gb, got.State, got.Error)
		}
	}
	j, err := s.Submit(JobSpec{Type: "assess", Config: json.RawMessage(
		`{"cipher":"aes128","round":9,"protected":true,"bits":[1,129],"samples":64,"seed":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() }); got.State != server.StateDone {
		t.Fatalf("follow-up job state = %s (%s)", got.State, got.Error)
	}
}
