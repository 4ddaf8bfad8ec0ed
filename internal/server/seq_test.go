package server

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/obs"
)

// TestSubmitAppendsOneRecord requires a Submit to grow jobs.ckpt by
// exactly one delta record, the job's own: the ID counter is not written
// per submit. The submitted job stays queued behind a running one, so
// nothing else writes meanwhile.
func TestSubmitAppendsOneRecord(t *testing.T) {
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
	size := func(path string) int64 {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	store := filepath.Join(dir, storeFile)
	before := size(store)
	queued := submitSpec(t, s, Spec{Type: TypeDiscover, Config: json.RawMessage(`{}`)})
	grew := size(store) - before

	// The same record put into a scratch store of the same kind measures
	// one delta.
	scratch := filepath.Join(t.TempDir(), "scratch.ckpt")
	st, err := checkpoint.OpenStages(scratch, storeKind, storeKey)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(seqStage, uint64(1)); err != nil {
		t.Fatal(err)
	}
	base := size(scratch)
	if err := st.Put(jobPrefix+queued.ID, queued); err != nil {
		t.Fatal(err)
	}
	if want := size(scratch) - base; grew != want {
		t.Fatalf("Submit grew %s by %d bytes, want one %d-byte delta record", storeFile, grew, want)
	}
}

// finishJobs runs n quick jobs on a server over dir and returns their IDs.
func finishJobs(t *testing.T, s *Server, n int) []string {
	t.Helper()
	var ids []string
	for i := 0; i < n; i++ {
		j := submitSpec(t, s, Spec{Type: TypeDiscover, Config: json.RawMessage(`{}`)})
		waitJob(t, s, j.ID, func(j *Job) bool { return j.State == StateDone })
		ids = append(ids, j.ID)
	}
	return ids
}

func quickRunner() testRunner {
	return testRunner{run: func(context.Context, Spec, Files, *obs.Registry, *obs.Emitter) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}}
}

// TestPurgeNewestKeepsIDs purges the newest job, reopens the server on
// the same directory and submits: the new ID must differ from every
// earlier one, so the purge has to leave the counter past it.
func TestPurgeNewestKeepsIDs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1, Runner: quickRunner()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := finishJobs(t, s, 3)
	if _, purged, err := s.Delete(ids[2]); err != nil || !purged {
		t.Fatalf("Delete(%s) = purged %v, err %v", ids[2], purged, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j := submitSpec(t, s2, Spec{Type: TypeDiscover, Config: json.RawMessage(`{}`)})
	for _, id := range ids {
		if j.ID == id {
			t.Fatalf("the reopened server reissued %s", id)
		}
	}
}

// TestPurgeOlderContinuesAfterNewest purges an older job and reopens:
// IDs continue after the newest stored job.
func TestPurgeOlderContinuesAfterNewest(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{DataDir: dir, Workers: 1, Runner: quickRunner()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := finishJobs(t, s, 3)
	if _, purged, err := s.Delete(ids[0]); err != nil || !purged {
		t.Fatalf("Delete(%s) = purged %v, err %v", ids[0], purged, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if j := submitSpec(t, s2, Spec{Type: TypeDiscover, Config: json.RawMessage(`{}`)}); j.ID != "j-000003" {
		t.Fatalf("ID after reopening = %s, want j-000003", j.ID)
	}
}
