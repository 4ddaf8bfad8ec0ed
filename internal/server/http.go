package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/runreport"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /jobs              submit a job (body: Spec), 202 + Job
//	GET    /jobs              list jobs in submission order
//	GET    /jobs/{id}         job record (incl. usage) plus an event-log summary
//	DELETE /jobs/{id}         cancel a queued/running job; purge a terminal one
//	GET    /jobs/{id}/events  live SSE stream of the job's JSONL events
//	GET    /jobs/{id}/report  obsreport markdown summary of the job's event log
//	GET    /stats             per-tenant fleet aggregates from the job records
//	GET    /healthz           liveness probe
//	GET    /readyz            readiness: 200 accepting, 503 draining/closed
//	GET    /metrics           fleet metric view (also /debug/vars, /debug/pprof)
//
// /metrics serves the composed fleet snapshot (scheduler + per-job
// registries folded under tenant/kind/cipher/fault_model labels), not
// the bare scheduler registry — see Server.MetricsSnapshot.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness (healthz) stays 200 through a drain so the process
		// is not killed mid-shutdown; readiness flips to 503 the moment
		// Close begins, telling load balancers to stop routing here.
		if s.Ready() {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
			return
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	})
	if s.cfg.Metrics != nil {
		debug := obs.SnapshotHandler(s.MetricsSnapshot)
		mux.Handle("/metrics", debug)
		mux.Handle("/debug/", debug)
	}
	return mux
}

// DecodeSpec reads a job spec from a POST /jobs body: at most 1 MiB of
// JSON, unknown fields rejected.
func DecodeSpec(body io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(io.LimitReader(body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("%w: decoding body: %v", ErrBadSpec, err)
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeSpec(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs, "count": len(jobs)})
}

// jobStatus is the GET /jobs/{id} response: the job record plus an
// obsreport-style summary of its event log (event counts by kind), so a
// client can see campaign progress without downloading the stream.
type jobStatus struct {
	*Job
	Summary *eventSummary `json:"summary,omitempty"`
}

type eventSummary struct {
	// Lines is the total number of event lines in the job's log.
	Lines int `json:"lines"`
	// Events counts log lines by event kind.
	Events map[string]int `json:"events,omitempty"`
	// Truncated is set when the scan stopped early (a log line exceeded
	// the scanner's 4 MB cap, or a read failed): the counts above cover
	// only the lines before the failure. Without this field a truncated
	// summary is indistinguishable from a complete one.
	Truncated string `json:"truncated,omitempty"`
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, jobStatus{Job: j, Summary: summarizeEvents(s.Files(j.ID).Events)})
}

// summarizeEvents scans a job's JSONL log and tallies lines by event
// kind. A missing log (job not started) returns nil; damaged lines are
// counted under "".
func summarizeEvents(path string) *eventSummary {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	sum := &eventSummary{Events: map[string]int{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		sum.Lines++
		var ev struct {
			Event string `json:"event"`
		}
		json.Unmarshal(sc.Bytes(), &ev)
		sum.Events[ev.Event]++
	}
	// A scanner that stopped on error (oversized line, read failure)
	// counted only a prefix of the log; surface that instead of passing
	// the partial tally off as the whole story.
	if err := sc.Err(); err != nil {
		sum.Truncated = err.Error()
	}
	return sum
}

// handleReport renders the obsreport markdown summary of a job's event
// log. A queued job has no log yet, which is a conflict (409: retry
// after it starts), not a missing job.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if j.State == StateQueued {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": "job is queued; no event log to report on yet",
		})
		return
	}
	rep, err := runreport.AnalyzeFile(s.Files(j.ID).Events, "")
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	runreport.WriteMarkdown(w, rep)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, purged, err := s.Delete(id)
	if err != nil {
		writeError(w, err)
		return
	}
	if purged {
		writeJSON(w, http.StatusOK, map[string]any{"id": id, "purged": true})
		return
	}
	writeJSON(w, http.StatusAccepted, j)
}

// handleEvents streams a job's JSONL event log as server-sent events:
// each log line becomes one `data:` frame as it is appended, and a final
// `event: done` frame fires once the job is terminal and the log is
// drained. The stream follows the job across daemon-restart resumes
// because the log file is append-only.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Job(id); err != nil {
		writeError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	path := s.Files(id).Events
	var (
		f       *os.File
		pending []byte // partial last line not yet terminated by \n
		offset  int64
	)
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	tick := time.NewTicker(150 * time.Millisecond)
	defer tick.Stop()
	for {
		// Observe the state BEFORE draining: the worker completes the
		// event log before publishing a terminal state, so "terminal,
		// then drained to EOF" means the stream is complete.
		var final State
		if j, err := s.Job(id); err != nil {
			final = "purged"
		} else if j.State.Terminal() {
			final = j.State
		}
		if f == nil {
			f, _ = os.Open(path) // appears once a worker picks the job up
		}
		if f != nil {
			buf := make([]byte, 64*1024)
			for {
				n, err := f.ReadAt(buf, offset)
				if n > 0 {
					offset += int64(n)
					pending = append(pending, buf[:n]...)
					for {
						i := indexByte(pending, '\n')
						if i < 0 {
							break
						}
						line := pending[:i]
						pending = pending[i+1:]
						if len(line) == 0 {
							continue
						}
						fmt.Fprintf(w, "data: %s\n\n", line)
					}
					fl.Flush()
				}
				if err != nil {
					break // io.EOF: caught up
				}
			}
		}
		if final != "" {
			fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", final)
			fl.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
		}
	}
}

func indexByte(b []byte, c byte) int {
	for i, got := range b {
		if got == c {
			return i
		}
	}
	return -1
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps scheduler errors to HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
