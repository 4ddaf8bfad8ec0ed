package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event kinds emitted by the instrumented subsystems. Every event is one
// JSON object per line with the fixed envelope {"ts", "seq", "event"} plus
// kind-specific fields under "fields"; see EXAMPLES under examples/ and
// the schema golden test for the exact shapes.
const (
	// EventRunStarted / EventRunFinished bracket one CLI invocation.
	EventRunStarted  = "run_started"
	EventRunFinished = "run_finished"
	// EventCampaignStarted / EventCampaignFinished bracket one fault
	// campaign (a full sharded assessment of one pattern).
	EventCampaignStarted  = "campaign_started"
	EventCampaignFinished = "campaign_finished"
	// EventOracleEval records one oracle evaluation, including whether it
	// was served from the memoization cache.
	EventOracleEval = "oracle_eval"
	// EventEpisode records one finished RL training episode.
	EventEpisode = "episode"
	// EventPPOUpdate records one PPO policy update.
	EventPPOUpdate = "ppo_update"
	// EventSessionStarted / EventSessionFinished bracket one discovery
	// training session.
	EventSessionStarted  = "session_started"
	EventSessionFinished = "session_finished"
	// EventModelAbstracted records one abstracted fault model entering
	// verification; EventModelVerified its offline verification verdict.
	EventModelAbstracted = "model_abstracted"
	EventModelVerified   = "model_verified"
	// EventCheckpointSaved records one checkpoint write (episode count and
	// path); EventCheckpointResumed records a session restored from one.
	EventCheckpointSaved   = "checkpoint_saved"
	EventCheckpointResumed = "checkpoint_resumed"
	// EventSweepStarted / EventSweepFinished bracket one exhaustive sweep
	// (internal/sweep); EventSweepCell records one assessed cell with its
	// round, positions, model and t-statistic.
	EventSweepStarted  = "sweep_started"
	EventSweepCell     = "sweep_cell"
	EventSweepFinished = "sweep_finished"
	// Job lifecycle events of the campaign server (internal/server):
	// submitted on POST /jobs, started when a worker picks the job up
	// (fields include "resumes" when a daemon restart re-ran it),
	// finished with the terminal state, cancelled on DELETE /jobs/{id}.
	EventJobSubmitted = "job_submitted"
	EventJobStarted   = "job_started"
	EventJobFinished  = "job_finished"
	EventJobCancelled = "job_cancelled"
	// EventJobStoreOpened is the campaign server's first event: the job
	// table it loaded at startup, with the bytes of a torn or corrupt
	// tail its store discarded ("dropped_bytes", 0 after a clean stop).
	EventJobStoreOpened = "job_store_opened"
	// EventJobUsage records one job's resource accounting (wall/CPU/queue
	// seconds, work counters, peak heap delta) plus its attribution labels
	// (tenant, kind, cipher, fault_model), written into the per-job event
	// log at every attempt end so fleet reports can be built from the log
	// directory alone, with no access to the daemon's job store.
	EventJobUsage = "job_usage"
	// EventEmitterStats is the final line the emitter writes about itself
	// at Close: how many events were emitted and how many were silently
	// dropped to marshal or write errors. Analysis tools (obsreport) use
	// it to distinguish "no episodes happened" from "episode events were
	// lost", which read identically without it.
	EventEmitterStats = "emitter_stats"
)

// Event is the JSONL envelope: a wall-clock timestamp, a process-local
// monotonic sequence number (total order even when timestamps collide),
// the event kind, and free-form fields.
type Event struct {
	TS     string         `json:"ts"`
	Seq    uint64         `json:"seq"`
	Event  string         `json:"event"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Emitter writes structured run events as JSON Lines. It is safe for
// concurrent use; a nil *Emitter is the disabled state and every method
// no-ops, so instrumented code never branches on configuration. Marshal
// or write failures increment a drop counter instead of failing the run —
// observability must not turn a healthy campaign into a failed one.
type Emitter struct {
	mu      sync.Mutex
	w       io.Writer
	closer  io.Closer
	seq     uint64
	dropped uint64
	drops   *Counter // optional live mirror of the drop count
	closed  bool
	now     func() time.Time
}

// NewEmitter wraps an io.Writer. The caller keeps ownership of w.
func NewEmitter(w io.Writer) *Emitter {
	return &Emitter{w: w, now: time.Now}
}

// OpenEmitter creates (or truncates) a JSONL file and returns an emitter
// owning it; Close releases the file.
func OpenEmitter(path string) (*Emitter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: opening events file: %w", err)
	}
	e := NewEmitter(f)
	e.closer = f
	return e, nil
}

// AppendEmitter opens (or creates) a JSONL file for appending and
// returns an emitter owning it. A resumed run uses it to continue the
// event log of its interrupted predecessor instead of erasing it; the
// sequence counter restarts at 0 for each process, so consumers ordering
// across restarts must use (ts, seq), not seq alone.
func AppendEmitter(path string) (*Emitter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: opening events file: %w", err)
	}
	e := NewEmitter(f)
	e.closer = f
	return e, nil
}

// SetClock replaces the timestamp source (golden tests pin it).
// No-op on a nil emitter.
func (e *Emitter) SetClock(now func() time.Time) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.now = now
	e.mu.Unlock()
}

// MirrorDrops registers a metrics counter that tracks the drop count
// live, so an operator watching /metrics sees event loss while the run
// is still going rather than only in the final emitter_stats line.
// No-op on a nil emitter; a nil counter clears the mirror.
func (e *Emitter) MirrorDrops(c *Counter) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.drops = c
	e.mu.Unlock()
}

// Emit writes one event line. No-op on a nil emitter. Events emitted
// after Close are counted as drops: the writer may be gone, and losing
// them silently is exactly the failure mode emitter_stats exists to
// expose.
func (e *Emitter) Emit(event string, fields map[string]any) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		e.drop()
		return
	}
	e.emitLocked(event, fields)
}

// emitLocked writes one event line; the caller holds e.mu.
func (e *Emitter) emitLocked(event string, fields map[string]any) {
	ev := Event{
		TS:     e.now().UTC().Format(time.RFC3339Nano),
		Seq:    e.seq,
		Event:  event,
		Fields: fields,
	}
	line, err := json.Marshal(ev)
	if err != nil {
		e.drop()
		return
	}
	line = append(line, '\n')
	if _, err := e.w.Write(line); err != nil {
		e.drop()
		return
	}
	e.seq++
}

// drop records one lost event; the caller holds e.mu.
func (e *Emitter) drop() {
	e.dropped++
	e.drops.Inc()
}

// Dropped returns how many events were lost to marshal or write errors.
func (e *Emitter) Dropped() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// Close writes a final emitter_stats event summarizing how many events
// were emitted and how many were dropped, then releases the underlying
// file when the emitter owns one. The stats line makes drops visible in
// the log itself: a consumer that sees no emitter_stats knows the run
// ended abnormally, and one that sees dropped > 0 knows the log is
// incomplete. Close is idempotent; no-op (nil error) on a nil emitter.
func (e *Emitter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.emitLocked(EventEmitterStats, map[string]any{
		"emitted": e.seq,
		"dropped": e.dropped,
	})
	e.closed = true
	if e.closer == nil {
		return nil
	}
	c := e.closer
	e.closer = nil
	return c.Close()
}
