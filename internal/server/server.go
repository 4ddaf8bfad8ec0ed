package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// Runner executes one job. Implementations decode spec.Config into their
// engine configuration, wire the given files (engine checkpoint, event
// log, output artifact) and instrumentation in, and return the job's
// deterministic result document. Run must honor ctx cancellation at an
// engine boundary and leave a resumable checkpoint behind, and a re-Run
// of the same spec with the same files must converge to the identical
// result — the server's restart durability is built on that contract.
type Runner interface {
	// Validate vets spec.Config without running anything (POST /jobs
	// rejects bad specs synchronously).
	Validate(spec Spec) error
	// Run executes the job.
	Run(ctx context.Context, spec Spec, files Files, metrics *obs.Registry, events *obs.Emitter) (json.RawMessage, error)
}

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	// ErrBadSpec: the submitted spec is malformed (HTTP 400).
	ErrBadSpec = errors.New("server: bad job spec")
	// ErrNotFound: no job with that ID (HTTP 404).
	ErrNotFound = errors.New("server: no such job")
	// ErrClosed: the server is shutting down (HTTP 503).
	ErrClosed = errors.New("server: shutting down")
)

// Config tunes a Server. Zero values select defaults.
type Config struct {
	// DataDir is the server's state directory: the durable job table
	// (jobs.ckpt) plus each job's engine checkpoint, JSONL event log
	// and output artifact. Restarting a daemon on the same directory
	// resumes everything; the directory is the whole daemon state.
	DataDir string
	// Workers is the job worker-pool size (default 2). Each worker runs
	// one job at a time; the job's own campaign parallelism is governed
	// by its config's Workers knob, not this one.
	Workers int
	// TenantQuota bounds how many jobs one tenant may have running at
	// once (default: Workers, i.e. no effective limit for a lone
	// tenant). Queued jobs beyond the quota wait without blocking other
	// tenants' jobs behind them.
	TenantQuota int
	// Runner executes jobs. Required.
	Runner Runner
	// Metrics, if non-nil, receives scheduler instrumentation and is
	// served on /metrics (plus expvar and pprof under /debug/) by
	// Handler.
	Metrics *obs.Registry
	// Events, if non-nil, receives daemon-level job lifecycle events
	// (job_submitted, job_started, job_finished, job_cancelled). Each
	// job additionally gets its own per-job event log under DataDir.
	Events *obs.Emitter
}

// Server is the campaign job server: scheduler state, worker pool and
// durable store. Construct with New, serve Handler over HTTP, stop with
// Close.
type Server struct {
	cfg   Config
	store *store

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[string]*Job
	q       *queue
	cancels map[string]context.CancelFunc
	nextSeq uint64
	// storedSeq is the ID counter last persisted; Submit leaves it
	// behind and a purge catches it up when it must (persistSeqPast).
	storedSeq uint64
	closed    bool

	// Per-job metric attribution (nil-free even with Metrics disabled).
	// Each running job writes into its own registry; scrape-time folding
	// (MetricsSnapshot) composes the fleet view from the scheduler
	// registry + the accumulated history of finished attempts + the live
	// registries, labeled by JobLabelNames. Because the unlabeled totals
	// are produced by the same fold that produces the labeled series,
	// the sums match by construction.
	history  obs.Snapshot
	liveJobs map[string]*liveJob
}

// liveJob is a running job's metric registry plus its attribution
// label values.
type liveJob struct {
	reg    *obs.Registry
	labels []string
}

// New opens (or creates) the data directory, loads the durable job
// table, re-queues jobs that were queued or running when the previous
// daemon stopped, and starts the worker pool. Interrupted running jobs
// resume from their engine checkpoints bit-identically.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("server: Config.DataDir is required")
	}
	if cfg.Runner == nil {
		return nil, errors.New("server: Config.Runner is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.TenantQuota <= 0 {
		cfg.TenantQuota = cfg.Workers
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	st, err := openStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      st,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		q:          newQueue(cfg.TenantQuota),
		cancels:    map[string]context.CancelFunc{},
		history:    (*obs.Registry)(nil).Snapshot(),
		liveJobs:   map[string]*liveJob{},
	}
	s.cond = sync.NewCond(&s.mu)

	jobs, seq := st.load()
	s.storedSeq, s.nextSeq = seq, max(seq, st.seqAfterRecords())
	now := time.Now().UTC()
	for _, j := range jobs {
		j.cancelRequested = false
		switch j.State {
		case StateQueued:
			j.enqueuedAt = now
			s.q.push(j.ID)
		case StateRunning:
			// Interrupted mid-run (graceful shutdown or crash): back to
			// the queue; the re-run resumes from the engine checkpoint.
			j.State = StateQueued
			j.Resumes++
			j.enqueuedAt = now
			if err := st.putJob(j); err != nil {
				cancel()
				return nil, err
			}
			s.q.push(j.ID)
		}
		s.jobs[j.ID] = j
	}
	s.updateGauges()
	cfg.Events.Emit(obs.EventJobStoreOpened, map[string]any{
		"jobs": len(jobs), "dropped_bytes": st.stages.DroppedBytes(),
	})

	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Files returns the stable per-job paths for a job ID.
func (s *Server) Files(id string) Files {
	return Files{
		Checkpoint: filepath.Join(s.cfg.DataDir, id+".ckpt"),
		Events:     filepath.Join(s.cfg.DataDir, id+".events.jsonl"),
		Output:     filepath.Join(s.cfg.DataDir, id+".out.json"),
	}
}

// Submit validates and enqueues a job, returning its durable record.
func (s *Server) Submit(spec Spec) (*Job, error) {
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if err := s.cfg.Runner.Validate(spec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	seq := s.nextSeq
	s.nextSeq++
	now := time.Now().UTC()
	j := &Job{
		ID:          fmt.Sprintf("j-%06d", seq),
		Seq:         seq,
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: now,
		enqueuedAt:  now,
	}
	if err := s.store.putJob(j); err != nil {
		return nil, err
	}
	s.jobs[j.ID] = j
	s.q.push(j.ID)
	s.cfg.Metrics.Counter("server.jobs_submitted_total").Inc()
	s.cfg.Metrics.CounterVec("server.jobs_submitted_total", "tenant", "kind").
		With(spec.Tenant, spec.Type).Inc()
	s.updateGauges()
	s.cfg.Events.Emit(obs.EventJobSubmitted, map[string]any{
		"id": j.ID, "type": spec.Type, "tenant": spec.Tenant, "name": spec.Name,
	})
	s.cond.Broadcast()
	return j.clone(), nil
}

// Job returns a copy of one job's record.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j.clone(), nil
}

// Jobs returns copies of every job record in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.clone())
	}
	sortJobs(out)
	return out
}

// Delete is the DELETE /jobs/{id} semantic: a queued job is cancelled in
// place, a running job's context is cancelled (the engine stops at its
// next shard/episode boundary and the job settles to cancelled), and a
// terminal job's record and files are purged. The returned purged flag
// reports the last case. A purge whose store delete fails keeps the job
// and its files, so a restart never finds a record without them.
func (s *Server) Delete(id string) (job *Job, purged bool, err error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false, ErrNotFound
	}
	switch {
	case j.State == StateQueued:
		s.q.remove(id)
		now := time.Now().UTC()
		j.State = StateCancelled
		j.Error = "cancelled before start"
		j.FinishedAt = &now
		err = s.store.putJob(j)
		s.cfg.Metrics.Counter("server.jobs_cancelled_total").Inc()
		s.cfg.Metrics.CounterVec("server.jobs_cancelled_total", "tenant", "kind").
			With(j.Spec.Tenant, j.Spec.Type).Inc()
		s.updateGauges()
		s.cfg.Events.Emit(obs.EventJobCancelled, map[string]any{"id": id, "state": "queued"})
		job = j.clone()
		s.mu.Unlock()
		return job, false, err
	case j.State == StateRunning:
		j.cancelRequested = true
		cancel := s.cancels[id]
		job = j.clone()
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		s.cfg.Events.Emit(obs.EventJobCancelled, map[string]any{"id": id, "state": "running"})
		return job, false, nil
	default: // terminal: purge record and files
		if err := s.persistSeqPast(j.Seq); err != nil {
			s.mu.Unlock()
			return nil, false, err
		}
		if err := s.store.deleteJob(id); err != nil {
			s.mu.Unlock()
			return nil, false, err
		}
		delete(s.jobs, id)
		files := s.Files(id)
		s.mu.Unlock()
		for _, p := range []string{files.Checkpoint, files.Events, files.Output} {
			os.Remove(p)
		}
		return nil, true, nil
	}
}

// persistSeqPast makes sure that purging the record of the job with
// sequence seq cannot lead a restarted daemon to issue its ID again. New
// takes the next ID as the larger of the stored counter and the highest
// stored sequence + 1, and Submit does not write the counter, so a purge
// writes it, fsynced and before the delete, only when no remaining record
// has a higher sequence and the stored counter is not already past seq.
// The caller holds s.mu.
func (s *Server) persistSeqPast(seq uint64) error {
	if s.storedSeq > seq {
		return nil
	}
	for _, j := range s.jobs {
		if j.Seq > seq {
			return nil
		}
	}
	if err := s.store.putSeq(s.nextSeq); err != nil {
		return err
	}
	s.storedSeq = s.nextSeq
	return nil
}

// Close stops the scheduler: no new jobs are accepted or started,
// running jobs are cancelled at their next engine boundary (leaving
// resumable checkpoints and on-disk records in the running state so the
// next daemon requeues them), and Close blocks until the workers drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.baseCancel()
	s.cond.Broadcast()
	s.wg.Wait()
	return nil
}

// worker pulls eligible jobs until the server closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ctx := s.next()
		if j == nil {
			return
		}
		s.runJob(ctx, j)
	}
}

// next blocks until a job is eligible (FIFO, tenant under quota) or the
// server closes. It transitions the job to running and persists that, so
// a crash between here and the run's end still resumes the job.
func (s *Server) next() (*Job, context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil, nil
		}
		id := s.q.pop(func(id string) string { return s.jobs[id].Spec.Tenant })
		if id == "" {
			s.cond.Wait()
			continue
		}
		j := s.jobs[id]
		now := time.Now().UTC()
		j.State = StateRunning
		j.StartedAt = &now
		if !j.enqueuedAt.IsZero() {
			j.queueWait = now.Sub(j.enqueuedAt)
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		s.cancels[id] = cancel
		if err := s.store.putJob(j); err != nil {
			// A job we cannot persist must not run: its restart story
			// would be undefined. Fail it in memory and move on.
			j.State = StateFailed
			j.Error = fmt.Sprintf("persisting running state: %v", err)
			delete(s.cancels, id)
			cancel()
			s.q.release(j.Spec.Tenant)
			continue
		}
		s.updateGauges()
		return j, ctx
	}
}

// runJob executes one job and settles its terminal (or interrupted)
// state. The attempt runs against its own metric registry (folded into
// the fleet view by MetricsSnapshot) and its measured cost lands on the
// durable record as Job.Usage.
func (s *Server) runJob(ctx context.Context, j *Job) {
	files := s.Files(j.ID)
	labels := j.Spec.labelValues()
	s.cfg.Events.Emit(obs.EventJobStarted, map[string]any{
		"id": j.ID, "type": j.Spec.Type, "tenant": j.Spec.Tenant, "resumes": j.Resumes,
	})

	// Each attempt writes into a fresh registry so its counters are this
	// job's alone; the fleet /metrics view is composed by folding. With
	// metrics disabled the registry stays nil and the whole path keeps
	// the zero-cost disabled contract.
	var jobReg *obs.Registry
	if s.cfg.Metrics != nil {
		jobReg = obs.NewRegistry()
		s.mu.Lock()
		s.liveJobs[j.ID] = &liveJob{reg: jobReg, labels: labels}
		s.mu.Unlock()
	}

	var (
		result json.RawMessage
		runErr error
		usage  Usage
	)
	// The per-job event log appends across daemon restarts so the SSE
	// stream and the log survive a resume; job_started marks each
	// attempt. The attempt's attribution labels ride on it so offline
	// fleet reports can group logs with no access to the job store.
	em, err := obs.AppendEmitter(files.Events)
	if err != nil {
		runErr = err
	} else {
		em.Emit(obs.EventJobStarted, map[string]any{
			"id": j.ID, "type": j.Spec.Type, "resumes": j.Resumes,
			"tenant": labels[0], "kind": labels[1], "cipher": labels[2], "fault_model": labels[3],
		})
		start := time.Now()
		cpu0 := processCPUSeconds()
		heap := startHeapSampler()
		result, runErr = s.cfg.Runner.Run(ctx, j.Spec, files, jobReg, em)
		usage = Usage{
			Attempts:      1,
			WallSeconds:   time.Since(start).Seconds(),
			CPUSeconds:    processCPUSeconds() - cpu0,
			QueueSeconds:  j.queueWait.Seconds(),
			PeakHeapBytes: heap.Stop(),
		}
		s.cfg.Metrics.Histogram("server.job_seconds", obs.LatencyBuckets).
			Observe(usage.WallSeconds)
		s.cfg.Metrics.HistogramVec("server.job_seconds", obs.LatencyBuckets, "tenant", "kind").
			With(j.Spec.Tenant, j.Spec.Type).Observe(usage.WallSeconds)
	}

	// The attempt is over; its registry is final. Lift the work counters
	// into the usage record before the snapshot is folded away.
	var jobSnap obs.Snapshot
	if jobReg != nil {
		jobSnap = jobReg.Snapshot()
		usage.Episodes, usage.Cells, usage.Traces = usageFromSnapshot(jobSnap)
	}

	// Decide the outcome, then finish the event log BEFORE the state
	// transition is published: once a reader observes a terminal state,
	// the job's log is complete, which is what lets the SSE endpoint
	// terminate cleanly without racing the final lines.
	s.mu.Lock()
	cancelRequested := j.cancelRequested
	closing := s.closed
	if j.Usage == nil {
		j.Usage = &Usage{}
	}
	j.Usage.add(usage)
	usageTotal := *j.Usage
	s.mu.Unlock()

	var (
		state       State
		errText     string
		interrupted bool
	)
	switch {
	case runErr == nil:
		state = StateDone
	case cancelRequested && ctx.Err() != nil:
		state = StateCancelled
		errText = runErr.Error()
	case closing && ctx.Err() != nil:
		// Daemon shutdown: leave the record in the running state so the
		// next daemon requeues and resumes it. The engine checkpoint
		// written on cancellation carries the actual progress.
		interrupted = true
	default:
		state = StateFailed
		errText = runErr.Error()
	}
	if em != nil {
		// Every attempt ends with its cumulative cost (interrupted ones
		// included — their next attempt starts from this figure), so the
		// last job_usage line of a log is the job's usage to date.
		attemptState := string(state)
		if interrupted {
			attemptState = "interrupted"
		}
		em.Emit(obs.EventJobUsage, map[string]any{
			"id": j.ID, "state": attemptState,
			"tenant": labels[0], "kind": labels[1], "cipher": labels[2], "fault_model": labels[3],
			"attempts":     usageTotal.Attempts,
			"wall_seconds": usageTotal.WallSeconds, "cpu_seconds": usageTotal.CPUSeconds,
			"queue_seconds": usageTotal.QueueSeconds,
			"episodes":      usageTotal.Episodes, "cells": usageTotal.Cells, "traces": usageTotal.Traces,
			"peak_heap_bytes": usageTotal.PeakHeapBytes,
		})
		if !interrupted {
			em.Emit(obs.EventJobFinished, map[string]any{"id": j.ID, "state": string(state)})
		}
		em.Close()
	}

	s.mu.Lock()
	if cancel := s.cancels[j.ID]; cancel != nil {
		delete(s.cancels, j.ID)
		defer cancel()
	}
	s.q.release(j.Spec.Tenant)
	// Retire the attempt's registry: fold it into the accumulated
	// history in the same critical section that removes it from the live
	// set, so a concurrent scrape sees the attempt exactly once.
	if jobReg != nil {
		obs.Fold(&s.history, jobSnap, JobLabelNames, labels)
		delete(s.liveJobs, j.ID)
	}
	if !interrupted {
		now := time.Now().UTC()
		j.State = state
		j.Error = errText
		j.FinishedAt = &now
		if state == StateDone {
			j.Result = result
		}
		switch state {
		case StateDone:
			s.cfg.Metrics.Counter("server.jobs_done_total").Inc()
			s.cfg.Metrics.CounterVec("server.jobs_done_total", "tenant", "kind").
				With(j.Spec.Tenant, j.Spec.Type).Inc()
		case StateCancelled:
			s.cfg.Metrics.Counter("server.jobs_cancelled_total").Inc()
			s.cfg.Metrics.CounterVec("server.jobs_cancelled_total", "tenant", "kind").
				With(j.Spec.Tenant, j.Spec.Type).Inc()
		case StateFailed:
			s.cfg.Metrics.Counter("server.jobs_failed_total").Inc()
			s.cfg.Metrics.CounterVec("server.jobs_failed_total", "tenant", "kind").
				With(j.Spec.Tenant, j.Spec.Type).Inc()
		}
	}
	if err := s.store.putJob(j); err != nil && j.State == StateDone {
		j.Error = fmt.Sprintf("result not persisted: %v", err)
	}
	s.updateGauges()
	s.cond.Broadcast()
	s.mu.Unlock()

	if !interrupted {
		s.cfg.Events.Emit(obs.EventJobFinished, map[string]any{
			"id": j.ID, "state": string(state), "error": errText,
		})
	}
}

// updateGauges refreshes the queue-depth and running-count gauges,
// unlabeled and per tenant; the caller holds s.mu. Every tenant with a
// job on record gets its series written (zero included), so a tenant
// whose last job just finished reads 0, not a stale level.
func (s *Server) updateGauges() {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	type counts struct{ queued, running int }
	perTenant := map[string]*counts{}
	queued, running := 0, 0
	for _, j := range s.jobs {
		c, ok := perTenant[j.Spec.Tenant]
		if !ok {
			c = &counts{}
			perTenant[j.Spec.Tenant] = c
		}
		switch j.State {
		case StateQueued:
			queued++
			c.queued++
		case StateRunning:
			running++
			c.running++
		}
	}
	m.Gauge("server.jobs_queued").Set(float64(queued))
	m.Gauge("server.jobs_running").Set(float64(running))
	queuedVec := m.GaugeVec("server.jobs_queued", "tenant")
	runningVec := m.GaugeVec("server.jobs_running", "tenant")
	for tenant, c := range perTenant {
		queuedVec.With(tenant).Set(float64(c.queued))
		runningVec.With(tenant).Set(float64(c.running))
	}
}

// Ready reports whether the server accepts new jobs; false once Close
// has begun (draining) or finished.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// MetricsSnapshot composes the fleet metric view served on /metrics:
// the scheduler registry's own snapshot, plus the folded history of
// finished job attempts, plus every live job's registry folded under
// its attribution labels. The unlabeled totals and the labeled series
// come out of the same fold, so the per-label sums always match the
// totals. Safe with metrics disabled (returns the scheduler snapshot,
// which is empty for a nil registry).
func (s *Server) MetricsSnapshot() obs.Snapshot {
	snap := s.cfg.Metrics.Snapshot()
	s.mu.Lock()
	defer s.mu.Unlock()
	obs.Fold(&snap, s.history, nil, nil)
	for _, lj := range s.liveJobs {
		obs.Fold(&snap, lj.reg.Snapshot(), JobLabelNames, lj.labels)
	}
	return snap
}

// sortJobs orders job clones by submission sequence.
func sortJobs(jobs []*Job) {
	for i := 1; i < len(jobs); i++ {
		for k := i; k > 0 && jobs[k-1].Seq > jobs[k].Seq; k-- {
			jobs[k-1], jobs[k] = jobs[k], jobs[k-1]
		}
	}
}
