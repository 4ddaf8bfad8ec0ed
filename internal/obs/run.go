package obs

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/obs/trace"
)

// Run holds the artifacts of one CLI invocation: the metrics registry
// and event log its instrumented calls take, the debug endpoint, and the
// trace with its root span. Metrics and Events are nil when disabled.
type Run struct {
	Metrics *Registry
	Events  *Emitter
	server  *Server
	tracer  *trace.Tracer
	span    *trace.Span
}

// StartRun opens the artifacts of the observability flags the CLIs
// share, each disabled by an empty value: a debug HTTP endpoint on
// metricsAddr (its URL printed to diag), a JSONL event log at
// eventsPath, and a Chrome trace at tracePath. When either of the first
// two is set a live Registry backs both, so events and endpoint
// snapshots share one instrument set. It then starts the root span,
// with fields as its attributes, and emits run_started with fields. The
// returned context carries the root span. On error, whatever it opened
// is closed again, the event log with its emitter_stats line.
func StartRun(ctx context.Context, metricsAddr, eventsPath, tracePath string, diag io.Writer, fields map[string]any) (*Run, context.Context, error) {
	r := &Run{}
	if eventsPath != "" {
		events, err := OpenEmitter(eventsPath)
		if err != nil {
			return nil, ctx, err
		}
		r.Metrics = NewRegistry()
		r.Events = events
		events.MirrorDrops(r.Metrics.Counter("obs.events_dropped_total"))
	}
	if metricsAddr != "" {
		if r.Metrics == nil {
			r.Metrics = NewRegistry()
		}
		// A served endpoint implies an operator who wants process health;
		// sampling is scrape-time only, so an unscrapped endpoint stays free.
		r.Metrics.EnableRuntimeMetrics()
		server, err := Serve(metricsAddr, r.Metrics)
		if err != nil {
			r.Close(&err)
			return nil, ctx, err
		}
		r.server = server
		if diag != nil {
			fmt.Fprintf(diag, "metrics: http://%s/metrics (pprof under /debug/pprof)\n", server.Addr())
		}
	}
	tracer, err := trace.Open(tracePath)
	if err != nil {
		r.Close(&err)
		return nil, ctx, err
	}
	r.tracer = tracer
	r.span, ctx = tracer.StartRoot(ctx, trace.SpanRun)
	for k, v := range fields {
		r.span.SetAttr(k, v)
	}
	r.Events.Emit(EventRunStarted, fields)
	return r, ctx, nil
}

// Close ends the root span and writes the trace, then stops the
// endpoint and closes the event log. A trace that cannot be written (or
// was truncated at its span cap) becomes *errp unless the run already
// failed, so it surfaces instead of vanishing. Call it once, deferred
// with the address of the run's named error.
func (r *Run) Close(errp *error) {
	r.span.End()
	if err := r.tracer.Close(); err != nil && *errp == nil {
		*errp = err
	}
	// Graceful with a short deadline: an in-flight pprof scrape may
	// finish, but a signal-triggered exit is never stalled by one.
	r.server.Shutdown(2 * time.Second)
	// Event-log failures never fail a run; the emitter counts its drops.
	r.Events.Close()
}
