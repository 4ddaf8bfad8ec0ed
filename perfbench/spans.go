package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/obs/trace"
)

// startTrace returns a fresh tracer and a context carrying its root span
// when on is set; otherwise nil spans and ctx unchanged, which the
// program's spans treat as tracing off.
func startTrace(ctx context.Context, on bool) (*trace.Tracer, *trace.Span, context.Context) {
	if !on {
		return nil, nil, ctx
	}
	tr := trace.New()
	root, ctx := tr.StartRoot(ctx, "perfbench")
	return tr, root, ctx
}

// span is one completed span read back from a tracer's export. Times are
// seconds since the tracer's epoch.
type span struct {
	id, parent uint64
	name       string
	start, end float64
	attrs      map[string]any
}

func (s span) dur() float64 { return s.end - s.start }

// interval is a half-open time range in seconds.
type interval struct{ lo, hi float64 }

// spanSet indexes the spans of one trace.
type spanSet struct {
	spans    []span
	children map[uint64][]int // parent id -> indexes into spans
}

// readSpans exports tr and parses its Chrome trace-event document.
func readSpans(tr *trace.Tracer) (*spanSet, error) {
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("parsing trace export: %w", err)
	}
	var spans []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, _ := ev.Args["span_id"].(float64)
		parent, _ := ev.Args["parent_id"].(float64)
		spans = append(spans, span{
			id: uint64(id), parent: uint64(parent), name: ev.Name,
			start: ev.TS / 1e6, end: (ev.TS + ev.Dur) / 1e6, attrs: ev.Args,
		})
	}
	return newSpanSet(spans), nil
}

func newSpanSet(spans []span) *spanSet {
	ss := &spanSet{spans: spans, children: map[uint64][]int{}}
	for i, s := range spans {
		if s.parent != 0 {
			ss.children[s.parent] = append(ss.children[s.parent], i)
		}
	}
	return ss
}

// named returns every span with the given name.
func (ss *spanSet) named(name string) []span {
	var out []span
	for _, s := range ss.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// busy sums the durations of every span with the given name. Concurrent
// spans each count in full, so busy time can exceed wall time.
func (ss *spanSet) busy(name string) float64 {
	var sum float64
	for _, s := range ss.named(name) {
		sum += s.dur()
	}
	return sum
}

// covered is the length of the union of the named spans' intervals: the
// wall time during which at least one of them was running.
func (ss *spanSet) covered(name string) float64 {
	var ivs []interval
	for _, s := range ss.named(name) {
		ivs = append(ivs, interval{s.start, s.end})
	}
	return unionLength(ivs)
}

// selfTime sums, over every span with the given name, its duration minus
// the union of its children's intervals clipped to it. Children that run
// concurrently (episodes of parallel envs, shards of one campaign)
// overlap; subtracting their plain sum would count shared time twice and
// can drive self time below zero.
func (ss *spanSet) selfTime(name string) float64 {
	var sum float64
	for _, s := range ss.named(name) {
		var ivs []interval
		for _, ci := range ss.children[s.id] {
			c := ss.spans[ci]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sum += s.dur() - unionLength(ivs)
	}
	return sum
}

// attrSum sums a numeric attribute over every span with the given name.
func (ss *spanSet) attrSum(name, key string) float64 {
	var sum float64
	for _, s := range ss.named(name) {
		if v, ok := s.attrs[key].(float64); ok {
			sum += v
		}
	}
	return sum
}

// unionLength returns the total length covered by the intervals.
func unionLength(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total float64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}
