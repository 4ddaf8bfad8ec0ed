package main

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSelfTimeOverlappingChildren pins self time to the interval union: a
// session whose concurrent episodes overlap keeps a positive self time,
// where subtracting the children's plain sum would drive it negative.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	ss := newSpanSet([]span{
		{id: 1, name: "session", start: 0, end: 10},
		{id: 2, parent: 1, name: "episode", start: 1, end: 6},
		{id: 3, parent: 1, name: "episode", start: 2, end: 7},
		{id: 4, parent: 1, name: "episode", start: 3, end: 8},
		// A child that outlives its parent counts only inside it.
		{id: 5, parent: 1, name: "ppo_update", start: 9, end: 12},
		// A grandchild does not reduce the session's self time.
		{id: 6, parent: 2, name: "oracle_eval", start: 1, end: 2},
	})
	if got := ss.selfTime("session"); !near(got, 10-7-1) {
		t.Errorf("session self time = %v, want 2", got)
	}
	var naive float64
	for _, s := range ss.spans[1:5] {
		naive += s.dur()
	}
	if naive < 10 {
		t.Fatalf("fixture children sum to %v; they must exceed the parent to show the naive error", naive)
	}
	if got := ss.selfTime("episode"); !near(got, 5-1+5+5) {
		t.Errorf("episode self time = %v, want 14", got)
	}
	if got := ss.busy("episode"); !near(got, 15) {
		t.Errorf("episode busy = %v, want 15", got)
	}
	if got := ss.covered("episode"); !near(got, 7) {
		t.Errorf("episode covered = %v, want 7", got)
	}
}

func TestUnionLength(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  []interval
		want float64
	}{
		{"empty", nil, 0},
		{"disjoint", []interval{{4, 5}, {0, 1}}, 2},
		{"nested", []interval{{0, 10}, {2, 3}}, 10},
		{"touching", []interval{{0, 1}, {1, 2}}, 2},
		{"chain", []interval{{0, 2}, {1, 3}, {2.5, 4}, {6, 7}}, 5},
	} {
		if got := unionLength(tc.ivs); !near(got, tc.want) {
			t.Errorf("%s: union = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestReadSpans checks that spans recorded by the program's tracer come
// back with their names, parents and attributes.
func TestReadSpans(t *testing.T) {
	tr := trace.New()
	root, ctx := tr.StartRoot(context.Background(), "root")
	child, _ := trace.StartSpan(ctx, trace.SpanCollect)
	child.SetAttr("samples", 256)
	child.End()
	root.End()
	ss, err := readSpans(tr)
	if err != nil {
		t.Fatal(err)
	}
	roots, collects := ss.named("root"), ss.named(trace.SpanCollect)
	if len(roots) != 1 || len(collects) != 1 {
		t.Fatalf("got %d root and %d collect spans, want 1 each", len(roots), len(collects))
	}
	if collects[0].parent != roots[0].id {
		t.Errorf("collect parent = %d, want root %d", collects[0].parent, roots[0].id)
	}
	if got := ss.attrSum(trace.SpanCollect, "samples"); got != 256 {
		t.Errorf("samples = %v, want 256", got)
	}
	if self := ss.selfTime("root"); self < 0 || self > roots[0].dur() {
		t.Errorf("root self time %v outside [0, %v]", self, roots[0].dur())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}
