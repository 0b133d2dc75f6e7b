package obs

import (
	"context"
	"errors"
	"testing"

	"desword/internal/trace"
)

// TestStageEndObservesOnce pins End's contract: one observation of the
// returned elapsed time, and nothing observed for a nil histogram.
func TestStageEndObservesOnce(t *testing.T) {
	h := NewRegistry().Histogram("test_stage_seconds", "Stage test.", nil)
	_, st := StartStage(context.Background(), "test.stage")
	d := st.End(h, nil)
	if d < 0 {
		t.Fatalf("End returned %v", d)
	}
	if h.Count() != 1 || h.Sum() != d.Seconds() {
		t.Fatalf("histogram holds %d observations summing to %v, want 1 of %v", h.Count(), h.Sum(), d.Seconds())
	}
	_, st = StartStage(context.Background(), "test.stage")
	st.End(nil, nil)
	if h.Count() != 1 {
		t.Fatalf("a nil histogram must observe nothing; count is %d", h.Count())
	}
}

// TestStageSpanCarriesError pins the traced side: a root stage roots a
// sampled trace, a nested stage becomes its child, and each span ends
// carrying the error its End was given.
func TestStageSpanCarriesError(t *testing.T) {
	trace.Default.SetSampleRate(1)
	t.Cleanup(func() { trace.Default.SetSampleRate(0) })
	ctx, root := StartRootStage(context.Background(), "test.root", trace.String("k", "v"))
	if root.Span() == nil {
		t.Fatal("a root stage at sample rate 1 must be traced")
	}
	_, child := StartStage(ctx, "test.child")
	child.End(nil, errors.New("child failed"))
	root.End(nil, errors.New("root failed"))

	td, ok := trace.Default.Recorder().Get(root.Span().TraceID())
	if !ok {
		t.Fatal("trace missing from the recorder")
	}
	got := map[string]trace.SpanData{}
	for _, sp := range td.Spans {
		got[sp.Name] = sp
	}
	if got["test.root"].Error != "root failed" || got["test.child"].Error != "child failed" {
		t.Fatalf("span errors: root %q, child %q", got["test.root"].Error, got["test.child"].Error)
	}
	if got["test.child"].ParentID != got["test.root"].SpanID {
		t.Fatal("the nested stage's span is not a child of the root stage's")
	}
}

// TestUntracedStageAllocatesNothing pins the hot-path cost: an untraced
// stage, attributes included, allocates nothing.
func TestUntracedStageAllocatesNothing(t *testing.T) {
	h := NewRegistry().Histogram("test_stage_alloc_seconds", "Stage test.", nil)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		_, st := StartStage(ctx, "test.stage", trace.String("participant", "p0"), trace.Int("q", 8))
		st.End(h, nil)
	})
	if allocs != 0 {
		t.Fatalf("an untraced stage allocated %v times", allocs)
	}
}
