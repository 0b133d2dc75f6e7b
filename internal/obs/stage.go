package obs

import (
	"context"
	"time"

	"desword/internal/trace"
)

// A Stage is one timed layer boundary: a proof, a verification, a proxy hop,
// a whole path query. It opens the boundary's span when the request is
// traced and reads the clock once; End turns that one reading into the
// boundary's histogram observation, its span and the duration its wide-event
// field records, so the three can never disagree.
//
// The proof packages time through a Stage because desword/determinism keeps
// them off the wall clock, so that proof generation and verification remain
// pure functions of their inputs: the clock is read only here in obs, which
// is outside the enforced set. An untraced stage costs two clock reads and
// no allocation.
type Stage struct {
	span  *trace.Span
	start time.Time
}

// StartStage opens a stage below ctx's active span. An untraced ctx gets no
// span and is returned unchanged.
func StartStage(ctx context.Context, name string, attrs ...trace.Attr) (context.Context, Stage) {
	ctx, span := trace.Default.StartChild(ctx, name, attrs...)
	return ctx, Stage{span: span, start: time.Now()}
}

// StartRootStage is StartStage for a boundary that may root a trace: when ctx
// carries no span, trace.Default's sampling rate decides whether one starts.
func StartRootStage(ctx context.Context, name string, attrs ...trace.Attr) (context.Context, Stage) {
	ctx, span := trace.Default.Start(ctx, name, attrs...)
	return ctx, Stage{span: span, start: time.Now()}
}

// Span returns the stage's span, nil when the stage is untraced; a nil
// span's methods are no-ops.
func (s Stage) Span() *trace.Span { return s.span }

// Start returns the instant the stage began.
func (s Stage) Start() time.Time { return s.start }

// End closes the stage. It observes the elapsed seconds in h (a nil h
// observes nothing), records a non-nil err on the span, ends the span, and
// returns the elapsed time for the caller's wide-event field.
func (s Stage) End(h *Histogram, err error) time.Duration {
	d := time.Since(s.start)
	if h != nil {
		h.Observe(d.Seconds())
	}
	s.span.SetError(err)
	s.span.End()
	return d
}
