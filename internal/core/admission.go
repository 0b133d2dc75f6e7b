package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"desword/internal/obs"
)

// This file implements admission control for the proxy front door and the
// node servers: a bounded wait queue in front of a bounded worker pool, with
// deadline-aware drop. Under overload the system sheds excess work
// immediately — an explicit, cheap load_shed outcome — instead of queueing
// it until every caller times out, which is how one saturated proxy turns
// into a fleet-wide outage.

// ErrLoadShed reports that admission control rejected work before it ran.
// Callers match it with errors.Is; the message carries the reason.
var ErrLoadShed = errors.New("core: load shed")

// DefaultAdmissionWorkers bounds concurrently admitted requests when a gate
// is configured with a non-positive worker count.
const DefaultAdmissionWorkers = 16

// Gate is a bounded admission controller: at most Workers requests run at
// once, at most Queue more wait for a slot, and a waiter whose context
// deadline provably cannot be met — the predicted queue drain time already
// overshoots it — is rejected immediately rather than parked until it
// expires. A nil *Gate admits everything; all methods are nil-safe.
type Gate struct {
	slots   chan struct{} // buffered semaphore: capacity = workers
	queue   int           // waiters allowed beyond the running workers
	queued  atomic.Int64  // current waiters
	ewmaUS  atomic.Int64  // EWMA of service time, microseconds
	workers int

	admitted  *obs.Counter
	shedQueue *obs.Counter
	shedDL    *obs.Counter
	depth     *obs.Gauge
	wait      *obs.Histogram
}

// NewGate builds a gate for a component ("proxy", "node_participant", …).
// workers <= 0 selects DefaultAdmissionWorkers; queue < 0 means no waiting
// room at all (shed the moment every worker is busy), queue == 0 keeps a
// default waiting room of 2×workers.
func NewGate(component string, workers, queue int) *Gate {
	if workers <= 0 {
		workers = DefaultAdmissionWorkers
	}
	switch {
	case queue < 0:
		queue = 0
	case queue == 0:
		queue = 2 * workers
	}
	return &Gate{
		slots:   make(chan struct{}, workers),
		queue:   queue,
		workers: workers,
		admitted: obs.Default.Counter("desword_admission_admitted_total",
			"Requests admitted past the admission gate, by component.",
			"component", component),
		shedQueue: obs.Default.Counter("desword_admission_shed_total",
			"Requests shed by the admission gate, by component and reason.",
			"component", component, "reason", "queue_full"),
		shedDL: obs.Default.Counter("desword_admission_shed_total",
			"Requests shed by the admission gate, by component and reason.",
			"component", component, "reason", "deadline"),
		depth: obs.Default.Gauge("desword_admission_queue_depth",
			"Requests currently waiting for an admission slot, by component.",
			"component", component),
		wait: obs.Default.Histogram("desword_admission_wait_seconds",
			"Time admitted requests spent waiting for an admission slot, by component.",
			nil, "component", component),
	}
}

// Acquire admits the caller or sheds it. On admission it returns a release
// function the caller must invoke when the work completes; on shedding it
// returns an error wrapping ErrLoadShed. The deadline-aware drop: a caller
// whose ctx deadline is closer than the predicted wait for a slot is
// rejected immediately — parking it would only burn a queue slot on work
// that is already dead.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	start := time.Now()
	// Fast path: a free worker slot, no queueing.
	select {
	case g.slots <- struct{}{}:
		g.admitted.Inc()
		g.wait.Observe(0)
		return g.releaseFunc(), nil
	default:
	}
	// Every worker is busy: decide whether to wait. The queue is bounded,
	// and a deadline that the predicted drain time already overshoots is a
	// guaranteed timeout — reject it now, while rejecting is still cheap.
	waiters := g.queued.Load()
	if int(waiters) >= g.queue {
		g.shedQueue.Inc()
		return nil, fmt.Errorf("%w: admission queue full (%d waiting)", ErrLoadShed, waiters)
	}
	if dl, ok := ctx.Deadline(); ok {
		if wait := g.predictWait(waiters); wait > 0 && time.Now().Add(wait).After(dl) {
			g.shedDL.Inc()
			return nil, fmt.Errorf("%w: deadline %s away, predicted queue wait %s",
				ErrLoadShed, time.Until(dl).Round(time.Millisecond), wait.Round(time.Millisecond))
		}
	}
	g.queued.Add(1)
	g.depth.Inc()
	defer func() {
		g.queued.Add(-1)
		g.depth.Dec()
	}()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Inc()
		g.wait.ObserveSince(start)
		return g.releaseFunc(), nil
	case <-ctx.Done():
		g.shedDL.Inc()
		return nil, fmt.Errorf("%w: %w while queued", ErrLoadShed, ctx.Err())
	}
}

// predictWait estimates how long a new waiter would queue: the waiters ahead
// of it plus itself, drained at one EWMA service time per worker.
func (g *Gate) predictWait(waiters int64) time.Duration {
	ewma := g.ewmaUS.Load()
	if ewma <= 0 {
		return 0 // no history yet: admit optimistically
	}
	return time.Duration((waiters+1)*ewma/int64(g.workers)) * time.Microsecond
}

// releaseFunc frees the caller's slot and feeds the observed service time
// into the EWMA that drives the deadline-aware drop. Service time runs from
// admission, not arrival: predictWait adds the queue on top of it, so time
// spent waiting must not leak into the per-request estimate.
func (g *Gate) releaseFunc() func() {
	admitted := time.Now()
	return func() {
		us := time.Since(admitted).Microseconds()
		prev := g.ewmaUS.Load()
		if prev == 0 {
			g.ewmaUS.Store(us)
		} else {
			// α=1/8: smooth enough to ignore one outlier, fresh enough to
			// track a load-shift within a few requests. A CAS loop is not
			// worth it — a lost update just weights a concurrent sample.
			g.ewmaUS.Store(prev + (us-prev)/8)
		}
		<-g.slots
	}
}
