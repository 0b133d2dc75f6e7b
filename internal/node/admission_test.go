package node

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/wire"
)

// waitQueued polls until n callers wait at the gate.
func waitQueued(t *testing.T, g *Gate, n int64) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for g.queued.Load() != n {
		select {
		case <-deadline:
			t.Fatalf("%d callers queued, want %d", g.queued.Load(), n)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestGateEWMASamplesServiceTime pins what the deadline-aware drop predicts
// from: a request that queued and then held its slot for almost no time
// feeds almost nothing into the service-time EWMA, while the wait histogram
// still measures from arrival.
func TestGateEWMASamplesServiceTime(t *testing.T) {
	g := NewGate("test_ewma", 1, 1)
	g.slots <- struct{}{} // occupy the only worker without touching the EWMA
	waitBefore := g.wait.Sum()
	admitted := make(chan func(), 1)
	go func() {
		release, err := g.Acquire(context.Background())
		if err != nil {
			t.Errorf("Acquire: %v", err)
			release = func() {}
		}
		admitted <- release
	}()
	waitQueued(t, g, 1)
	const queued = 50 * time.Millisecond
	time.Sleep(queued)
	<-g.slots // free the worker: the waiter is admitted
	(<-admitted)()

	if ewma := time.Duration(g.ewmaUS.Load()) * time.Microsecond; ewma >= queued/2 {
		t.Fatalf("EWMA = %v after a request that queued %v and held its slot ~0: queueing leaked into the service time", ewma, queued)
	}
	if wait := g.wait.Sum() - waitBefore; wait < queued.Seconds() {
		t.Fatalf("wait histogram grew by %.3fs, want >= %v", wait, queued)
	}
}

// TestGateShedsUnmeetableDeadline pins the deadline-aware drop: with every
// worker busy and a seeded service-time estimate, a caller whose deadline is
// nearer than the predicted wait is shed at once under reason deadline, and
// a caller with no deadline queues for the next free slot.
func TestGateShedsUnmeetableDeadline(t *testing.T) {
	g := NewGate("test_deadline", 2, 4)
	g.slots <- struct{}{}
	g.slots <- struct{}{}
	g.ewmaUS.Store((10 * time.Second).Microseconds()) // first waiter's predicted wait: 5 s
	shedDL, shedQueue := g.shedDL.Value(), g.shedQueue.Value()

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	start := time.Now()
	if _, err := g.Acquire(ctx); !errors.Is(err, ErrLoadShed) {
		t.Fatalf("Acquire with an unmeetable deadline = %v, want ErrLoadShed", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("shed took %v; an unmeetable deadline must be shed at once", elapsed)
	}
	if g.shedDL.Value() != shedDL+1 || g.shedQueue.Value() != shedQueue {
		t.Fatalf("shed counters moved deadline %d→%d, queue_full %d→%d; want one deadline shed",
			shedDL, g.shedDL.Value(), shedQueue, g.shedQueue.Value())
	}

	admitted := make(chan error, 1)
	go func() {
		release, err := g.Acquire(context.Background())
		if err == nil {
			release()
		}
		admitted <- err
	}()
	waitQueued(t, g, 1)
	<-g.slots
	if err := <-admitted; err != nil {
		t.Fatalf("caller with no deadline was not admitted: %v", err)
	}
}

// stalledResponder blocks every query until its context expires, so a server
// admission test can saturate the worker pool deterministically.
type stalledResponder struct {
	entered chan struct{}
	once    sync.Once
}

func (r *stalledResponder) Query(ctx context.Context, taskID string, id poc.ProductID, quality core.Quality) (*core.Response, error) {
	r.once.Do(func() { close(r.entered) })
	<-ctx.Done()
	return nil, ctx.Err()
}

func (r *stalledResponder) DemandOwnership(ctx context.Context, taskID string, id poc.ProductID) (*core.Response, error) {
	return nil, errors.New("stalled")
}

// TestServerAdmissionSheds pins the gate end to end: a server whose single
// admission worker is busy answers the next request with a load-shed error
// immediately — long before the request timeout — and records a load_shed
// node_request event.
func TestServerAdmissionSheds(t *testing.T) {
	responder := &stalledResponder{entered: make(chan struct{})}
	sink := events.NewSink("test", events.NewRing(64), nil)
	srv, err := ServeParticipant(context.Background(), "127.0.0.1:0", responder,
		WithAdmission(1, -1), WithTimeout(2*time.Second), WithEventSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	occupier := NewResponderClient(srv.Addr(), WithRetries(0), WithTimeout(2*time.Second))
	defer occupier.Close()
	go func() {
		_, _ = occupier.Query(context.Background(), "task", "p", core.Good)
	}()
	select {
	case <-responder.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("occupier never reached the responder")
	}

	victim := NewResponderClient(srv.Addr(), WithRetries(0), WithTimeout(2*time.Second))
	defer victim.Close()
	start := time.Now()
	_, qerr := victim.Query(context.Background(), "task", "p", core.Good)
	elapsed := time.Since(start)
	if qerr == nil {
		t.Fatal("saturated server admitted the query")
	}
	if !strings.Contains(qerr.Error(), "load shed") {
		t.Fatalf("err = %v, want a load-shed rejection", qerr)
	}
	if elapsed > time.Second {
		t.Fatalf("shed took %v; must be immediate, not a timeout", elapsed)
	}
	shed := sink.Ring().Query(events.Filter{Kind: events.KindNodeRequest, Outcome: events.OutcomeLoadShed}, 10)
	if len(shed) == 0 {
		t.Fatal("no load_shed node_request event recorded")
	}
	if shed[0].MsgType != wire.TypeQuery {
		t.Fatalf("shed event msg_type = %q, want %q", shed[0].MsgType, wire.TypeQuery)
	}
}
