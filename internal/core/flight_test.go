package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/reputation"
)

// canonicalResult is the deterministic slice of a Result: everything the
// protocol pins, nothing timing-dependent (Event and TraceID vary run to
// run). encoding/json sorts map keys, so the encoding is byte-stable.
type canonicalResult struct {
	Product    poc.ProductID                   `json:"product"`
	Quality    Quality                         `json:"quality"`
	TaskID     string                          `json:"task_id"`
	Path       []poc.ParticipantID             `json:"path"`
	Traces     map[poc.ParticipantID]poc.Trace `json:"traces"`
	Violations []Violation                     `json:"violations"`
	Complete   bool                            `json:"complete"`
}

func canonical(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(canonicalResult{
		Product: r.Product, Quality: r.Quality, TaskID: r.TaskID,
		Path: r.Path, Traces: r.Traces, Violations: r.Violations,
		Complete: r.Complete,
	})
	if err != nil {
		t.Fatalf("canonicalizing result: %v", err)
	}
	return string(b)
}

// freshProxy builds another proxy over the fixture's deployment; members
// answer from committed DPOCs, so any number of proxies can query the same
// deployment.
func (fx *fixture) freshProxy(t *testing.T) *Proxy {
	t.Helper()
	return fx.proxyWith(t, func(v poc.ParticipantID) (Responder, error) {
		m, ok := fx.members[v]
		if !ok {
			return nil, fmt.Errorf("no member %s", v)
		}
		return m, nil
	}, ProxyConfig{})
}

// proxyWith builds a proxy with the fixture's list registered, answering
// through resolve.
func (fx *fixture) proxyWith(t *testing.T, resolve Resolver, cfg ProxyConfig) *Proxy {
	t.Helper()
	px := NewProxyWithConfig(fx.ps, reputation.DefaultStrategy(), resolve, cfg)
	if err := px.RegisterList(fx.dist.TaskID, fx.dist.List); err != nil {
		t.Fatalf("RegisterList: %v", err)
	}
	return px
}

func sortedProducts(fx *fixture) []poc.ProductID {
	ids := make([]poc.ProductID, 0, len(fx.dist.Ground.Paths))
	for id := range fx.dist.Ground.Paths {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestCoalescedConcurrentQueriesSettleOnce pins the single-flight contract:
// overlapping queries for one (product, quality) share one walk and one
// settlement, while serial repeats still settle every time.
func TestCoalescedConcurrentQueriesSettleOnce(t *testing.T) {
	fx := newFixture(t, 2)
	id := sortedProducts(fx)[0]

	gate := make(chan struct{})
	var once sync.Once
	blockingResolve := func(v poc.ParticipantID) (Responder, error) {
		// The leader's first resolve parks until every follower had time to
		// join the flight, guaranteeing overlap without sleeps.
		once.Do(func() { <-gate })
		m, ok := fx.members[v]
		if !ok {
			return nil, fmt.Errorf("no member %s", v)
		}
		return m, nil
	}
	px := fx.proxyWith(t, blockingResolve, ProxyConfig{})

	const followers = 4
	results := make([]*Result, followers+1)
	errs := make([]error, followers+1)
	var wg sync.WaitGroup
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = px.QueryPath(context.Background(), id, Good)
		}(i)
	}
	// Wait until all five are either leading (blocked in resolve) or parked
	// on the flight, then release the leader.
	deadline := time.After(5 * time.Second)
	for px.nCoalesced.Load() != followers {
		select {
		case <-deadline:
			t.Fatalf("followers never joined the flight: %d joined", px.nCoalesced.Load())
		case <-time.After(time.Millisecond):
		}
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatal("coalesced queries must share the leader's result")
		}
	}
	// One walk, one settlement: the ledger has exactly one path's worth of
	// events, identical to a single query.
	if _, count := px.Ledger().Head(); count != uint64(len(results[0].Path)) {
		t.Fatalf("ledger has %d events, want %d (one settlement)", count, len(results[0].Path))
	}
	// Non-overlapping repeats settle again: coalescing never spans time.
	if _, err := px.QueryPath(context.Background(), id, Good); err != nil {
		t.Fatal(err)
	}
	if _, count := px.Ledger().Head(); count != 2*uint64(len(results[0].Path)) {
		t.Fatalf("serial repeat did not settle: %d events", count)
	}
}

// stallFirst answers through its member, except that the first query across
// every participant sharing once parks until its caller's context ends.
type stallFirst struct {
	*Member
	once    *sync.Once
	entered chan struct{}
}

func (s stallFirst) Query(ctx context.Context, taskID string, id poc.ProductID, quality Quality) (*Response, error) {
	first := false
	s.once.Do(func() {
		first = true
		close(s.entered)
	})
	if first {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return s.Member.Query(ctx, taskID, id, quality)
}

// TestCancelledLeaderDoesNotSettle pins the coalescing takeover: a walk
// whose caller went away returns context.Canceled and settles nothing — its
// failed hop says nothing about the participant — and a follower with a live
// context retries as leader and gets the full answer.
func TestCancelledLeaderDoesNotSettle(t *testing.T) {
	fx := newFixture(t, 2)
	id := sortedProducts(fx)[0]
	entered := make(chan struct{})
	var once sync.Once
	sink := events.NewSink("test", events.NewRing(64), nil)
	px := fx.proxyWith(t, func(v poc.ParticipantID) (Responder, error) {
		m, ok := fx.members[v]
		if !ok {
			return nil, fmt.Errorf("no member %s", v)
		}
		return stallFirst{Member: m, once: &once, entered: entered}, nil
	}, ProxyConfig{EventSink: sink})

	type answer struct {
		result *Result
		err    error
	}
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leader, follower := make(chan answer, 1), make(chan answer, 1)
	go func() {
		r, err := px.QueryPath(leaderCtx, id, Good)
		leader <- answer{r, err}
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached its first participant")
	}
	go func() {
		r, err := px.QueryPath(context.Background(), id, Good)
		follower <- answer{r, err}
	}()
	deadline := time.After(5 * time.Second)
	for px.nCoalesced.Load() != 1 {
		select {
		case <-deadline:
			t.Fatal("follower never joined the leader's flight")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()

	if got := <-leader; !errors.Is(got.err, context.Canceled) {
		t.Fatalf("cancelled leader returned (%+v, %v), want context.Canceled", got.result, got.err)
	}
	got := <-follower
	if got.err != nil {
		t.Fatalf("follower: %v", got.err)
	}
	fresh, err := fx.freshProxy(t).QueryPath(context.Background(), id, Good)
	if err != nil {
		t.Fatal(err)
	}
	if !got.result.Complete || canonical(t, got.result) != canonical(t, fresh) {
		t.Fatalf("follower took over with\n %s\nwant\n %s", canonical(t, got.result), canonical(t, fresh))
	}
	entries := px.Ledger().AuditLog()
	if len(entries) != len(fresh.Path) {
		t.Fatalf("ledger holds %d events, want one path's %d awards", len(entries), len(fresh.Path))
	}
	for _, e := range entries {
		if e.Event.Delta <= 0 {
			t.Fatalf("cancelled walk settled a penalty: %+v", e.Event)
		}
	}
	// The journal still accounts for both walks.
	for outcome, want := range map[events.Outcome]int{events.OutcomeError: 1, events.OutcomeComplete: 1} {
		if n := len(sink.Ring().Query(events.Filter{Kind: events.KindQuery, Outcome: outcome}, 10)); n != want {
			t.Fatalf("%d query events with outcome %s, want %d", n, outcome, want)
		}
	}
}
