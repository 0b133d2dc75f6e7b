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

// TestBatchEquivalentToSerial pins the batch API's core contract: a batch of
// N ids returns byte-identical per-id results and an identical reputation
// table to N serial QueryPath calls.
func TestBatchEquivalentToSerial(t *testing.T) {
	fx := newFixture(t, 8)
	ids := sortedProducts(fx)
	for _, quality := range []Quality{Good, Bad} {
		serial := fx.freshProxy(t)
		batched := fx.freshProxy(t)

		want := make([]string, len(ids))
		for i, id := range ids {
			r, err := serial.QueryPath(context.Background(), id, quality)
			if err != nil {
				t.Fatalf("serial QueryPath(%s): %v", id, err)
			}
			want[i] = canonical(t, r)
		}
		batch, err := batched.QueryPathBatch(context.Background(), ids, quality)
		if err != nil {
			t.Fatalf("QueryPathBatch: %v", err)
		}
		if len(batch.Items) != len(ids) {
			t.Fatalf("batch returned %d items, want %d", len(batch.Items), len(ids))
		}
		// batch.TraceID is empty unless the batch span was sampled — the
		// same contract as Result.TraceID on single queries.
		for i, item := range batch.Items {
			if item.Err != nil {
				t.Fatalf("batch item %s errored: %v", item.Product, item.Err)
			}
			if got := canonical(t, item.Result); got != want[i] {
				t.Errorf("quality=%v product=%s:\n batch  %s\n serial %s",
					quality, ids[i], got, want[i])
			}
		}
		wantScores := serial.Scores()
		gotScores := batched.Scores()
		if len(wantScores) != len(gotScores) {
			t.Fatalf("score table sizes differ: %d vs %d", len(gotScores), len(wantScores))
		}
		for v, s := range wantScores {
			if gotScores[v] != s {
				t.Errorf("quality=%v score[%s] = %v, want %v", quality, v, gotScores[v], s)
			}
		}
	}
}

// TestBatchDuplicatesSettleOnce pins the dedup contract: a batch naming an
// id k times walks and settles it once — duplicate indexes share the very
// same Result — so reputation matches one query per distinct id.
func TestBatchDuplicatesSettleOnce(t *testing.T) {
	fx := newFixture(t, 4)
	distinct := sortedProducts(fx)
	var ids []poc.ProductID
	for _, id := range distinct {
		ids = append(ids, id, id, id)
	}
	reference := fx.freshProxy(t)
	for _, id := range distinct {
		if _, err := reference.QueryPath(context.Background(), id, Good); err != nil {
			t.Fatalf("reference QueryPath(%s): %v", id, err)
		}
	}
	px := fx.freshProxy(t)
	batch, err := px.QueryPathBatch(context.Background(), ids, Good)
	if err != nil {
		t.Fatalf("QueryPathBatch: %v", err)
	}
	for i := 0; i < len(batch.Items); i += 3 {
		if batch.Items[i].Result == nil {
			t.Fatalf("item %d has no result", i)
		}
		if batch.Items[i].Result != batch.Items[i+1].Result || batch.Items[i].Result != batch.Items[i+2].Result {
			t.Fatalf("duplicates of %s do not share one result", batch.Items[i].Product)
		}
	}
	want, got := reference.Scores(), px.Scores()
	for v, s := range want {
		if got[v] != s {
			t.Errorf("score[%s] = %v, want %v (duplicates must settle once)", v, got[v], s)
		}
	}
	stats := px.ShardStats()
	if len(stats) != 1 {
		t.Fatalf("ShardStats returned %d snapshots, want 1", len(stats))
	}
	if stats[0].Queries != uint64(len(distinct)) {
		t.Errorf("proxy ran %d walks, want %d (one per distinct id)", stats[0].Queries, len(distinct))
	}
	if stats[0].Coalesced != 0 {
		t.Errorf("pre-dispatch dedup should leave nothing to coalesce, got %d", stats[0].Coalesced)
	}
	chains := px.AuditShards()
	if len(chains) != 1 || chains[0].Count != stats[0].AuditEntries {
		t.Fatalf("AuditShards = %d chains, want 1 pinning %d entries", len(chains), stats[0].AuditEntries)
	}
	if _, err := reputation.VerifyShardChains(chains); err != nil {
		t.Fatalf("VerifyShardChains: %v", err)
	}
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

// blockedResponder parks every query until released, simulating a saturated
// backend so admission tests can fill the gate deterministically. entered is
// closed when the first query arrives — i.e. once its caller holds a gate
// slot.
type blockedResponder struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blockedResponder) Query(ctx context.Context, taskID string, id poc.ProductID, quality Quality) (*Response, error) {
	b.once.Do(func() { close(b.entered) })
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	return nil, fmt.Errorf("blocked responder")
}

func (b *blockedResponder) DemandOwnership(ctx context.Context, taskID string, id poc.ProductID) (*Response, error) {
	return nil, fmt.Errorf("blocked responder")
}

// TestAdmissionShedsInsteadOfTimingOut pins the protection tentpole: with
// one admission worker and no waiting room, a saturated proxy sheds the
// overflow query immediately with ErrLoadShed — it does not park it until a
// timeout — and the shed shows up as a load_shed wide event.
func TestAdmissionShedsInsteadOfTimingOut(t *testing.T) {
	fx := newFixture(t, 2)
	ids := sortedProducts(fx)
	blocked := &blockedResponder{entered: make(chan struct{}), release: make(chan struct{})}
	sink := events.NewSink("test", events.NewRing(64), nil)
	px := fx.proxyWith(t, func(poc.ParticipantID) (Responder, error) { return blocked, nil },
		ProxyConfig{AdmissionWorkers: 1, AdmissionQueue: -1, EventSink: sink})

	// Occupy the single worker: this query blocks inside the walk, holding
	// its gate slot. entered closing proves it is past the gate.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = px.QueryPath(context.Background(), ids[0], Good)
	}()
	select {
	case <-blocked.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("occupier never reached the blocked responder")
	}

	shedStart := time.Now()
	item := px.queryItem(context.Background(), ids[1], Good)
	elapsed := time.Since(shedStart)
	if !item.Shed {
		t.Fatalf("saturated proxy admitted the query (err=%v)", item.Err)
	}
	if !errors.Is(item.Err, ErrLoadShed) {
		t.Fatalf("err = %v, want ErrLoadShed", item.Err)
	}
	if elapsed > time.Second {
		t.Fatalf("shed took %v; shedding must be immediate, not a timeout", elapsed)
	}
	shedEvents := sink.Ring().Query(events.Filter{Kind: events.KindQuery, Outcome: events.OutcomeLoadShed}, 10)
	if len(shedEvents) == 0 {
		t.Fatal("no load_shed wide event recorded")
	}
	if shedEvents[0].Product != string(ids[1]) {
		t.Fatalf("shed event names %q, want %q", shedEvents[0].Product, ids[1])
	}
	close(blocked.release)
	<-done
}

// TestBatchRejectsInvalidInput pins the batch argument contract.
func TestBatchRejectsInvalidInput(t *testing.T) {
	fx := newFixture(t, 2)
	px := fx.freshProxy(t)
	if _, err := px.QueryPathBatch(context.Background(), nil, Good); err == nil {
		t.Fatal("empty batch must error")
	}
	if _, err := px.QueryPathBatch(context.Background(), []poc.ProductID{"x"}, Quality(9)); err == nil {
		t.Fatal("invalid quality must error")
	}
}
