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

// shardedProxy builds a second proxy over the fixture's deployment with the
// given shard count; members answer from committed DPOCs, so any number of
// proxies can query the same deployment.
func (fx *fixture) shardedProxy(t *testing.T, shards int) *Proxy {
	t.Helper()
	resolver := func(v poc.ParticipantID) (Responder, error) {
		m, ok := fx.members[v]
		if !ok {
			return nil, fmt.Errorf("no member %s", v)
		}
		return m, nil
	}
	px := NewProxyWithConfig(fx.ps, reputation.DefaultStrategy(), resolver,
		ProxyConfig{Shards: shards})
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
// table to N serial QueryPath calls, at any shard count.
func TestBatchEquivalentToSerial(t *testing.T) {
	fx := newFixture(t, 8)
	ids := sortedProducts(fx)
	for _, quality := range []Quality{Good, Bad} {
		for _, shards := range []int{1, 2, 3, 5} {
			serial := fx.shardedProxy(t, 1)
			batched := fx.shardedProxy(t, shards)

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
				t.Fatalf("QueryPathBatch(shards=%d): %v", shards, err)
			}
			if len(batch.Items) != len(ids) {
				t.Fatalf("batch returned %d items, want %d", len(batch.Items), len(ids))
			}
			// batch.TraceID is empty unless the batch span was sampled —
			// the same contract as Result.TraceID on single queries.
			for i, item := range batch.Items {
				if item.Err != nil {
					t.Fatalf("batch item %s errored: %v", item.Product, item.Err)
				}
				if got := canonical(t, item.Result); got != want[i] {
					t.Errorf("shards=%d quality=%v product=%s:\n batch  %s\n serial %s",
						shards, quality, ids[i], got, want[i])
				}
			}
			wantScores := serial.Scores()
			gotScores := batched.Scores()
			if len(wantScores) != len(gotScores) {
				t.Fatalf("score table sizes differ: %d vs %d", len(gotScores), len(wantScores))
			}
			for v, s := range wantScores {
				if gotScores[v] != s {
					t.Errorf("shards=%d quality=%v score[%s] = %v, want %v",
						shards, quality, v, gotScores[v], s)
				}
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
	reference := fx.shardedProxy(t, 1)
	for _, id := range distinct {
		if _, err := reference.QueryPath(context.Background(), id, Good); err != nil {
			t.Fatalf("reference QueryPath(%s): %v", id, err)
		}
	}
	px := fx.shardedProxy(t, 3)
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
	var walks, coalesced uint64
	for _, s := range stats {
		walks += s.Queries
		coalesced += s.Coalesced
	}
	if walks != uint64(len(distinct)) {
		t.Errorf("shards led %d walks, want %d (one per distinct id)", walks, len(distinct))
	}
	if coalesced != 0 {
		t.Errorf("pre-dispatch dedup should leave nothing to coalesce, got %d", coalesced)
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
	px := NewProxyWithConfig(fx.ps, reputation.DefaultStrategy(), blockingResolve, ProxyConfig{})
	if err := px.RegisterList(fx.dist.TaskID, fx.dist.List); err != nil {
		t.Fatalf("RegisterList: %v", err)
	}

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
	for {
		stats := px.ShardStats()
		if stats[0].Coalesced == followers {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("followers never joined the flight: %+v", stats)
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
	px := NewProxyWithConfig(fx.ps, reputation.DefaultStrategy(),
		func(poc.ParticipantID) (Responder, error) { return blocked, nil },
		ProxyConfig{AdmissionWorkers: 1, AdmissionQueue: -1, EventSink: sink})
	if err := px.RegisterList(fx.dist.TaskID, fx.dist.List); err != nil {
		t.Fatalf("RegisterList: %v", err)
	}

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

// TestShardRouterDeterministic pins the routing function: the owner of an id
// depends only on (id, N), never on instance or history.
func TestShardRouterDeterministic(t *testing.T) {
	a, b := newShardRouter(4), newShardRouter(4)
	for i := 0; i < 100; i++ {
		id := poc.ProductID(fmt.Sprintf("product-%d", i))
		if a.shardFor(id).id != b.shardFor(id).id {
			t.Fatalf("shardFor(%s) differs across router instances", id)
		}
	}
	spread := make(map[int]int)
	for i := 0; i < 1000; i++ {
		spread[a.shardFor(poc.ProductID(fmt.Sprintf("id-%d", i))).id]++
	}
	for shard := 0; shard < 4; shard++ {
		if spread[shard] == 0 {
			t.Fatalf("shard %d never selected over 1000 ids: %v", shard, spread)
		}
	}
}

// TestBatchRejectsInvalidInput pins the batch argument contract.
func TestBatchRejectsInvalidInput(t *testing.T) {
	fx := newFixture(t, 2)
	px := fx.shardedProxy(t, 2)
	if _, err := px.QueryPathBatch(context.Background(), nil, Good); err == nil {
		t.Fatal("empty batch must error")
	}
	if _, err := px.QueryPathBatch(context.Background(), []poc.ProductID{"x"}, Quality(9)); err == nil {
		t.Fatal("invalid quality must error")
	}
}
