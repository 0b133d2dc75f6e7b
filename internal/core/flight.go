package core

import (
	"context"
	"errors"

	"desword/internal/obs"
	"desword/internal/poc"
)

// This file is the proxy's path-level single-flight table: concurrent
// queries for the same (product, quality) coalesce onto one walk, the proof
// cache's single-flight idiom (internal/poc) lifted to whole path queries.
// Under open-loop load with repeated products it keeps the proxy from
// walking, verifying and settling the same path once per caller
// (EXPERIMENTS.md E14).

// flightKey identifies one coalescable walk: the product and the query
// flavour (a good and a bad query for the same id are different walks with
// different reputation consequences and must not coalesce).
type flightKey struct {
	product poc.ProductID
	quality Quality
}

// pathFlight is one in-flight walk. result/err are written once by the
// leader before ready is closed; followers read them only after <-ready.
type pathFlight struct {
	ready  chan struct{}
	result *Result
	err    error
}

// queryCoalesced runs one path query with single-flight coalescing: the
// first caller for a (product, quality) becomes the leader and performs the
// walk via run; concurrent callers for the same key park on the flight and
// share the leader's result — one walk, one settlement, one wide event, no
// matter how many callers asked. The entry is removed the moment the leader
// finishes, so coalescing never spans non-overlapping queries: N serial
// queries still award N times. A leader whose context was cancelled returns
// context.Canceled without settling (see runQuery), and its followers retry
// as leader (the proof cache's rule), so one impatient caller cannot poison
// the rest.
func (px *Proxy) queryCoalesced(ctx context.Context, key flightKey, run func() (*Result, error)) (*Result, error) {
	for {
		px.fmu.Lock()
		if fl, ok := px.flights[key]; ok {
			px.fmu.Unlock()
			px.nCoalesced.Add(1)
			mCoalesced.Inc()
			select {
			case <-fl.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fl.err != nil && errors.Is(fl.err, context.Canceled) && ctx.Err() == nil {
				continue // leader was cancelled, we were not: take over
			}
			return fl.result, fl.err
		}
		fl := &pathFlight{ready: make(chan struct{})}
		px.flights[key] = fl
		px.fmu.Unlock()
		return px.lead(key, fl, run)
	}
}

// lead runs the walk as the flight's leader and publishes the outcome: the
// entry is removed before ready is closed, so a caller arriving after the
// close starts a fresh flight rather than reading a settled one.
func (px *Proxy) lead(key flightKey, fl *pathFlight, run func() (*Result, error)) (*Result, error) {
	fl.result, fl.err = run()
	px.fmu.Lock()
	delete(px.flights, key)
	px.fmu.Unlock()
	close(fl.ready)
	return fl.result, fl.err
}

// mCoalesced counts, process-wide, the queries served by joining a
// concurrent walk.
var mCoalesced = obs.Default.Counter("desword_coalesced_queries_total",
	"Path queries coalesced onto a concurrent walk for the same product.")

// ShardStats is the proxy's walk and settlement snapshot.
type ShardStats struct {
	// Queries counts walks run.
	Queries uint64 `json:"queries"`
	// Coalesced counts queries served by joining a concurrent walk.
	Coalesced uint64 `json:"coalesced"`
	// AuditEntries counts chained ledger events settled.
	AuditEntries uint64 `json:"audit_entries"`
}

// ShardStats returns the proxy's snapshot as a one-element slice, the shape
// the benchmark module reads.
func (px *Proxy) ShardStats() []ShardStats {
	_, count := px.ledger.Head()
	return []ShardStats{{
		Queries:      px.walks.Load(),
		Coalesced:    px.nCoalesced.Load(),
		AuditEntries: count,
	}}
}
