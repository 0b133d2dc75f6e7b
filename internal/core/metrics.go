package core

import (
	"desword/internal/events"
	"desword/internal/obs"
)

// Query-phase metric handles, fetched once at package init so the query path
// pays only atomic updates. observeQuery feeds them from each query's wide
// event, the query's one record.
var (
	mQueryLatencyGood = obs.Default.Histogram("desword_query_latency_seconds",
		"Full product path query latency at the proxy by query flavour.", nil,
		"quality", "good")
	mQueryLatencyBad = obs.Default.Histogram("desword_query_latency_seconds",
		"Full product path query latency at the proxy by query flavour.", nil,
		"quality", "bad")
	mQueriesGood = obs.Default.Counter("desword_queries_total",
		"Product path queries by flavour.", "quality", "good")
	mQueriesBad = obs.Default.Counter("desword_queries_total",
		"Product path queries by flavour.", "quality", "bad")
	mHops = obs.Default.Counter("desword_query_hops_total",
		"Path hops identified across all queries.")
	mIncomplete = obs.Default.Counter("desword_query_incomplete_total",
		"Queries whose walk did not reach a leaf of the POC list.")
	mTasksRegistered = obs.Default.Counter("desword_tasks_registered_total",
		"Accepted POC-list registrations.")
	mViolations = buildViolationCounters()
)

// buildViolationCounters pre-creates one counter per violation type, keyed
// by the type's name as wide events carry it.
func buildViolationCounters() map[string]*obs.Counter {
	types := []ViolationType{
		ViolationClaimProcessing, ViolationClaimNonProcessing,
		ViolationNoValidProof, ViolationWrongNextHop, ViolationUnreachable,
	}
	m := make(map[string]*obs.Counter, len(types))
	for _, t := range types {
		m[t.String()] = obs.Default.Counter("desword_violations_total",
			"Dishonest behaviours detected during queries, by type.",
			"type", t.String())
	}
	return m
}

// observeQuery feeds the query-phase series from a finished query's wide
// event: one query and its latency by flavour, then the identified hops,
// incompleteness and violations of a settled walk. A walk its caller
// cancelled (outcome error) settled nothing, so it adds only the query and
// its latency.
func observeQuery(ev *events.Event) {
	queries, latency := mQueriesGood, mQueryLatencyGood
	if ev.Quality == Bad.String() {
		queries, latency = mQueriesBad, mQueryLatencyBad
	}
	queries.Inc()
	latency.Observe(float64(ev.DurationUS) / 1e6)
	if ev.Outcome == events.OutcomeError {
		return
	}
	mHops.Add(uint64(ev.PathLen))
	if !ev.Complete {
		mIncomplete.Inc()
	}
	for _, v := range ev.Violations {
		if c, ok := mViolations[v.Type]; ok {
			c.Inc()
		}
	}
}
