package core

import "desword/internal/obs"

// Query-phase metric handles, fetched once at package init so the query path
// pays only atomic updates. They complement the per-proxy Stats snapshot:
// Stats is the per-instance JSON view, these are the process-wide Prometheus
// series the admin listener exposes.
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

// buildViolationCounters pre-creates one counter per violation type.
func buildViolationCounters() map[ViolationType]*obs.Counter {
	types := []ViolationType{
		ViolationClaimProcessing, ViolationClaimNonProcessing,
		ViolationNoValidProof, ViolationWrongNextHop, ViolationUnreachable,
	}
	m := make(map[ViolationType]*obs.Counter, len(types))
	for _, t := range types {
		m[t] = obs.Default.Counter("desword_violations_total",
			"Dishonest behaviours detected during queries, by type.",
			"type", t.String())
	}
	return m
}

// queryLatency selects the latency histogram for a query flavour.
func queryLatency(q Quality) *obs.Histogram {
	if q == Bad {
		return mQueryLatencyBad
	}
	return mQueryLatencyGood
}

// countQuery records one query start.
func countQuery(q Quality) {
	if q == Bad {
		mQueriesBad.Inc()
	} else {
		mQueriesGood.Inc()
	}
}

// countOutcome records a settled query's outcome: hops walked, completeness
// and detected violations.
func countOutcome(result *Result) {
	mHops.Add(uint64(len(result.Path)))
	if !result.Complete {
		mIncomplete.Inc()
	}
	for _, v := range result.Violations {
		if c, ok := mViolations[v.Type]; ok {
			c.Inc()
		}
	}
}
