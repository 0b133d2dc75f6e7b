package node

import (
	"desword/internal/obs"
	"desword/internal/wire"
)

// serverMetrics are one server role's handles into the default registry:
// per-request latency by message type, in-flight connections, and error
// counters by stage. Handles are fetched once per server, so the serve loop
// pays only atomic updates.
type serverMetrics struct {
	inflight     *obs.Gauge
	conns        *obs.Counter
	errRead      *obs.Counter
	errWrite     *obs.Counter
	errHandle    *obs.Counter
	latency      map[string]*obs.Histogram
	latencyOther *obs.Histogram
}

// requestTypes are the message types a server can be asked to handle.
var requestTypes = []string{
	wire.TypeQuery, wire.TypeDemandOwnership, wire.TypeGetParams,
	wire.TypeRegisterList, wire.TypeQueryPath, wire.TypeScores,
	wire.TypeAuditLog,
}

// newServerMetrics builds the handles for one server role ("proxy" or
// "participant").
func newServerMetrics(role string) *serverMetrics {
	m := &serverMetrics{
		inflight: obs.Default.Gauge("desword_connections_inflight",
			"Open server connections.", "server", role),
		conns: obs.Default.Counter("desword_connections_total",
			"Accepted server connections.", "server", role),
		errRead: obs.Default.Counter("desword_server_errors_total",
			"Server errors by stage.", "server", role, "stage", "read"),
		errWrite: obs.Default.Counter("desword_server_errors_total",
			"Server errors by stage.", "server", role, "stage", "write"),
		errHandle: obs.Default.Counter("desword_server_errors_total",
			"Server errors by stage.", "server", role, "stage", "handle"),
		latency: make(map[string]*obs.Histogram, len(requestTypes)),
	}
	for _, t := range requestTypes {
		m.latency[t] = obs.Default.Histogram("desword_request_latency_seconds",
			"Per-request server latency by message type.", nil,
			"server", role, "type", t)
	}
	m.latencyOther = obs.Default.Histogram("desword_request_latency_seconds",
		"Per-request server latency by message type.", nil,
		"server", role, "type", "other")
	return m
}

// requestLatency selects the latency histogram for a request type.
func (m *serverMetrics) requestLatency(msgType string) *obs.Histogram {
	if h, ok := m.latency[msgType]; ok {
		return h
	}
	return m.latencyOther
}

// poolMetrics aggregates the pooled transport across every Pool in the
// process. They are deliberately unlabelled: a proxy walking a long path
// holds one pool per participant, and per-endpoint label cardinality would
// grow with the supply chain. Per-pool numbers are available to tests and
// benches through Pool.Stats. Reuses and retries are per-request counts as
// well, so they go through events.Count.
type poolMetrics struct {
	open      *obs.Gauge
	idle      *obs.Gauge
	dials     *obs.Counter
	reaped    *obs.Counter
	fastFails *obs.Counter
	waits     *obs.Counter
}

var poolConns = &poolMetrics{
	open: obs.Default.Gauge("desword_pool_conns_open",
		"Open pooled client connections (in use + idle)."),
	idle: obs.Default.Gauge("desword_pool_conns_idle",
		"Idle pooled client connections awaiting reuse."),
	dials: obs.Default.Counter("desword_pool_dials_total",
		"Client connections dialed."),
	reaped: obs.Default.Counter("desword_pool_reaped_total",
		"Idle pooled connections reaped past the idle timeout."),
	fastFails: obs.Default.Counter("desword_pool_fastfails_total",
		"Client exchanges rejected while an endpoint cools down."),
	waits: obs.Default.Counter("desword_pool_waits_total",
		"Client exchanges that queued for a free pooled connection."),
}
