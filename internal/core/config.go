package core

import (
	"flag"

	"desword/internal/events"
)

// DefaultBatchFanout bounds how many of a batch's distinct products are in
// flight at once when ProxyConfig.BatchFanout is left at zero.
const DefaultBatchFanout = 8

// ProxyConfig collapses the proxy's construction knobs into one options
// struct — the proxy counterpart of node.ClientConfig and zkedb.CommitOptions.
// The zero value reproduces the historical single-shard proxy with no
// admission gate. cmd binaries register it as flags; tests fill it directly.
type ProxyConfig struct {
	// Shards partitions the proxy's query-path state — POC directory,
	// path-level single-flight table, and reputation ledger — across this
	// many independent workers, routed by product-id hash. 0 or 1 keeps the
	// single-shard proxy.
	Shards int
	// ProbeFanout bounds concurrent child probes during a path walk
	// (1 = serial). 0 selects DefaultProbeFanout.
	ProbeFanout int
	// BatchFanout bounds how many distinct products of one batch query run
	// concurrently. 0 selects DefaultBatchFanout.
	BatchFanout int
	// AdmissionWorkers bounds concurrently admitted path queries at the
	// proxy front door. 0 disables the gate entirely (every query admitted,
	// the historical behaviour) unless AdmissionQueue is set, in which case
	// it selects DefaultAdmissionWorkers.
	AdmissionWorkers int
	// AdmissionQueue bounds queries waiting for an admission slot beyond
	// the running workers: negative means no waiting room (shed as soon as
	// every worker is busy), 0 keeps the default of 2×workers.
	AdmissionQueue int
	// EventSink, when set, receives one canonical wide event per completed
	// (or shed) query.
	EventSink *events.Sink
}

// withDefaults resolves the zero values into the effective configuration.
func (c ProxyConfig) withDefaults() ProxyConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.ProbeFanout <= 0 {
		c.ProbeFanout = DefaultProbeFanout
	}
	if c.BatchFanout <= 0 {
		c.BatchFanout = DefaultBatchFanout
	}
	return c
}

// gated reports whether the configuration asks for a front-door admission
// gate at all.
func (c ProxyConfig) gated() bool {
	return c.AdmissionWorkers > 0 || c.AdmissionQueue != 0
}

// RegisterFlags registers the proxy-tier flags on fs (use flag.CommandLine
// in main). Zero values keep the package defaults. The event sink is wired
// by the binary, not a flag.
func (c *ProxyConfig) RegisterFlags(fs *flag.FlagSet) {
	if c.ProbeFanout == 0 {
		c.ProbeFanout = DefaultProbeFanout
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	fs.IntVar(&c.Shards, "shards", c.Shards,
		"proxy shard workers partitioning directory, single-flight table and ledger by product-id hash")
	fs.IntVar(&c.ProbeFanout, "probe-fanout", c.ProbeFanout,
		"concurrent child probes during a path walk (1 = serial)")
	fs.IntVar(&c.BatchFanout, "batch-fanout", c.BatchFanout,
		"concurrent products per batch query (0 = default)")
	fs.IntVar(&c.AdmissionWorkers, "admission-workers", c.AdmissionWorkers,
		"concurrently admitted path queries at the proxy front door (0 = gate disabled)")
	fs.IntVar(&c.AdmissionQueue, "admission-queue", c.AdmissionQueue,
		"queries waiting for an admission slot (negative = none, 0 = 2x workers)")
}
