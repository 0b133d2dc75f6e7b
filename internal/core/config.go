package core

import (
	"flag"

	"desword/internal/events"
)

// ProxyConfig collapses the proxy's construction knobs into one options
// struct — the proxy counterpart of node.ClientConfig and zkedb.CommitOptions.
// cmd binaries register it as flags; tests fill it directly. Admission
// control is not a proxy knob: the proxy server's gate (node.WithAdmission)
// sheds overload before a request reaches the proxy.
type ProxyConfig struct {
	// ProbeFanout bounds concurrent child probes during a path walk
	// (1 = serial). 0 selects DefaultProbeFanout.
	ProbeFanout int
	// EventSink, when set, receives one canonical wide event per completed
	// query.
	EventSink *events.Sink
}

// withDefaults resolves the zero values into the effective configuration.
func (c ProxyConfig) withDefaults() ProxyConfig {
	if c.ProbeFanout <= 0 {
		c.ProbeFanout = DefaultProbeFanout
	}
	return c
}

// RegisterFlags registers the proxy-tier flags on fs (use flag.CommandLine
// in main). Zero values keep the package defaults. The event sink is wired
// by the binary, not a flag.
func (c *ProxyConfig) RegisterFlags(fs *flag.FlagSet) {
	if c.ProbeFanout == 0 {
		c.ProbeFanout = DefaultProbeFanout
	}
	fs.IntVar(&c.ProbeFanout, "probe-fanout", c.ProbeFanout,
		"concurrent child probes during a path walk (1 = serial)")
}
