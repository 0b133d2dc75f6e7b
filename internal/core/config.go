package core

import (
	"flag"

	"desword/internal/events"
)

// ProxyConfig configures a proxy at construction — the proxy counterpart of
// node.ClientConfig and zkedb.CommitOptions. Tests and binaries fill it
// directly. Admission control is not a proxy option: the proxy server's
// gate (node.WithAdmission) sheds overload before a request reaches the
// proxy.
type ProxyConfig struct {
	// EventSink, when set, receives one canonical wide event per completed
	// query.
	EventSink *events.Sink
}

// RegisterFlags registers no flag: the event sink is wired by the binary.
// The method remains for callers that register every config of a daemon on
// one FlagSet.
func (*ProxyConfig) RegisterFlags(*flag.FlagSet) {}
