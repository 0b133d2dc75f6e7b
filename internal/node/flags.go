package node

import (
	"flag"
	"time"
)

// ClientConfig is the shared transport configuration of the cmd binaries:
// one set of pool flags, one translation to client Options. Retries,
// backoff, endpoint cooldown and the idle reap are fixed (pool.go).
type ClientConfig struct {
	// Timeout bounds each dial and each request/response attempt. A pooled
	// connection idle for half of it is reaped.
	Timeout time.Duration
	// PoolSize bounds open connections per endpoint.
	PoolSize int
}

// RegisterFlags registers the transport flags on fs (use flag.CommandLine in
// main). Zero-valued fields pick up the package defaults first, so a binary
// can pre-seed its own defaults before calling this.
func (c *ClientConfig) RegisterFlags(fs *flag.FlagSet) {
	if c.Timeout == 0 {
		c.Timeout = DefaultTimeout
	}
	if c.PoolSize == 0 {
		c.PoolSize = DefaultPoolSize
	}
	fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "per-attempt dial/IO timeout; pooled connections idle for half of it are reaped")
	fs.IntVar(&c.PoolSize, "pool-size", c.PoolSize, "max open connections per endpoint")
}

// Options translates the configuration into client Options.
func (c *ClientConfig) Options() []Option {
	return []Option{WithTimeout(c.Timeout), WithPoolSize(c.PoolSize)}
}
