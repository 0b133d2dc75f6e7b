package node

import (
	"flag"
	"time"
)

// ClientConfig is the shared transport configuration of the cmd binaries:
// one set of pool/retry flags, one translation to client Options.
type ClientConfig struct {
	// Timeout bounds each dial and each request/response attempt.
	Timeout time.Duration
	// PoolSize bounds open connections per endpoint.
	PoolSize int
	// IdleTimeout reaps idle pooled connections.
	IdleTimeout time.Duration
	// Retries is the number of retry attempts after the first try.
	Retries int
	// RetryBackoff is the sleep before the first retry; doubles per attempt.
	RetryBackoff time.Duration
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
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.Retries == 0 {
		c.Retries = DefaultRetries
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "per-attempt dial/IO timeout")
	fs.IntVar(&c.PoolSize, "pool-size", c.PoolSize, "max open connections per endpoint")
	fs.DurationVar(&c.IdleTimeout, "pool-idle-timeout", c.IdleTimeout, "idle time before a pooled connection is reaped")
	fs.IntVar(&c.Retries, "retries", c.Retries, "retry attempts after a failed exchange")
	fs.DurationVar(&c.RetryBackoff, "retry-backoff", c.RetryBackoff, "sleep before the first retry (doubles per attempt)")
}

// Options translates the configuration into client Options.
func (c *ClientConfig) Options() []Option {
	return []Option{
		WithTimeout(c.Timeout),
		WithPoolSize(c.PoolSize),
		WithIdleTimeout(c.IdleTimeout),
		WithRetries(c.Retries),
		WithRetryBackoff(c.RetryBackoff),
	}
}
