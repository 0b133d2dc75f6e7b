package node

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"desword/internal/events"
	"desword/internal/trace"
	"desword/internal/wire"
)

// This file implements the client side of the wire protocol as a persistent,
// pooled transport. The servers in this package already answer many framed
// requests per connection; the Pool makes clients exploit that instead of
// paying a fresh TCP dial per request:
//
//   - a bounded per-endpoint pool of keep-alive connections with LIFO reuse
//     and idle reaping after half the client's timeout (idle connections are
//     dropped before the server's own read deadline would kill them, as long
//     as both sides run with the same timeout);
//   - per-attempt deadlines derived from the caller's context — an earlier
//     ctx deadline always wins over the flat per-exchange timeout, and every
//     retry attempt gets a fresh deadline rather than inheriting a stale
//     absolute one;
//   - retry with exponential backoff on transient dial/IO failures, gated by
//     message-type idempotency (see retrySafe);
//   - endpoint health tracking: after enough consecutive transport failures
//     the endpoint is marked down for a cooldown window and callers fail
//     fast with ErrEndpointDown instead of burning the full dial timeout on
//     every hop of a path walk.
//
// Every request carries a wire req_id header (stable across the retries of
// one logical request); servers echo it, and a missing or mismatched echo
// poisons the connection — a reused connection can never hand a caller some
// other request's response.

// Pool settings. The defaults suit the localhost and LAN deployments the
// repository targets; the cmd binaries expose the pool size as a flag, and
// the timeout (DefaultTimeout, node.go) also sets the idle reap.
const (
	// DefaultPoolSize bounds the open connections per endpoint (in-use plus
	// idle). Requests beyond the bound queue for a free connection.
	DefaultPoolSize = 4
	// DefaultRetries is the number of retry attempts after the first try.
	DefaultRetries = 2

	// retryBackoff is the sleep before the first retry; it doubles per
	// attempt, capped at maxRetryBackoff.
	retryBackoff    = 50 * time.Millisecond
	maxRetryBackoff = 2 * time.Second
	// failThreshold is how many consecutive transport failures mark an
	// endpoint down.
	failThreshold = 3
	// cooldown is how long a down endpoint fails fast before the next real
	// dial is attempted; it doubles per further failure, capped at
	// maxCooldown.
	cooldown    = 2 * time.Second
	maxCooldown = 30 * time.Second
)

// Errors reported by the pooled transport.
var (
	// ErrPoolClosed reports use of a closed pool.
	ErrPoolClosed = errors.New("node: connection pool closed")
	// ErrEndpointDown reports a fast-fail: the endpoint crossed the failure
	// threshold and is cooling down, so no dial was attempted.
	ErrEndpointDown = errors.New("node: endpoint marked down")
)

// PoolStats is a snapshot of one pool's counters, for tests and benches; the
// process-wide aggregates live in the obs registry (see poolMetrics).
type PoolStats struct {
	// Open counts live connections (in use + idle).
	Open int
	// Idle counts pooled connections awaiting reuse.
	Idle int
	// Dials counts connections established.
	Dials uint64
	// Reuses counts exchanges served by an already-open connection.
	Reuses uint64
	// Retries counts retry attempts (not first tries).
	Retries uint64
	// FastFails counts exchanges rejected during a cooldown window.
	FastFails uint64
	// Waits counts exchanges that had to queue for a free connection.
	Waits uint64
}

// pooledConn is one idle connection with its reuse bookkeeping.
type pooledConn struct {
	conn      net.Conn
	idleSince time.Time
}

// Pool is a persistent client transport for one endpoint. All methods are
// safe for concurrent use. The zero value is not usable; create pools with
// NewPool (or indirectly through NewResponderClient / NewProxyClient).
type Pool struct {
	addr string
	o    options

	// sem bounds open connections.
	sem chan struct{}

	mu     sync.Mutex
	idle   []pooledConn // guarded by mu; LIFO: most recently used last
	open   int          // guarded by mu; live conns, in-use + idle
	closed bool         // guarded by mu

	// Endpoint health.
	fails     int       // guarded by mu; consecutive transport failures
	downUntil time.Time // guarded by mu; zero when the endpoint is considered up
	lastErr   error     // guarded by mu; last failure, reported by fast-fails

	// Per-pool counters (process-wide aggregates live in poolMetrics).
	dials, reuses, retries, fastFails, waits atomic.Uint64
}

// NewPool creates a pooled transport for one endpoint address.
func NewPool(addr string, opts ...Option) *Pool {
	o := applyOptions(opts)
	return &Pool{addr: addr, o: o, sem: make(chan struct{}, o.poolSize)}
}

// Addr returns the endpoint address the pool dials.
func (p *Pool) Addr() string { return p.addr }

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	open, idle := p.open, len(p.idle)
	p.mu.Unlock()
	return PoolStats{
		Open:      open,
		Idle:      idle,
		Dials:     p.dials.Load(),
		Reuses:    p.reuses.Load(),
		Retries:   p.retries.Load(),
		FastFails: p.fastFails.Load(),
		Waits:     p.waits.Load(),
	}
}

// Close releases the pool's idle connections and rejects further exchanges.
// Connections currently in use finish their exchange and are closed on
// release. Close is idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.open -= len(idle)
	p.mu.Unlock()
	for _, pc := range idle {
		_ = pc.conn.Close()
		poolConns.idle.Dec()
		poolConns.open.Dec()
	}
	return nil
}

// Exchange performs one logical request/response exchange: it draws a
// connection from the pool (or dials), applies a per-attempt deadline, and
// retries transient failures when the message type allows it. When ctx
// carries an active trace span, the exchange records a wire round-trip child
// span — tagged with the endpoint, whether the final attempt reused a pooled
// connection, and the attempt count — and grafts the spans the server
// returns into the local trace.
func (p *Pool) Exchange(ctx context.Context, msgType string, payload any) (*wire.Envelope, error) {
	var span *trace.Span
	if trace.FromContext(ctx) != nil {
		// Only a traced exchange pays for building its span name.
		ctx, span = trace.Default.StartChild(ctx, "wire."+msgType,
			trace.String("addr", p.addr))
	}
	env, err := p.exchangeAttempts(ctx, span, msgType, payload)
	span.SetError(err)
	span.End()
	return env, err
}

// exchangeAttempts runs the retry loop around attempt.
func (p *Pool) exchangeAttempts(ctx context.Context, span *trace.Span, msgType string, payload any) (*wire.Envelope, error) {
	req, err := wire.NewEnvelope(msgType, payload)
	if err != nil {
		return nil, err
	}
	// One req_id per logical request, stable across retries, so server-side
	// logs correlate the attempts and the echo check below can catch a
	// desynchronized connection.
	req.ReqID = wire.NewRequestID()
	req.TraceID = span.TraceID()
	req.SpanID = span.SpanID()

	for attempt := 0; ; attempt++ {
		resp, reused, wrote, err := p.attempt(ctx, req)
		if err == nil {
			span.SetAttr(trace.Bool("reused", reused), trace.Int("attempt", attempt+1))
			p.noteSuccess()
			span.Adopt(resp.Spans)
			return resp, nil
		}
		if attempt >= p.o.retries || ctx.Err() != nil || !retrySafe(msgType, wrote) ||
			errors.Is(err, ErrEndpointDown) || errors.Is(err, ErrPoolClosed) {
			span.SetAttr(trace.Int("attempt", attempt+1))
			return nil, err
		}
		p.retries.Add(1)
		events.Count(ctx, events.PoolRetry)
		if !sleepCtx(ctx, backoffDelay(attempt)) {
			return nil, fmt.Errorf("node: retrying %s to %s: %w (last error: %w)", msgType, p.addr, ctx.Err(), err)
		}
	}
}

// retrySafe reports whether a failed attempt may be retried. Query and
// demand-ownership interactions are idempotent by protocol design — a
// participant answers them from its committed, immutable DPOC, so replaying
// one cannot change state on either side — and the proxy's read-side
// messages (get_params, scores, audit_log) are plain reads. Those retry on
// any transport failure. register_list and query_path mutate proxy state
// (task registration, reputation settlement), so they are retried only while
// the request frame provably never reached the peer in full: a dial failure
// or an incomplete write. Length-prefixed framing guarantees a server never
// processes a partial frame, which is what makes the !wrote case safe.
func retrySafe(msgType string, wrote bool) bool {
	switch msgType {
	case wire.TypeQuery, wire.TypeDemandOwnership,
		wire.TypeGetParams, wire.TypeScores, wire.TypeAuditLog:
		return true
	}
	return !wrote
}

// backoffDelay is the exponential backoff before retry number attempt+1.
func backoffDelay(attempt int) time.Duration {
	return min(retryBackoff<<uint(min(attempt, 10)), maxRetryBackoff)
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// attempt performs one request/response round trip on one connection. wrote
// reports whether the full request frame was handed to the kernel — the
// input to the retry-safety decision for non-idempotent messages.
func (p *Pool) attempt(ctx context.Context, req *wire.Envelope) (resp *wire.Envelope, reused, wrote bool, err error) {
	conn, reused, err := p.get(ctx)
	if err != nil {
		return nil, reused, false, err
	}
	healthy := false
	defer func() { p.put(conn, healthy) }()

	// Per-attempt deadline: the flat timeout, tightened by an earlier ctx
	// deadline when the caller set one. Each attempt computes it afresh so
	// a retry is never strangled by the previous attempt's absolute stamp.
	deadline := time.Now().Add(p.o.timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	// derr/werr, not err: this function's named result is still live and
	// shadowing it in the if-init scopes invites defer bugs (desword/shadow).
	if derr := conn.SetDeadline(deadline); derr != nil {
		return nil, reused, false, fmt.Errorf("node: setting deadline: %w", derr)
	}
	if werr := wire.WriteEnvelope(conn, req); werr != nil {
		p.noteFailureIfFresh(reused, werr)
		return nil, reused, false, werr
	}
	resp, err = wire.ReadMessage(conn)
	if err != nil {
		p.noteFailureIfFresh(reused, err)
		return nil, reused, true, err
	}
	if echo := resp.RequestID(); echo != req.ReqID {
		// The connection handed us some other request's response, or a peer
		// that does not echo the req_id header: either way it cannot be
		// trusted to pair responses with requests and must not be reused.
		return nil, reused, true, fmt.Errorf("node: %s answered req_id %s with %q", p.addr, req.ReqID, echo)
	}
	healthy = true
	return resp, reused, true, nil
}

// get returns a connection to the endpoint: a pooled idle one when
// available, otherwise a fresh dial. It blocks when the pool is at its
// connection bound until a connection frees up or ctx ends.
func (p *Pool) get(ctx context.Context) (net.Conn, bool, error) {
	if err := p.checkHealth(); err != nil {
		return nil, false, err
	}
	select {
	case p.sem <- struct{}{}:
	default:
		// Pool exhausted: queue for a slot.
		p.waits.Add(1)
		poolConns.waits.Inc()
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	if conn := p.takeIdle(); conn != nil {
		p.reuses.Add(1)
		events.Count(ctx, events.PoolReuse)
		return conn, true, nil
	}
	dialer := net.Dialer{Timeout: p.o.timeout}
	conn, err := dialer.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		p.releaseSlot()
		p.noteFailure(err)
		return nil, false, fmt.Errorf("node: dialing %s: %w", p.addr, err)
	}
	p.dials.Add(1)
	poolConns.dials.Inc()
	poolConns.open.Inc()
	p.mu.Lock()
	p.open++
	p.mu.Unlock()
	return conn, false, nil
}

// takeIdle pops the most recently used idle connection, reaping stale ones
// on the way. LIFO keeps the working set warm and lets the tail age out.
func (p *Pool) takeIdle() net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	cutoff := time.Now().Add(-p.o.timeout / 2)
	// Reap from the cold end.
	for len(p.idle) > 0 && p.idle[0].idleSince.Before(cutoff) {
		pc := p.idle[0]
		p.idle = p.idle[1:]
		p.open--
		_ = pc.conn.Close()
		poolConns.idle.Dec()
		poolConns.open.Dec()
		poolConns.reaped.Inc()
	}
	if len(p.idle) == 0 {
		return nil
	}
	pc := p.idle[len(p.idle)-1]
	p.idle = p.idle[:len(p.idle)-1]
	poolConns.idle.Dec()
	return pc.conn
}

// put releases a connection after an exchange: healthy connections return to
// the idle set for reuse; anything else is closed.
func (p *Pool) put(conn net.Conn, healthy bool) {
	defer p.releaseSlot()
	if healthy {
		p.mu.Lock()
		if !p.closed {
			p.idle = append(p.idle, pooledConn{conn: conn, idleSince: time.Now()})
			p.mu.Unlock()
			poolConns.idle.Inc()
			return
		}
		p.mu.Unlock()
	}
	p.mu.Lock()
	p.open--
	p.mu.Unlock()
	_ = conn.Close()
	poolConns.open.Dec()
}

// releaseSlot frees a semaphore slot.
func (p *Pool) releaseSlot() { <-p.sem }

// checkHealth fails fast while the endpoint is cooling down.
func (p *Pool) checkHealth() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if !p.downUntil.IsZero() && time.Now().Before(p.downUntil) {
		p.fastFails.Add(1)
		poolConns.fastFails.Inc()
		return fmt.Errorf("%w: %s cooling down after %d failures: %w", ErrEndpointDown, p.addr, p.fails, p.lastErr)
	}
	return nil
}

// noteFailure records one transport failure toward the down threshold. Once
// crossed, the endpoint cools down for a window that doubles per further
// failure (capped), so a dead participant costs each caller one fast error
// instead of a full dial timeout.
func (p *Pool) noteFailure(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fails++
	p.lastErr = err
	if p.fails >= failThreshold {
		p.downUntil = time.Now().Add(min(cooldown<<uint(min(p.fails-failThreshold, 10)), maxCooldown))
	}
}

// noteFailureIfFresh records an IO failure on a freshly dialed connection.
// Failures on reused connections are expected staleness (the server reaps
// idle peers on its own clock) and say nothing about endpoint health.
func (p *Pool) noteFailureIfFresh(reused bool, err error) {
	if !reused {
		p.noteFailure(err)
	}
}

// noteSuccess resets the endpoint's failure accounting.
func (p *Pool) noteSuccess() {
	p.mu.Lock()
	p.fails = 0
	p.downUntil = time.Time{}
	p.lastErr = nil
	p.mu.Unlock()
}
