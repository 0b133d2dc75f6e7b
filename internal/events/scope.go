package events

import (
	"context"
	"sync/atomic"
)

// Scope accumulates per-request resource counters along a request's context:
// proof-cache and verified-proof-memo hits and misses (poc), pooled-connection
// reuse and retries (node). The process-wide obs counters answer "how much
// overall"; a scope answers "how much did THIS query cost", which is what
// lands on its wide event. All methods are nil-safe, so instrumented hot paths pay one branch
// when no event is being assembled, and atomic, because speculative child
// probes touch the scope concurrently.
type Scope struct {
	cacheHits, cacheMisses, poolReused, poolRetries atomic.Uint64
	memoHits, memoMisses                            atomic.Uint64
}

// NewScope returns an empty scope.
func NewScope() *Scope { return &Scope{} }

// scopeKey is the context key the active scope lives under.
type scopeKey struct{}

// WithScope returns a context carrying the scope. The innermost scope wins:
// a proxy assembling a query event under a node server assembling a request
// event attributes the shared-resource counters to the query.
func WithScope(ctx context.Context, s *Scope) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, s)
}

// ScopeFrom returns the context's active scope, or nil.
func ScopeFrom(ctx context.Context) *Scope {
	s, _ := ctx.Value(scopeKey{}).(*Scope)
	return s
}

// CacheHit counts one proof served from the proof cache.
func (s *Scope) CacheHit() {
	if s != nil {
		s.cacheHits.Add(1)
	}
}

// CacheMiss counts one proof computed by a cache leader.
func (s *Scope) CacheMiss() {
	if s != nil {
		s.cacheMisses.Add(1)
	}
}

// MemoHit counts one proof accepted from the verified-proof memo.
func (s *Scope) MemoHit() {
	if s != nil {
		s.memoHits.Add(1)
	}
}

// MemoMiss counts one proof verified by a memo leader.
func (s *Scope) MemoMiss() {
	if s != nil {
		s.memoMisses.Add(1)
	}
}

// PoolReuse counts one exchange served over a reused pooled connection.
func (s *Scope) PoolReuse() {
	if s != nil {
		s.poolReused.Add(1)
	}
}

// PoolRetry counts one transport retry.
func (s *Scope) PoolRetry() {
	if s != nil {
		s.poolRetries.Add(1)
	}
}

// Fill copies the accumulated counters onto an event.
func (s *Scope) Fill(ev *Event) {
	if s == nil || ev == nil {
		return
	}
	ev.CacheHits = s.cacheHits.Load()
	ev.CacheMisses = s.cacheMisses.Load()
	ev.PoolReused = s.poolReused.Load()
	ev.PoolRetries = s.poolRetries.Load()
	ev.VerifyMemoHits = s.memoHits.Load()
	ev.VerifyMemoMisses = s.memoMisses.Load()
}
