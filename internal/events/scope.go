package events

import (
	"context"
	"sync"
	"sync/atomic"

	"desword/internal/obs"
)

// Resource names one per-request resource count: a proof-cache or
// verified-proof-memo outcome (poc) or a pooled-connection event (node).
type Resource uint8

// The resources Count records.
const (
	// CacheHit is a proof served from a DPOC's proof cache.
	CacheHit Resource = iota
	// CacheMiss is a proof computed by a proof-cache leader.
	CacheMiss
	// MemoHit is a proof accepted from the verified-proof memo.
	MemoHit
	// MemoMiss is a proof verified by a memo leader.
	MemoMiss
	// PoolReuse is a pooled connection an exchange attempt took.
	PoolReuse
	// PoolRetry is one transport retry.
	PoolRetry
	numResources
)

// Count records one r: it bumps r's process-wide series and, when ctx
// carries a Scope, the request's own count, so the wide event and /metrics
// count the same things.
func Count(ctx context.Context, r Resource) {
	seriesOf(r).Inc()
	if s := ScopeFrom(ctx); s != nil {
		s.n[r].Add(1)
	}
}

// The process-wide series behind each Resource. The cache and memo pairs
// register on first use, so a process shows only the ones it uses: a proxy
// proves nothing, a participant verifies nothing. The pool pair registers
// at start-up, like the rest of the pool's metrics (package node).
var (
	cacheSeries = sync.OnceValue(func() [2]*obs.Counter {
		return [2]*obs.Counter{
			obs.Default.Counter("desword_proofcache_hits",
				"POC proof cache hits: proofs served without recomputing the mercurial openings."),
			obs.Default.Counter("desword_proofcache_misses",
				"POC proof cache misses: proofs computed and inserted by a single-flight leader."),
		}
	})
	memoSeries = sync.OnceValue(func() [2]*obs.Counter {
		return [2]*obs.Counter{
			obs.Default.Counter("desword_verifymemo_hits",
				"Verified-proof memo hits: proofs accepted without re-running POC-Verify."),
			obs.Default.Counter("desword_verifymemo_misses",
				"Verified-proof memo misses: proofs verified by a single-flight leader."),
		}
	})
	poolSeries = [2]*obs.Counter{
		obs.Default.Counter("desword_pool_reuses_total",
			"Client exchanges served by a pooled connection."),
		obs.Default.Counter("desword_pool_retries_total",
			"Client exchange retry attempts."),
	}
)

// seriesOf returns r's process-wide counter.
func seriesOf(r Resource) *obs.Counter {
	switch r {
	case CacheHit, CacheMiss:
		return cacheSeries()[r-CacheHit]
	case MemoHit, MemoMiss:
		return memoSeries()[r-MemoHit]
	default:
		return poolSeries[r-PoolReuse]
	}
}

// Scope accumulates one request's resource counts along its context. The
// process-wide series answer "how much overall"; a scope answers "how much
// did THIS query cost", which is what lands on its wide event. Counts are
// atomic, because speculative child probes count into one scope
// concurrently.
type Scope struct {
	n [numResources]atomic.Uint64
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

// Fill copies the accumulated counts onto an event. A nil scope fills
// nothing.
func (s *Scope) Fill(ev *Event) {
	if s == nil || ev == nil {
		return
	}
	ev.CacheHits = s.n[CacheHit].Load()
	ev.CacheMisses = s.n[CacheMiss].Load()
	ev.PoolReused = s.n[PoolReuse].Load()
	ev.PoolRetries = s.n[PoolRetry].Load()
	ev.VerifyMemoHits = s.n[MemoHit].Load()
	ev.VerifyMemoMisses = s.n[MemoMiss].Load()
}
