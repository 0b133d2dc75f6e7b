package poc

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"desword/internal/obs"
)

// countProofs installs a hook counting underlying proof computations on dp.
func countProofs(dp *DPOC) *atomic.Int64 {
	var n atomic.Int64
	dp.proveHook = func() { n.Add(1) }
	return &n
}

// TestProveSingleFlight pins the cache's headline guarantee: N concurrent
// Prove calls for one product id run the underlying proof computation at
// most once, and every caller gets the same proof.
func TestProveSingleFlight(t *testing.T) {
	ps := testPS(t)
	_, dpoc, err := Agg(ps, "v1", sampleTraces("v1", 2), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	computed := countProofs(dpoc)

	const callers = 16
	var (
		start  = make(chan struct{})
		wg     sync.WaitGroup
		proofs [callers]*Proof
		errs   [callers]error
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			proofs[i], errs[i] = dpoc.Prove(context.Background(), "id-00")
		}(i)
	}
	close(start)
	wg.Wait()

	if got := computed.Load(); got != 1 {
		t.Errorf("underlying computation ran %d times, want 1", got)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if proofs[i] != proofs[0] {
			t.Errorf("caller %d received a different proof object", i)
		}
	}
}

// TestProveCacheHit pins that sequential repeats are served from cache while
// distinct ids each compute once. It reads the counters by their exported
// names, the way the benchmark derives poc.proofcache.hit_ratio, so renaming
// a metric fails here instead of silently zeroing that ratio.
func TestProveCacheHit(t *testing.T) {
	ps := testPS(t)
	_, dpoc, err := Agg(ps, "v1", sampleTraces("v1", 2), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	computed := countProofs(dpoc)
	hits := obs.Default.Counter("desword_proofcache_hits", "")
	misses := obs.Default.Counter("desword_proofcache_misses", "")
	hits0, misses0 := hits.Value(), misses.Value()

	for i := 0; i < 3; i++ {
		if _, err := dpoc.Prove(context.Background(), "id-00"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dpoc.Prove(context.Background(), "id-01"); err != nil {
		t.Fatal(err)
	}
	if got := computed.Load(); got != 2 {
		t.Errorf("computed %d proofs, want 2 (one per distinct id)", got)
	}
	if got := hits.Value() - hits0; got != 2 {
		t.Errorf("desword_proofcache_hits advanced by %d, want 2", got)
	}
	if got := misses.Value() - misses0; got != 2 {
		t.Errorf("desword_proofcache_misses advanced by %d, want 2", got)
	}
}

// TestProveCacheDisabled pins the AggOptions escape hatch: a negative cache
// size recomputes on every call.
func TestProveCacheDisabled(t *testing.T) {
	ps := testPS(t)
	_, dpoc, err := Agg(ps, "v1", sampleTraces("v1", 1), AggOptions{ProofCacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	computed := countProofs(dpoc)
	for i := 0; i < 3; i++ {
		if _, err := dpoc.Prove(context.Background(), "id-00"); err != nil {
			t.Fatal(err)
		}
	}
	if got := computed.Load(); got != 3 {
		t.Errorf("computed %d proofs with cache disabled, want 3", got)
	}
}

// TestProveCacheEviction pins the LRU bound: a size-1 cache holds one entry,
// so alternating ids keep evicting and recomputing.
func TestProveCacheEviction(t *testing.T) {
	ps := testPS(t)
	_, dpoc, err := Agg(ps, "v1", sampleTraces("v1", 2), AggOptions{ProofCacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	computed := countProofs(dpoc)
	evictions0 := cacheEvictions().Value()

	for _, id := range []ProductID{"id-00", "id-01", "id-00"} {
		if _, err := dpoc.Prove(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if got := computed.Load(); got != 3 {
		t.Errorf("computed %d proofs, want 3 (size-1 cache thrashes)", got)
	}
	if got := cacheEvictions().Value() - evictions0; got != 2 {
		t.Errorf("eviction counter advanced by %d, want 2", got)
	}
	if got := dpoc.cache.len(); got != 1 {
		t.Errorf("cache holds %d entries, want 1", got)
	}
}

// TestProveErrorNotCached pins that a failed computation is not memoized: a
// Prove cancelled mid-flight must not poison the id for later callers.
func TestProveErrorNotCached(t *testing.T) {
	ps := testPS(t)
	_, dpoc, err := Agg(ps, "v1", sampleTraces("v1", 1), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dpoc.Prove(cancelled, "id-00"); err == nil {
		t.Fatal("Prove with cancelled ctx succeeded")
	}
	if got := dpoc.cache.len(); got != 0 {
		t.Fatalf("failed computation left %d cache entries", got)
	}
	if _, err := dpoc.Prove(context.Background(), "id-00"); err != nil {
		t.Fatalf("Prove after failed leader: %v", err)
	}
}
