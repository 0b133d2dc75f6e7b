package poc

import (
	"context"
	"fmt"
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

// TestProveCacheEviction pins the LRU bound: DefaultProofCacheSize+1
// distinct ids evict the least recently used one, so proving it again
// recomputes it and evicts the next.
func TestProveCacheEviction(t *testing.T) {
	ps := testPS(t)
	_, dpoc, err := Agg(ps, "v1", sampleTraces("v1", 2), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	computed := countProofs(dpoc)
	evictions0 := cacheEvictions().Value()

	ids := make([]ProductID, 0, DefaultProofCacheSize+2)
	for i := 0; i <= DefaultProofCacheSize; i++ {
		ids = append(ids, ProductID(fmt.Sprintf("evict-%03d", i)))
	}
	ids = append(ids, ids[0]) // evicted by the last distinct id
	for _, id := range ids {
		if _, err := dpoc.Prove(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := computed.Load(), int64(len(ids)); got != want {
		t.Errorf("computed %d proofs, want %d (the evicted id recomputes)", got, want)
	}
	if got := cacheEvictions().Value() - evictions0; got != 2 {
		t.Errorf("eviction counter advanced by %d, want 2", got)
	}
	if got := dpoc.cache.len(); got != DefaultProofCacheSize {
		t.Errorf("cache holds %d entries, want %d", got, DefaultProofCacheSize)
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
