package poc

import (
	"container/list"
	"sync"

	"desword/internal/obs"
)

// DefaultProofCacheSize bounds the per-DPOC proof cache when
// AggOptions.ProofCacheSize is left at zero.
const DefaultProofCacheSize = 128

// cacheEvictions counts proof-cache LRU removals across every DPOC in the
// process. Hits and misses are per-request counts and go through
// events.Count.
var cacheEvictions = sync.OnceValue(func() *obs.Counter {
	return obs.Default.Counter("desword_proofcache_evictions",
		"POC proof cache LRU evictions.")
})

// proofCache is a DPOC's proof cache: product id → proof. Entries never go
// stale: a committed decommitment tree never changes, so nothing needs
// invalidating (DESIGN §10).
type proofCache = lru[ProductID, *Proof]

// newProofCache translates the AggOptions knob: 0 selects the default size,
// negative disables caching entirely.
func newProofCache(size int) *proofCache {
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = DefaultProofCacheSize
	}
	return newLRU[ProductID, *Proof](size, cacheEvictions())
}

// lru is a bounded single-flight LRU. The first caller for a key becomes the
// leader and computes; concurrent followers park on the entry's ready
// channel and share the result, so N simultaneous demands for one hot key
// cost one computation. Failed computations are dropped, never cached. Both
// the DPOC proof cache and the proxy's verified-proof memo (memo.go) are
// instances.
type lru[K comparable, V any] struct {
	mu        sync.Mutex
	max       int
	ll        *list.List          // front = most recently used; guarded by mu
	entries   map[K]*list.Element // guarded by mu
	evictions *obs.Counter
}

// lruEntry is one key's slot. val/err are written once by the leader before
// ready is closed; followers read them only after <-ready.
type lruEntry[K comparable, V any] struct {
	key   K
	ready chan struct{}
	val   V
	err   error
}

// newLRU builds an empty LRU holding at most max entries; evictions counts
// its LRU removals.
func newLRU[K comparable, V any](max int, evictions *obs.Counter) *lru[K, V] {
	return &lru[K, V]{
		max:       max,
		ll:        list.New(),
		entries:   make(map[K]*list.Element),
		evictions: evictions,
	}
}

// getOrLead returns the entry for key and whether the caller is its leader.
// Leaders must compute the value and publish it via finish; followers wait
// on entry.ready. Inserting may evict the least recently used entries —
// including in-flight ones, whose waiters keep their reference and are
// unaffected.
func (c *lru[K, V]) getOrLead(key K) (*lruEntry[K, V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]), false
	}
	ent := &lruEntry[K, V]{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(ent)
	c.entries[key] = el
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		if oldest == el {
			break
		}
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K, V]).key)
		c.evictions.Inc()
	}
	return ent, true
}

// finish publishes the leader's result and wakes the followers. Failed
// computations are removed so the next caller for the key retries instead of
// replaying the error forever.
func (c *lru[K, V]) finish(ent *lruEntry[K, V], val V, err error) {
	c.mu.Lock()
	ent.val, ent.err = val, err
	if err != nil {
		if el, ok := c.entries[ent.key]; ok && el.Value == ent {
			c.ll.Remove(el)
			delete(c.entries, ent.key)
		}
	}
	c.mu.Unlock()
	close(ent.ready)
}

// len reports the current entry count, for tests.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
