// Package store provides the pluggable node-store backends the ZK-EDB
// keeps its commitment tree in (DESIGN.md §13).
//
// A KV is a flat namespace of byte records keyed by generalized tree index
// in the merkledb idiom: a one-letter namespace plus the digit-path prefix
// of the tree position ("n/" nodes, "s/" soft entries, "d/" database
// entries, "m/" metadata — see package zkedb for the encodings). The store
// knows nothing about the tree; it only promises durable, batch-atomic
// puts, so the zkedb layer above can hydrate nodes lazily during proofs
// instead of holding the whole tree in memory. A committed tree never
// changes, so a store has no delete.
//
// Two backends ship:
//
//   - Mem: the legacy behaviour — every record in one in-process map.
//   - File: an append-only log with batched puts and crash-safe commit
//     markers; a reopen replays only fully committed batches and truncates
//     any torn tail (see file.go).
package store

import (
	"sort"
	"sync"

	"desword/internal/obs"
)

// KV is the pluggable node-store interface. Implementations must be safe
// for concurrent use: the parallel commit builder puts from many
// goroutines, and concurrent proofs get while a batch is pending.
//
// Put stages into the current batch; records become durable (and survive a
// crash, for durable backends) only once Flush commits the batch.
// Get and List observe staged writes immediately — the batch is a
// write-through buffer, not a fork.
type KV interface {
	// Name identifies the backend ("mem", "file") for metrics and spans.
	Name() string
	// Get returns the record for key, or ok=false if absent.
	Get(key string) ([]byte, bool, error)
	// Put stages a record into the current batch.
	Put(key string, val []byte) error
	// List returns every key with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Flush atomically commits the staged batch.
	Flush() error
	// Close flushes and releases the backend.
	Close() error
}

// metrics are the process-wide store counters, labelled by backend.
type metrics struct {
	batches      *obs.Counter
	batchPuts    *obs.Counter
	bytesWritten *obs.Counter
}

func newMetrics(backend string) *metrics {
	return &metrics{
		batches: obs.Default.Counter("desword_zkedb_store_batches",
			"ZK-EDB node-store batch commits (Flush calls that wrote records).",
			"backend", backend),
		batchPuts: obs.Default.Counter("desword_zkedb_store_batch_puts",
			"ZK-EDB node-store records written through batched puts.",
			"backend", backend),
		bytesWritten: obs.Default.Counter("desword_zkedb_store_bytes_written",
			"ZK-EDB node-store bytes appended to the backing medium.",
			"backend", backend),
	}
}

var (
	memMetrics  = sync.OnceValue(func() *metrics { return newMetrics("mem") })
	fileMetrics = sync.OnceValue(func() *metrics { return newMetrics("file") })
)

// Mem is the in-memory backend: one map, no durability. It is the default
// store and reproduces the pre-store behaviour of the ZK-EDB exactly.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte // guarded by mu
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte)}
}

// Name implements KV.
func (s *Mem) Name() string { return "mem" }

// Get implements KV.
func (s *Mem) Get(key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	val, ok := s.m[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(val))
	copy(out, val)
	return out, true, nil
}

// Put implements KV.
func (s *Mem) Put(key string, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	m := memMetrics()
	m.batchPuts.Inc()
	m.bytesWritten.Add(uint64(len(key) + len(val)))
	return nil
}

// List implements KV.
func (s *Mem) List(prefix string) ([]string, error) {
	s.mu.RLock()
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

// Flush implements KV; the map is always consistent, so it only counts the
// batch boundary.
func (s *Mem) Flush() error {
	memMetrics().batches.Inc()
	return nil
}

// Close implements KV.
func (s *Mem) Close() error { return nil }

var _ KV = (*Mem)(nil)
