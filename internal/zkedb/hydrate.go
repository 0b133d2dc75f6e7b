package zkedb

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"desword/internal/obs"
	"desword/internal/zkedb/store"
)

// This file is the lazy-hydration layer between the prover and its node
// store: every node and soft entry lives encoded in the store, and a bounded
// LRU of decoded copies fronts it. With an unbounded cache (the default, and
// the only mode the Mem backend needs) everything built stays resident and
// proofs never touch the store — the pre-store behaviour. With a bound, a
// proof hydrates the ≤ H nodes on its path and eviction keeps peak memory
// proportional to the working set instead of the tree (DESIGN.md §13).

// cacheMetrics are the hydration counters, labelled by store backend.
type cacheMetrics struct {
	loaded  *obs.Counter
	evicted *obs.Counter
}

// cacheMetricsRegistry interns the per-backend counter sets.
type cacheMetricsRegistry struct {
	mu sync.Mutex
	m  map[string]*cacheMetrics // guarded by mu
}

var cacheReg = cacheMetricsRegistry{m: make(map[string]*cacheMetrics)}

// cacheMetricsFor returns the counters for one backend, building them once
// per backend name.
func cacheMetricsFor(backend string) *cacheMetrics {
	cacheReg.mu.Lock()
	defer cacheReg.mu.Unlock()
	if m, ok := cacheReg.m[backend]; ok {
		return m
	}
	m := &cacheMetrics{
		loaded: obs.Default.Counter("desword_zkedb_store_nodes_loaded",
			"ZK-EDB tree nodes and soft entries hydrated from the node store.",
			"backend", backend),
		evicted: obs.Default.Counter("desword_zkedb_store_nodes_evicted",
			"ZK-EDB hydrated tree nodes and soft entries evicted from the resident cache.",
			"backend", backend),
	}
	cacheReg.m[backend] = m
	return m
}

// cacheInsertLocked registers a hydrated entry, evicting from the LRU tail when
// the bound is exceeded. d.mu must be held. The root is never inserted (it
// is pinned on the Decommitment itself), so eviction can never orphan the
// tree.
func (d *Decommitment) cacheInsertLocked(key string, cs *cacheSlot) {
	if el, ok := d.ents[key]; ok {
		el.Value = cs
		d.ll.MoveToFront(el)
		return
	}
	d.ents[key] = d.ll.PushFront(cs)
	if d.bound <= 0 {
		return
	}
	for d.ll.Len() > d.bound {
		back := d.ll.Back()
		if back == nil {
			break
		}
		d.ll.Remove(back)
		delete(d.ents, back.Value.(*cacheSlot).key)
		d.cm.evicted.Inc()
	}
}

// ResidentNodes reports how many hydrated nodes and soft entries are
// currently cached (excluding the pinned root). Benchmarks use it to show
// peak memory staying bounded below tree size.
func (d *Decommitment) ResidentNodes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ll.Len()
}

// putNode writes a node through to the store and caches the decoded copy.
// The root (pk == "") is not cached: callers pin it on d.root directly.
func (d *Decommitment) putNode(pk string, n *node) error {
	if err := d.kv.Put(nodeStoreKey(pk), encodeNodeRecord(n)); err != nil {
		return fmt.Errorf("zkedb: storing node %q: %w", pk, err)
	}
	if pk == "" {
		return nil
	}
	d.mu.Lock()
	d.cacheInsertLocked(nodeStoreKey(pk), &cacheSlot{key: nodeStoreKey(pk), n: n})
	d.mu.Unlock()
	return nil
}

// nodeAt resolves the node at a digit-path key, hydrating it from the store
// on a cache miss. A committed tree's nodes are never rewritten, so a racing
// double-hydration of the same node is harmless: both copies decode
// identical bytes.
func (d *Decommitment) nodeAt(pk string, st *proveStats) (*node, error) {
	if pk == "" {
		return d.root, nil
	}
	sk := nodeStoreKey(pk)
	d.mu.Lock()
	if el, ok := d.ents[sk]; ok {
		d.ll.MoveToFront(el)
		n := el.Value.(*cacheSlot).n
		d.mu.Unlock()
		return n, nil
	}
	d.mu.Unlock()
	val, ok, err := d.kv.Get(sk)
	if err != nil {
		return nil, fmt.Errorf("zkedb: loading node %q: %w", pk, err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: node %x missing from store", ErrBadState, pk)
	}
	n, err := decodeNodeRecord(val, d.crs.Params)
	if err != nil {
		return nil, fmt.Errorf("zkedb: node %x: %w", pk, err)
	}
	if st != nil {
		st.loaded++
	}
	d.cm.loaded.Inc()
	d.mu.Lock()
	d.cacheInsertLocked(sk, &cacheSlot{key: sk, n: n})
	d.mu.Unlock()
	return n, nil
}

// childAt resolves the node at a digit-path prefix.
func (d *Decommitment) childAt(prefix []int, st *proveStats) (*node, error) {
	return d.nodeAt(prefixKey(prefix), st)
}

// putSoft writes a soft entry through to the store and caches it.
func (d *Decommitment) putSoft(pk string, entry *softEntry) error {
	if err := d.kv.Put(softStoreKey(pk), encodeSoftRecord(entry)); err != nil {
		return fmt.Errorf("zkedb: storing soft entry %q: %w", pk, err)
	}
	d.mu.Lock()
	d.cacheInsertLocked(softStoreKey(pk), &cacheSlot{key: softStoreKey(pk), s: entry})
	d.mu.Unlock()
	return nil
}

// softAt resolves the soft entry pinned at a tree position, hydrating it
// from the store or creating it lazily on first use (non-ownership proofs
// extend soft chains below the commit-time pinned entries on demand).
// Creation happens under d.mu so concurrent proofs of the same absent key
// see one consistent chain — repeat queries must answer with the same soft
// commitments, or a later answer would contradict one a verifier already
// holds. Lazily created entries draw from
// the position-keyed DRBG when the build was seeded, so seeded trees produce
// identical soft chains on every backend and after every reopen.
func (d *Decommitment) softAt(prefix []int, st *proveStats) (*softEntry, error) {
	pk := prefixKey(prefix)
	sk := softStoreKey(pk)
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.ents[sk]; ok {
		d.ll.MoveToFront(el)
		return el.Value.(*cacheSlot).s, nil
	}
	val, ok, err := d.kv.Get(sk)
	if err != nil {
		return nil, fmt.Errorf("zkedb: loading soft entry %q: %w", pk, err)
	}
	if ok {
		entry, err := decodeSoftRecord(val)
		if err != nil {
			return nil, fmt.Errorf("zkedb: soft entry %x: %w", pk, err)
		}
		if st != nil {
			st.loaded++
		}
		d.cm.loaded.Inc()
		d.cacheInsertLocked(sk, &cacheSlot{key: sk, s: entry})
		return entry, nil
	}
	var rnd io.Reader = rand.Reader
	if d.seed != nil {
		rnd = newCommitDRBG(d.seed, prefix)
	}
	com, sdec := d.crs.Key.TMC.SComFrom(rnd)
	entry := &softEntry{com: com, dec: sdec}
	if err := d.kv.Put(sk, encodeSoftRecord(entry)); err != nil {
		return nil, fmt.Errorf("zkedb: storing soft entry %q: %w", pk, err)
	}
	if st != nil {
		st.created++
	}
	d.cacheInsertLocked(sk, &cacheSlot{key: sk, s: entry})
	return entry, nil
}

// writeMeta records the tree geometry (and build seed, if any) in the
// store, marking it as holding a committed tree.
func (d *Decommitment) writeMeta() error {
	pj, err := json.Marshal(d.crs.Params)
	if err != nil {
		return fmt.Errorf("zkedb: encoding params: %w", err)
	}
	if err := d.kv.Put(metaParamsKey, pj); err != nil {
		return fmt.Errorf("zkedb: storing params: %w", err)
	}
	if d.seed != nil {
		cp := make([]byte, len(d.seed))
		copy(cp, d.seed)
		if err := d.kv.Put(metaSeedKey, cp); err != nil {
			return fmt.Errorf("zkedb: storing seed: %w", err)
		}
	}
	return nil
}

// OpenDecommitment reopens the prover state from a store that already holds
// a committed tree — typically a *store.File across a process restart. Only
// the root node is loaded eagerly; everything else hydrates on demand during
// proofs, so reopening a million-node tree is O(1). cacheNodes bounds the
// resident hydrated-state cache exactly as CommitOptions.CacheNodes does.
//
// The CRS must be the one the tree was committed under: the geometry is
// checked against the store's metadata, the key material is trusted.
func OpenDecommitment(crs *CRS, kv store.KV, cacheNodes int) (*Decommitment, error) {
	pj, ok, err := kv.Get(metaParamsKey)
	if err != nil {
		return nil, fmt.Errorf("zkedb: reading store metadata: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: store holds no committed tree", ErrBadState)
	}
	var params Params
	if err := json.Unmarshal(pj, &params); err != nil {
		return nil, fmt.Errorf("%w: store params: %w", ErrBadState, err)
	}
	if params != crs.Params {
		return nil, fmt.Errorf("%w: store geometry %+v does not match CRS %+v",
			ErrBadState, params, crs.Params)
	}
	seed, _, err := kv.Get(metaSeedKey)
	if err != nil {
		return nil, fmt.Errorf("zkedb: reading store metadata: %w", err)
	}
	dec := newDecommitment(crs, kv, seed, cacheNodes)
	rootRec, ok, err := kv.Get(nodeStoreKey(""))
	if err != nil {
		return nil, fmt.Errorf("zkedb: loading root: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("%w: store missing root node", ErrBadState)
	}
	root, err := decodeNodeRecord(rootRec, crs.Params)
	if err != nil {
		return nil, fmt.Errorf("zkedb: root: %w", err)
	}
	if root.leaf || root.level != 0 {
		return nil, fmt.Errorf("%w: malformed root node", ErrBadState)
	}
	dec.root = root
	return dec, nil
}
