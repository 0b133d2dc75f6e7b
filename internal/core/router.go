package core

import (
	"context"
	"errors"
	"hash/fnv"
	"strconv"
	"sync"
	"sync/atomic"

	"desword/internal/obs"
	"desword/internal/poc"
	"desword/internal/reputation"
)

// This file is the proxy's embedded shard router. Query-path state — the POC
// directory (task lists and per-initial POC-queues), the path-level
// single-flight table, and the reputation ledger — is partitioned across N
// independent shard workers, routed by product-id hash, so concurrent
// queries for different products never contend on one lock or one ledger.
// List registration fans out to every shard (a list is shared, immutable
// task metadata; each shard keeps its own pointer-level index), while all
// per-query mutable state lives strictly inside the owning shard.

// proxyShard is one shard worker: a full, self-contained query-path state
// partition. Everything a walk touches lives here, so two queries on
// different shards share nothing mutable.
type proxyShard struct {
	id int

	mu     sync.RWMutex
	lists  map[string]*poc.List               // task id → POC list; guarded by mu
	queues map[poc.ParticipantID][]queueEntry // guarded by mu

	// Path-level single-flight: concurrent queries for the same
	// (product, quality) coalesce onto one walk, the PR 5 proof-cache idiom
	// lifted to whole path queries. Entries live only while the leader runs.
	fmu     sync.Mutex
	flights map[flightKey]*pathFlight // guarded by fmu

	ledger *reputation.Ledger

	// memo is the shard's share of the proxy's verified-proof memo: proofs
	// for this shard's products that already passed POC-Verify.
	memo *poc.VerifyMemo

	// Per-instance tallies for ShardStats: the obs series below are
	// process-wide (every proxy in the process shares the shard-0 series),
	// so a proxy's own snapshot needs its own counters.
	nQueries   atomic.Uint64
	nCoalesced atomic.Uint64

	queries   *obs.Counter // walks led by this shard index, process-wide
	coalesced *obs.Counter // queries coalesced on this shard index, process-wide
}

// verifyMemoKeys bounds the proxy's verified-proof memo, split evenly across
// the shards. A key costs about 310 bytes resident, so a full memo holds
// about 1.2 MiB (DESIGN §10).
const verifyMemoKeys = 4096

// newProxyShard builds one empty shard worker.
func newProxyShard(id int) *proxyShard {
	shard := strconv.Itoa(id)
	return &proxyShard{
		id:      id,
		lists:   make(map[string]*poc.List),
		queues:  make(map[poc.ParticipantID][]queueEntry),
		flights: make(map[flightKey]*pathFlight),
		ledger:  reputation.NewLedger(),
		queries: obs.Default.Counter("desword_shard_queries_total",
			"Path-query walks led, by owning shard.", "shard", shard),
		coalesced: obs.Default.Counter("desword_shard_coalesced_total",
			"Path queries coalesced onto a concurrent walk for the same product, by owning shard.",
			"shard", shard),
	}
}

// shardRouter deterministically maps product ids onto shard workers.
type shardRouter struct {
	shards []*proxyShard
}

// newShardRouter builds n shard workers (n >= 1).
func newShardRouter(n int) *shardRouter {
	r := &shardRouter{shards: make([]*proxyShard, n)}
	for i := range r.shards {
		r.shards[i] = newProxyShard(i)
	}
	return r
}

// shardFor returns the shard owning a product id: FNV-1a over the id, mod N.
// The mapping is pure — any process, any restart, any shard count N computes
// the same owner — so routing needs no coordination state.
func (r *shardRouter) shardFor(id poc.ProductID) *proxyShard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return r.shards[h.Sum32()%uint32(len(r.shards))]
}

// flightKey identifies one coalescable walk: the product and the query
// flavour (a good and a bad query for the same id are different walks with
// different reputation consequences and must not coalesce).
type flightKey struct {
	product poc.ProductID
	quality Quality
}

// pathFlight is one in-flight walk. result/err are written once by the
// leader before ready is closed; followers read them only after <-ready.
type pathFlight struct {
	ready  chan struct{}
	result *Result
	err    error
}

// queryCoalesced runs one path query on the shard with single-flight
// coalescing: the first caller for a (product, quality) becomes the leader
// and performs the walk via run; concurrent callers for the same key park on
// the flight and share the leader's result — one walk, one settlement, one
// wide event, no matter how many callers asked. The entry is removed the
// moment the leader finishes, so coalescing never spans non-overlapping
// queries: N serial queries still award N times, exactly like the unsharded
// proxy. Followers of a ctx-cancelled leader retry as leader (the PR 5
// proof-cache rule) so one impatient caller cannot poison the rest.
func (sh *proxyShard) queryCoalesced(ctx context.Context, key flightKey, run func() (*Result, error)) (*Result, error) {
	for {
		sh.fmu.Lock()
		if fl, ok := sh.flights[key]; ok {
			sh.fmu.Unlock()
			sh.nCoalesced.Add(1)
			sh.coalesced.Inc()
			mCoalesced.Inc()
			select {
			case <-fl.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if fl.err != nil && errors.Is(fl.err, context.Canceled) && ctx.Err() == nil {
				continue // leader was cancelled, we were not: take over
			}
			return fl.result, fl.err
		}
		fl := &pathFlight{ready: make(chan struct{})}
		sh.flights[key] = fl
		sh.fmu.Unlock()
		return sh.lead(key, fl, run)
	}
}

// lead runs the walk as the flight's leader and publishes the outcome: the
// entry is removed before ready is closed, so a caller arriving after the
// close starts a fresh flight rather than reading a settled one.
func (sh *proxyShard) lead(key flightKey, fl *pathFlight, run func() (*Result, error)) (*Result, error) {
	sh.nQueries.Add(1)
	sh.queries.Inc()
	fl.result, fl.err = run()
	sh.fmu.Lock()
	delete(sh.flights, key)
	sh.fmu.Unlock()
	close(fl.ready)
	return fl.result, fl.err
}

// mCoalesced is the process-wide companion of the per-shard coalesced
// counters, for dashboards that do not care about the shard dimension.
var mCoalesced = obs.Default.Counter("desword_coalesced_queries_total",
	"Path queries coalesced onto a concurrent walk for the same product.")

// ShardStats is one shard's operational snapshot.
type ShardStats struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Queries counts walks this shard led.
	Queries uint64 `json:"queries"`
	// Coalesced counts queries served by joining a concurrent walk.
	Coalesced uint64 `json:"coalesced"`
	// Tasks counts POC lists registered on this shard (every shard indexes
	// every list, so this matches the proxy-wide task count).
	Tasks int `json:"tasks"`
	// AuditEntries counts chained ledger events settled on this shard.
	AuditEntries uint64 `json:"audit_entries"`
}

// ShardStats returns one snapshot per shard worker, in shard order.
func (px *Proxy) ShardStats() []ShardStats {
	out := make([]ShardStats, len(px.router.shards))
	for i, sh := range px.router.shards {
		sh.mu.RLock()
		tasks := len(sh.lists)
		sh.mu.RUnlock()
		_, count := sh.ledger.Head()
		out[i] = ShardStats{
			Shard:        i,
			Queries:      sh.nQueries.Load(),
			Coalesced:    sh.nCoalesced.Load(),
			Tasks:        tasks,
			AuditEntries: count,
		}
	}
	return out
}
