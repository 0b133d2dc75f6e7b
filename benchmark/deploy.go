package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/node"
	"desword/internal/obs"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

// clients is the number of concurrent proxy connections the load generators
// use: the core count of the 2-core host the benchmark was defined on, fixed
// so that a workload does not change with the machine running it.
const clients = 2

// pathLen is the length of every product path: the line chain p0→p1→p2→p3.
const pathLen = 4

// errWrongAnswer marks a result that disagrees with the ground truth. Any
// such answer fails the run; transport errors only count as failures.
var errWrongAnswer = errors.New("wrong answer")

// lot is one distribution task: products prefix1…prefixN entering the chain
// at p0.
type lot struct {
	task   string
	prefix string
	n      int
}

// ids returns the lot's product ids, the names supplychain.MintTags gives.
func (l lot) ids() []poc.ProductID {
	out := make([]poc.ProductID, l.n)
	for i := range out {
		out[i] = poc.ProductID(fmt.Sprintf("%s%d", l.prefix, i+1))
	}
	return out
}

// lotTiming is one ingested lot's pass through the write path.
type lotTiming struct {
	latency  time.Duration // from the lot's due time until its list was registered
	dist     time.Duration // core.RunDistribution: every member's CommitTask
	register time.Duration // ProxyClient.RegisterList
	window   bool          // ingested during the measured window
}

// daemonConfig is the configuration desword-proxy and desword-participant
// run with when no flag is given.
type daemonConfig struct {
	client node.ClientConfig
	proxy  core.ProxyConfig
	crypto core.CryptoConfig
	events events.Config
}

// daemonDefaults registers the daemons' flag sets on a throwaway FlagSet:
// registration seeds every zero field with its package default.
func daemonDefaults() daemonConfig {
	var c daemonConfig
	fs := flag.NewFlagSet("defaults", flag.ContinueOnError)
	c.client.RegisterFlags(fs)
	c.proxy.RegisterFlags(fs)
	c.crypto.RegisterFlags(fs)
	c.events.RegisterFlags(fs)
	return c
}

// deployment is the whole system in one process over loopback TCP: one
// participant server per member of the chain, the proxy server in front of
// them, and the application's proxy client.
type deployment struct {
	ps        *poc.PublicParams
	graph     *supplychain.Graph
	members   map[poc.ParticipantID]*core.Member
	servers   []*node.ParticipantServer
	sinks     []*events.Sink
	directory *node.Directory
	addrs     []string
	proxy     *core.Proxy
	proxySrv  *node.ProxyServer
	client    *node.ProxyClient
	seams     *seams
	storeDir  string

	mu    sync.Mutex
	truth map[poc.ProductID][]poc.ParticipantID // guarded by mu
	lots  []lotTiming                           // guarded by mu
}

// deploy starts the servers of a fresh deployment on the plan's geometry.
// The lots and the warm-up are left to the caller.
func deploy(ctx context.Context, p plan, s *seams) (*deployment, error) {
	ps, err := poc.PSGen(p.params)
	if err != nil {
		return nil, err
	}
	g, parts := supplychain.LineGraph(pathLen)
	d := &deployment{
		ps:      ps,
		graph:   g,
		members: make(map[poc.ParticipantID]*core.Member, len(parts)),
		seams:   s,
		truth:   make(map[poc.ProductID][]poc.ParticipantID),
	}
	if err := d.start(ctx, p, parts); err != nil {
		return nil, errors.Join(err, d.close())
	}
	return d, nil
}

// start builds a member and a participant server for every participant,
// then the proxy, its server and the application's client, each configured
// as the daemons are by default.
func (d *deployment) start(ctx context.Context, p plan, parts map[poc.ParticipantID]*supplychain.Participant) error {
	cfg := daemonDefaults()
	if p.fileStores {
		dir, err := os.MkdirTemp("", "desword-benchmark-")
		if err != nil {
			return err
		}
		d.storeDir = dir
	}
	ids := make([]poc.ParticipantID, 0, len(parts))
	for id := range parts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	dir := make(map[poc.ParticipantID]string, len(ids))
	for _, id := range ids {
		crypto := cfg.crypto
		if p.fileStores {
			// Each daemon keeps its stores in its own directory.
			crypto.Store, crypto.StoreDir = "file", filepath.Join(d.storeDir, string(id))
		}
		opts, err := crypto.MemberOptions()
		if err != nil {
			return err
		}
		m := core.NewMember(d.ps, parts[id], opts...)
		d.members[id] = m
		sink, err := cfg.events.Build("participant:" + string(id))
		if err != nil {
			return err
		}
		d.sinks = append(d.sinks, sink)
		srv, err := node.ServeParticipant(ctx, "127.0.0.1:0", d.seams.wrapMember(m),
			node.WithTimeout(cfg.client.Timeout), node.WithEventSink(sink))
		if err != nil {
			return err
		}
		d.servers = append(d.servers, srv)
		dir[id] = srv.Addr()
		d.addrs = append(d.addrs, srv.Addr())
	}

	sink, err := cfg.events.Build("proxy")
	if err != nil {
		return err
	}
	d.sinks = append(d.sinks, sink)
	d.directory = node.DirectoryResolver(dir, cfg.client.Options()...)
	pxCfg := cfg.proxy
	pxCfg.EventSink = sink
	d.proxy = core.NewProxyWithConfig(d.ps, reputation.DefaultStrategy(), d.seams.wrapResolver(d.directory.Resolver()), pxCfg)
	// desword-proxy adds an admission gate only when its flags ask for one.
	if d.proxySrv, err = node.ServeProxy(ctx, "127.0.0.1:0", d.proxy,
		node.WithTimeout(cfg.client.Timeout), node.WithEventSink(sink)); err != nil {
		return err
	}
	d.client = node.NewProxyClient(d.proxySrv.Addr(), append(cfg.client.Options(), node.WithPoolSize(clients))...)
	return nil
}

// close stops every server and client of the deployment and removes its
// stores. It returns the first error.
func (d *deployment) close() error {
	var errs []error
	if d.client != nil {
		errs = append(errs, d.client.Close())
	}
	if d.proxySrv != nil {
		errs = append(errs, d.proxySrv.Close())
	}
	if d.directory != nil {
		errs = append(errs, d.directory.Close())
	}
	for _, srv := range d.servers {
		errs = append(errs, srv.Close())
	}
	for _, sink := range d.sinks {
		errs = append(errs, sink.Close())
	}
	if d.storeDir != "" {
		errs = append(errs, os.RemoveAll(d.storeDir))
	}
	return errors.Join(errs...)
}

// ingest runs one lot through the write path — core.RunDistribution (every
// member's CommitTask) followed by ProxyClient.RegisterList — and records it
// against its due time.
func (d *deployment) ingest(ctx context.Context, l lot, due time.Time, window bool) error {
	tags, err := supplychain.MintTags(l.prefix, l.n)
	if err != nil {
		return err
	}
	start := time.Now()
	dist, err := core.RunDistribution(d.ps, d.graph, d.members, "p0", tags, nil, supplychain.FirstChildSplitter, l.task)
	if errors.Is(err, zkedb.ErrDigestCollision) {
		return fmt.Errorf("lot %s: two product ids share a digest path at this geometry; the ids are fixed MintTags names, so change the lot's prefix: %w", l.task, err)
	}
	if err != nil {
		return fmt.Errorf("distributing lot %s: %w", l.task, err)
	}
	distributed := time.Now()
	if err := d.client.RegisterList(ctx, l.task, dist.List); err != nil {
		return fmt.Errorf("registering lot %s: %w", l.task, err)
	}
	registered := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	for id, path := range dist.Ground.Paths {
		d.truth[id] = path
	}
	d.lots = append(d.lots, lotTiming{
		latency:  registered.Sub(due),
		dist:     distributed.Sub(start),
		register: registered.Sub(distributed),
		window:   window,
	})
	return nil
}

// query runs one path query and checks the answer. It returns when the
// answer arrived.
func (d *deployment) query(ctx context.Context, id poc.ProductID, q core.Quality) (time.Time, error) {
	sent := time.Now()
	res, err := d.client.QueryPath(ctx, id, q)
	done := time.Now()
	d.seams.clientQuery(done.Sub(sent))
	if err != nil {
		return done, fmt.Errorf("querying %s: %w", id, err)
	}
	return done, d.check(id, res)
}

// check holds a query result to the distribution's ground truth: a complete
// walk of exactly the product's path, every hop's committed trace recovered,
// and no violation (every participant is honest).
func (d *deployment) check(id poc.ProductID, res *core.Result) error {
	d.mu.Lock()
	want, ok := d.truth[id]
	d.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("%w: %s belongs to no registered lot", errWrongAnswer, id)
	case !res.Complete || !slices.Equal(res.Path, want) || len(res.Violations) > 0:
		return fmt.Errorf("%w: %s: path %v (complete=%v, %d violations), want %v",
			errWrongAnswer, id, res.Path, res.Complete, len(res.Violations), want)
	}
	for _, v := range want {
		tr, ok := res.Traces[v]
		if !ok || tr.Product != id || !bytes.Equal(tr.Data, supplychain.DefaultTraceData(v, id)) {
			return fmt.Errorf("%w: %s: trace at %s not recovered", errWrongAnswer, id, v)
		}
	}
	return nil
}

// warmUp queries each product once over the client's connections; any
// failure fails the set-up.
func (d *deployment) warmUp(ctx context.Context, ids []poc.ProductID, q core.Quality) error {
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(ids) && errs[c] == nil; i += clients {
				_, errs[c] = d.query(ctx, ids[i], q)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// audit verifies every shard's hash-chained reputation history and that it
// holds one award per hop of every walk the proxy ran — nothing missing,
// nothing penalized.
func (d *deployment) audit() error {
	if _, err := reputation.VerifyShardChains(d.proxy.AuditShards()); err != nil {
		return fmt.Errorf("%w: audit chain: %w", errWrongAnswer, err)
	}
	var walks, entries uint64
	for _, s := range d.proxy.ShardStats() {
		walks += s.Queries
		entries += s.AuditEntries
	}
	if entries != walks*pathLen {
		return fmt.Errorf("%w: audit chain holds %d entries for %d walks of %d hops", errWrongAnswer, entries, walks, pathLen)
	}
	return nil
}

// lotTimings returns the lots ingested so far.
func (d *deployment) lotTimings() []lotTiming {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]lotTiming(nil), d.lots...)
}

// counters is a snapshot of the process-wide and per-layer counts a window
// is measured between.
type counters struct {
	cpu                         time.Duration // process user + system time
	allocBytes                  uint64
	gcCPU, totalCPU             float64 // runtime/metrics CPU classes, seconds
	cacheHits, cacheMisses      uint64  // DPOC proof cache, every member
	dials, reuses               uint64  // proxy→participant connection pools
	walks, coalesced            uint64  // proxy shard router
	clientNS, hopNS, memNS      int64   // seam time sums (traced runs)
	hopCalls, memCalls          int64
	ownVerifies, nonOwnVerifies int64
}

func (d *deployment) counters() counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.allocBytes = mem.TotalAlloc
	cpu := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(cpu)
	c.gcCPU, c.totalCPU = cpu[0].Value.Float64(), cpu[1].Value.Float64()
	// The poc package registers these families on first use; the warm-up
	// has used the cache by the time a window starts.
	c.cacheHits = obs.Default.Counter("desword_proofcache_hits", "").Value()
	c.cacheMisses = obs.Default.Counter("desword_proofcache_misses", "").Value()
	for _, addr := range d.addrs {
		if rc := d.directory.Client(addr); rc != nil {
			st := rc.Pool().Stats()
			c.dials += st.Dials
			c.reuses += st.Reuses
		}
	}
	for _, s := range d.proxy.ShardStats() {
		c.walks += s.Queries
		c.coalesced += s.Coalesced
	}
	if s := d.seams; s != nil {
		c.clientNS, c.hopNS, c.memNS = s.client.ns.Load(), s.hop.ns.Load(), s.member.ns.Load()
		c.hopCalls, c.memCalls = s.hop.calls.Load(), s.member.calls.Load()
		c.ownVerifies, c.nonOwnVerifies = s.ownVerifies.Load(), s.nonOwnVerifies.Load()
	}
	return c
}
