package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/zkedb"
)

// options are one run's settings.
type options struct {
	seed      int64
	seconds   float64 // the measured window
	trace     bool
	benchtime string // per leaf of the traced run's ledger
	// memberHook, set only by tests, runs after every member call with its
	// duration.
	memberHook func(time.Duration)
}

func (o options) window() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// workload is one traffic mix: the geometry it runs on and the plan it
// derives from a run's options.
type workload struct {
	name   string
	params zkedb.Params
	plan   func(o options) plan
}

// plan is everything a workload does, derived from the seed and window
// before anything runs.
type plan struct {
	params     zkedb.Params
	fileStores bool
	lots       []lot // ingested during set-up
	warm       []poc.ProductID
	quality    core.Quality
	// load drives the measured window; it returns once every request it
	// issued has been answered.
	load func(ctx context.Context, d *deployment, rec *recorder)
	// post lists products queried after the window, each of which must
	// resolve correctly.
	post []poc.ProductID
}

// workloads are the benchmark's traffic mixes; README.md gives the reasoning
// behind each.
var workloads = []workload{
	{name: "recall-hot", params: zkedb.DefaultParams(), plan: recallHot},
	{name: "lookup-cold", params: zkedb.TestParams(), plan: lookupCold},
	{name: "ingest-mixed", params: zkedb.TestParams(), plan: ingestMixed},
}

// The shape of the workloads. lookup-cold's working set and ingest-mixed's
// lot count are given at the default window and scale with it.
const (
	coldWarm          = 64
	coldSetAtWindow   = 4 * poc.DefaultProofCacheSize
	mixedBase         = 64
	mixedLotSize      = 16
	mixedLotsAtWindow = 8
)

// recallHot is a regulator recall: bad-quality queries over two 16-product
// lots that both start at p0, on the paper's geometry. Every proof is a
// proof-cache hit after the warm pass, so what is left per query is
// proxy-side verification.
func recallHot(o options) plan {
	lots := []lot{{"recall-a", "recall-a-", 16}, {"recall-b", "recall-b-", 16}}
	ids := append(lots[0].ids(), lots[1].ids()...)
	order := shuffled(ids, o.seed)
	return plan{
		lots:    lots,
		warm:    ids,
		quality: core.Bad,
		load: func(ctx context.Context, d *deployment, rec *recorder) {
			closedLoop(ctx, d, rec, order, core.Bad, closeAfter(o.window()))
		},
	}
}

// lookupCold is first-time consumer lookups: good-quality queries touring a
// working set four times the size of the proof cache at the default window,
// and never under twice its size, so the cache never holds the next product
// and every participant proves every hop afresh.
func lookupCold(o options) plan {
	measured := max(2*poc.DefaultProofCacheSize, int(math.Round(coldSetAtWindow*o.seconds/defaultSeconds)))
	l := lot{"cold", "cold-", coldWarm + measured}
	order := shuffled(l.ids(), o.seed)
	return plan{
		lots:    []lot{l},
		warm:    order[:coldWarm],
		quality: core.Good,
		load: func(ctx context.Context, d *deployment, rec *recorder) {
			closedLoop(ctx, d, rec, order[coldWarm:], core.Good, closeAfter(o.window()))
		},
	}
}

// ingestMixed is writes beside reads: good-quality lookups over a cache-hot
// base lot while a writer ingests new lots back to back — file-backed
// members commit each (a commit re-aggregates the member's whole trace
// database) and p0 registers it. The window is the writer's: reads run
// until the last lot is registered, so every read meets the write path and
// a fixed amount of state is built whatever the host's speed.
func ingestMixed(o options) plan {
	base := lot{"base", "base-", mixedBase}
	n := max(1, int(math.Round(mixedLotsAtWindow*o.seconds/defaultSeconds)))
	rng := rand.New(rand.NewSource(o.seed))
	lots := make([]lot, n)
	post := make([]poc.ProductID, n)
	for k := range lots {
		lots[k] = lot{fmt.Sprintf("ingest-%d", k+1), fmt.Sprintf("ingest-%d-", k+1), mixedLotSize}
		post[k] = lots[k].ids()[rng.Intn(mixedLotSize)]
	}
	order := shuffled(base.ids(), o.seed)
	return plan{
		fileStores: true,
		lots:       []lot{base},
		warm:       base.ids(),
		quality:    core.Good,
		post:       post,
		load: func(ctx context.Context, d *deployment, rec *recorder) {
			written := make(chan struct{})
			go func() {
				defer close(written)
				for _, l := range lots {
					rec.done(time.Time{}, d.ingest(ctx, l, time.Now(), true))
				}
			}()
			closedLoop(ctx, d, rec, order, core.Good, written)
		},
	}
}

// closeAfter returns a channel that is closed once d has passed.
func closeAfter(d time.Duration) <-chan struct{} {
	c := make(chan struct{})
	time.AfterFunc(d, func() { close(c) })
	return c
}

// shuffled returns a seeded permutation of ids; the seed changes query order
// and nothing else.
func shuffled(ids []poc.ProductID, seed int64) []poc.ProductID {
	out := append([]poc.ProductID(nil), ids...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// tally counts a run's operations. Latencies are kept for queries answered
// correctly; every failed operation counts against error_ratio.
type tally struct {
	attempted, failed int
	wrong             []error
	latencies, lags   []time.Duration
	lastAnswer        time.Time // when the last correct query answer arrived
}

// recorder collects a tally from concurrent load generators.
type recorder struct {
	mu sync.Mutex
	t  tally // guarded by mu
}

// done records one operation. A zero due marks one whose latency is not a
// query latency.
func (r *recorder) done(due time.Time, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t.attempted++
	switch {
	case errors.Is(err, errWrongAnswer):
		r.t.failed++
		r.t.wrong = append(r.t.wrong, err)
	case err != nil:
		r.t.failed++
	case !due.IsZero():
		r.t.lastAnswer = time.Now()
		r.t.latencies = append(r.t.latencies, r.t.lastAnswer.Sub(due))
	}
}

// lag records how long a client took between an answer and its next send.
func (r *recorder) lag(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t.lags = append(r.t.lags, d)
}

// snapshot returns a copy of the tally so far.
func (r *recorder) snapshot() tally {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.t
	t.wrong = append([]error(nil), t.wrong...)
	t.latencies = append([]time.Duration(nil), t.latencies...)
	t.lags = append([]time.Duration(nil), t.lags...)
	return t
}

// closedLoop drives the window with clients concurrent clients, each
// touring its own half of ids, until stop is closed. A client sends its next
// query as soon as the previous answer is checked, so the system is always
// exactly as busy as its clients can keep it: no queue builds up to amplify
// the host's own speed drift. A client's lag is its time from an answer to
// its next send.
func closedLoop(ctx context.Context, d *deployment, rec *recorder, ids []poc.ProductID, q core.Quality, stop <-chan struct{}) {
	var wg sync.WaitGroup
	for c := range clients {
		own := ids[c*len(ids)/clients : (c+1)*len(ids)/clients]
		wg.Add(1)
		go func() {
			defer wg.Done()
			answered := time.Now()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sent := time.Now()
				rec.lag(sent.Sub(answered))
				var err error
				answered, err = d.query(ctx, own[i%len(own)], q)
				rec.done(sent, err)
			}
		}()
	}
	wg.Wait()
}

// Set-up repeats, so that setup_s is a median, while the set-ups so far
// leave room for another within setupBudget.
const (
	maxSetups   = 3
	setupBudget = 6 * time.Second
)

// setUp builds the deployment the window runs on: public parameters,
// members, servers, the set-up lots, and the warm-up pass. It returns the
// last deployment built and how long each set-up took.
func setUp(ctx context.Context, p plan, s *seams) (*deployment, []time.Duration, error) {
	var took []time.Duration
	var total time.Duration
	for {
		start := time.Now()
		d, err := setUpOnce(ctx, p, s)
		if err != nil {
			return nil, nil, err
		}
		dt := time.Since(start)
		took = append(took, dt)
		total += dt
		if len(took) == maxSetups || total+dt > setupBudget {
			return d, took, nil
		}
		if err := d.close(); err != nil {
			return nil, nil, err
		}
	}
}

func setUpOnce(ctx context.Context, p plan, s *seams) (*deployment, error) {
	d, err := deploy(ctx, p, s)
	if err != nil {
		return nil, err
	}
	for _, l := range p.lots {
		if err == nil {
			err = d.ingest(ctx, l, time.Now(), false)
		}
	}
	if err == nil {
		err = d.warmUp(ctx, p.warm, p.quality)
	}
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	return d, nil
}

// runWorkload sets the workload up, measures its window, checks the system's
// state afterwards, and — in a traced run — times the leaf layers.
func runWorkload(ctx context.Context, w workload, o options) (r record, err error) {
	p := w.plan(o)
	p.params = w.params
	var s *seams
	if o.trace || o.memberHook != nil {
		s = &seams{hook: o.memberHook}
	}
	d, setups, err := setUp(ctx, p, s)
	if err != nil {
		return record{}, err
	}
	defer func() {
		if cerr := d.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	rec := &recorder{}
	before := d.counters()
	start := time.Now()
	p.load(ctx, d, rec)
	elapsed := time.Since(start)
	after := d.counters()
	win := rec.snapshot()
	lots := d.lotTimings()

	for _, id := range p.post {
		_, qerr := d.query(ctx, id, core.Good)
		rec.done(time.Time{}, qerr)
	}
	rec.done(time.Time{}, d.audit())
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	final := rec.snapshot()
	r = record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: thisHost()}
	r.Attempted, r.Failed = final.attempted, final.failed
	r.Correct = len(final.wrong) == 0
	r.wrong = final.wrong
	m := metrics{}
	r.Metrics = m

	durations := make([]float64, len(setups))
	for i, t := range setups {
		durations[i] = t.Seconds()
	}
	var lotLatency, lotDist, lotRegister []float64
	var windowDist time.Duration
	queries := win.attempted
	for _, l := range lots {
		lotLatency = append(lotLatency, ms(l.latency))
		lotDist = append(lotDist, ms(l.dist))
		lotRegister = append(lotRegister, ms(l.register))
		if l.window {
			windowDist += l.dist
			queries--
		}
	}
	m.set("setup_s", median(durations))
	m.set("throughput_qps", float64(len(win.latencies))/win.lastAnswer.Sub(start).Seconds())
	m.set("query_p50_ms", ms(percentile(win.latencies, 0.50)))
	m.set("query_p99_ms", ms(percentile(win.latencies, 0.99)))
	m.set("ingest_lot_p50_ms", median(lotLatency))
	m.set("live_heap_mb", float64(mem.HeapAlloc)/(1<<20))

	nq := float64(queries)
	coreSeconds := elapsed.Seconds() * float64(runtime.GOMAXPROCS(0))
	m.set("error_ratio", ratio(float64(final.failed), float64(final.attempted)))
	m.set("poc.proofcache.hit_ratio", ratio(float64(after.cacheHits-before.cacheHits),
		float64(after.cacheHits-before.cacheHits+after.cacheMisses-before.cacheMisses)))
	m.set("node.pool.reuse_ratio", ratio(float64(after.reuses-before.reuses),
		float64(after.reuses-before.reuses+after.dials-before.dials)))
	m.set("core.distribution.lot_ms", median(lotDist))
	m.set("core.distribution.busy_share", windowDist.Seconds()/coreSeconds)
	m.set("node.register_list_ms", median(lotRegister))
	m.set("process.cpu_ms_per_query", ratio(ms(after.cpu-before.cpu), nq))
	m.set("runtime.alloc_kb_per_query", ratio(float64(after.allocBytes-before.allocBytes)/1024, nq))
	m.set("runtime.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
	m.set("core.router.coalesced_ratio", ratio(float64(after.coalesced-before.coalesced),
		float64(after.walks-before.walks+after.coalesced-before.coalesced)))
	m.set("harness.gen_lag_p99_ms", ms(percentile(win.lags, 0.99)))
	if !o.trace {
		return r, nil
	}

	ledger, overhead, err := runLedger(ctx, d.ps, o.benchtime)
	if err != nil {
		return record{}, err
	}
	for _, l := range leaves {
		m.set(l+".ns_op", ledger[l].ns)
		m.set(l+".allocs_op", ledger[l].allocs)
	}
	clientNS := float64(after.clientNS - before.clientNS)
	hopNS := float64(after.hopNS - before.hopNS)
	memNS := float64(after.memNS - before.memNS)
	hopCalls := float64(after.hopCalls - before.hopCalls)
	selfNS := clientNS - hopNS
	verifyNS := float64(after.ownVerifies-before.ownVerifies)*ledger["poc.verify_own"].ns +
		float64(after.nonOwnVerifies-before.nonOwnVerifies)*ledger["zkedb.verify_nonown"].ns
	m.set("core.proxy.self_us", us(ratio(selfNS, nq)))
	m.set("core.proxy.busy_share", selfNS/1e9/coreSeconds)
	m.set("core.proxy.verify_est_us", us(ratio(verifyNS, nq)))
	m.set("core.proxy.residual_us", us(ratio(selfNS-verifyNS, nq)))
	m.set("core.member.query_us", us(ratio(memNS, float64(after.memCalls-before.memCalls))))
	m.set("core.member.busy_share", memNS/1e9/coreSeconds)
	m.set("node.responder_client.query_us", us(ratio(hopNS, hopCalls)))
	m.set("node.responder_client.calls_per_query", ratio(hopCalls, nq))
	m.set("wire.self_us", us(ratio(hopNS-memNS, hopCalls)))
	seamCalls := nq + hopCalls + float64(after.memCalls-before.memCalls)
	m.set("harness.trace_overhead_pct", 100*ratio(seamCalls*overhead.ns, clientNS))
	return r, nil
}
