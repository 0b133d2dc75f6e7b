package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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

// This file implements experiment E12: the cost of the query flight
// recorder. Every completed query assembles one wide event (hop timings,
// scope counters, rep deltas) and every node request another; E12 runs the
// same TCP workload with recording off, with the in-memory ring only, and
// with the JSONL journal appending on both the proxy and every participant,
// and reports what that does to end-to-end query latency. The event is
// assembled either way (it rides the wire in the path result), so "off"
// isolates the sink cost: ring insertion, JSON encoding, journal writes.

// eventsMode selects one E12 measurement cell.
type eventsMode int

const (
	eventsOff eventsMode = iota
	eventsRing
	eventsJournal
)

func (m eventsMode) String() string {
	switch m {
	case eventsRing:
		return "ring"
	case eventsJournal:
		return "journal"
	default:
		return "off"
	}
}

// RunEvents deploys a linear chain over TCP and times good-path queries
// under the three recording modes. The outcome lands in the registry too
// (desword_bench_events_*), so -metrics-out snapshots carry it; overheads
// are in basis points because the gauges are integral.
func RunEvents(params zkedb.Params, n, reps int) (*Table, error) {
	t := &Table{
		Title: "E12: query flight recorder overhead (localhost TCP)",
		Note: fmt.Sprintf("chain of %d, mean over %d runs; journal mode appends one JSONL line per query and per node request (fsync=never)",
			n, reps),
		Headers: []string{"recording", "good query", "overhead", "events"},
	}
	ps, err := poc.PSGen(params)
	if err != nil {
		return nil, err
	}

	var baseline time.Duration
	for _, mode := range []eventsMode{eventsOff, eventsRing, eventsJournal} {
		elapsed, emitted, err := runEventsChain(ps, n, reps, mode)
		if err != nil {
			return nil, fmt.Errorf("bench: events %s: %w", mode, err)
		}
		overhead := "—"
		overheadPct := 0.0
		if mode == eventsOff {
			baseline = elapsed
		} else if baseline > 0 {
			overheadPct = (float64(elapsed) - float64(baseline)) / float64(baseline) * 100
			overhead = fmt.Sprintf("%+.2f%%", overheadPct)
		}
		t.AddRow(mode.String(), Ms(elapsed), overhead, fmt.Sprintf("%d", emitted))
		switch mode {
		case eventsOff:
			obs.Default.Gauge("desword_bench_events_off_us",
				"E12 mean good-query latency with no event sink, microseconds.").Set(elapsed.Microseconds())
		case eventsRing:
			obs.Default.Gauge("desword_bench_events_ring_us",
				"E12 mean good-query latency with the ring-only sink, microseconds.").Set(elapsed.Microseconds())
			obs.Default.Gauge("desword_bench_events_ring_overhead_bp",
				"E12 ring-only recording overhead in basis points (100 bp = 1%).").Set(int64(overheadPct * 100))
		case eventsJournal:
			obs.Default.Gauge("desword_bench_events_journal_us",
				"E12 mean good-query latency with ring plus JSONL journal, microseconds.").Set(elapsed.Microseconds())
			obs.Default.Gauge("desword_bench_events_journal_overhead_bp",
				"E12 journaling overhead in basis points (100 bp = 1%).").Set(int64(overheadPct * 100))
		}
	}
	return t, nil
}

// runEventsChain runs the E8-style workload once under one recording mode
// and reports the mean good-query latency plus the events the proxy-side
// sink captured (ring total; zero in off mode).
func runEventsChain(ps *poc.PublicParams, n, reps int, mode eventsMode) (good time.Duration, emitted uint64, err error) {
	g, parts := supplychain.LineGraph(n)
	members := make(map[poc.ParticipantID]*core.Member, n)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("ev", 1)
	if err != nil {
		return 0, 0, err
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, "task-ev")
	if err != nil {
		return 0, 0, err
	}

	// One sink per serving process stand-in: the proxy's and a shared one
	// for the participants, like a fleet where every daemon journals.
	var proxySink, partSink *events.Sink
	if mode != eventsOff {
		var base string
		if mode == eventsJournal {
			if base, err = os.MkdirTemp("", "desword-bench-events-*"); err != nil {
				return 0, 0, err
			}
			defer os.RemoveAll(base)
		}
		build := func(service string) (*events.Sink, error) {
			cfg := events.Config{RingSize: events.DefaultRingSize}
			if base != "" {
				cfg.Dir = filepath.Join(base, service)
			}
			return cfg.Build(service)
		}
		if proxySink, err = build("proxy"); err != nil {
			return 0, 0, err
		}
		defer proxySink.Close()
		if partSink, err = build("participant"); err != nil {
			return 0, 0, err
		}
		defer partSink.Close()
	}

	dir := make(map[poc.ParticipantID]string, n)
	servers := make([]*node.ParticipantServer, 0, n)
	defer func() {
		for _, s := range servers {
			if cerr := s.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	for id, m := range members {
		opts := []node.Option{}
		if partSink != nil {
			opts = append(opts, node.WithEventSink(partSink))
		}
		srv, serr := node.ServeParticipant(context.Background(), "127.0.0.1:0", m, opts...)
		if serr != nil {
			return 0, 0, serr
		}
		servers = append(servers, srv)
		dir[id] = srv.Addr()
	}
	directory := node.DirectoryResolver(dir)
	defer directory.Close()
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), directory.Resolver(),
		core.ProxyConfig{EventSink: proxySink})
	srvOpts := []node.Option{}
	if proxySink != nil {
		srvOpts = append(srvOpts, node.WithEventSink(proxySink))
	}
	proxySrv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy, srvOpts...)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := proxySrv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	client := node.NewProxyClient(proxySrv.Addr())
	defer client.Close()
	if rerr := client.RegisterList(context.Background(), "task-ev", dist.List); rerr != nil {
		return 0, 0, rerr
	}

	const product = poc.ProductID("ev1")
	// One untimed warmup fills the proof caches and dials the pools, so the
	// measured cells compare steady-state sink cost, not cold-start noise.
	if _, werr := client.QueryPath(context.Background(), product, core.Good); werr != nil {
		return 0, 0, werr
	}
	good = Measure(reps, func() {
		result, qerr := client.QueryPath(context.Background(), product, core.Good)
		if qerr != nil {
			panic(qerr)
		}
		if len(result.Path) != n {
			panic(fmt.Sprintf("query identified %d of %d hops", len(result.Path), n))
		}
	})
	if proxySink != nil {
		emitted = proxySink.Ring().Total() + partSink.Ring().Total()
	}
	return good, emitted, nil
}
