package bench

import (
	"context"
	"fmt"
	"time"

	"desword/internal/core"
	"desword/internal/node"
	"desword/internal/obs"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/telemetry"
	"desword/internal/zkedb"
)

// This file implements experiment E11: the cost of continuous telemetry
// collection. The collector walks the whole metrics registry on every tick
// (atomic loads under the registry lock) and the fleet monitor adds a wire
// round trip per peer per poll — E11 measures what that does to end-to-end
// query latency by running the same TCP workload with telemetry off and with
// an aggressively fast collector+monitor loop, far faster than any production
// interval.

// telemetryBenchInterval is deliberately aggressive: production defaults
// tick every 5s, the bench every 250ms — 20× the deployed collection and
// poll frequency — so the measured overhead is an upper bound on the
// deployed cost while staying a realistic operating point (sub-100ms polls
// re-marshal every peer's full registry faster than any dashboard reads it).
const telemetryBenchInterval = 250 * time.Millisecond

// RunTelemetry deploys a linear chain over TCP and times good-path queries
// with the telemetry pipeline disabled, then enabled at the punishing bench
// interval. The result lands in the registry too (desword_bench_telemetry_*),
// so -metrics-out snapshots carry it.
func RunTelemetry(params zkedb.Params, n, reps int) (*Table, error) {
	t := &Table{
		Title: "E11: telemetry collection overhead (localhost TCP)",
		Note: fmt.Sprintf("chain of %d, mean over %d runs; collector+monitor ticking every %s vs production default %s",
			n, reps, telemetryBenchInterval, telemetry.DefaultInterval),
		Headers: []string{"telemetry", "good query", "overhead"},
	}
	ps, err := poc.PSGen(params)
	if err != nil {
		return nil, err
	}

	baseline, err := runTelemetryChain(ps, n, reps, false)
	if err != nil {
		return nil, fmt.Errorf("bench: telemetry baseline: %w", err)
	}
	telemetered, err := runTelemetryChain(ps, n, reps, true)
	if err != nil {
		return nil, fmt.Errorf("bench: telemetry enabled: %w", err)
	}

	overheadPct := 0.0
	if baseline > 0 {
		overheadPct = (float64(telemetered) - float64(baseline)) / float64(baseline) * 100
	}
	t.AddRow("off", Ms(baseline), "—")
	t.AddRow(fmt.Sprintf("on (%s ticks)", telemetryBenchInterval), Ms(telemetered),
		fmt.Sprintf("%+.2f%%", overheadPct))

	// Publish the outcome as registry series so BENCH_telemetry.json records
	// it: latencies in microseconds, overhead in basis points (the gauges
	// are integral).
	obs.Default.Gauge("desword_bench_telemetry_baseline_us",
		"E11 mean good-query latency without telemetry, microseconds.").Set(baseline.Microseconds())
	obs.Default.Gauge("desword_bench_telemetry_enabled_us",
		"E11 mean good-query latency with 250ms telemetry ticks, microseconds.").Set(telemetered.Microseconds())
	obs.Default.Gauge("desword_bench_telemetry_overhead_bp",
		"E11 telemetry overhead in basis points (100 bp = 1%).").Set(int64(overheadPct * 100))
	return t, nil
}

// runTelemetryChain runs the E8-style workload once, optionally with the full
// telemetry pipeline (collector + runtime sampler + SLO engine + fleet
// monitor over the wire) running at the bench interval.
func runTelemetryChain(ps *poc.PublicParams, n, reps int, telemetered bool) (good time.Duration, err error) {
	g, parts := supplychain.LineGraph(n)
	members := make(map[poc.ParticipantID]*core.Member, n)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("tel", 1)
	if err != nil {
		return 0, err
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, "task-tel")
	if err != nil {
		return 0, err
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
		srv, serr := node.ServeParticipant(context.Background(), "127.0.0.1:0", m)
		if serr != nil {
			return 0, serr
		}
		servers = append(servers, srv)
		dir[id] = srv.Addr()
	}
	directory := node.DirectoryResolver(dir)
	defer directory.Close()
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), directory.Resolver(), core.ProxyConfig{})
	proxySrv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := proxySrv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	client := node.NewProxyClient(proxySrv.Addr())
	defer client.Close()
	if rerr := client.RegisterList(context.Background(), "task-tel", dist.List); rerr != nil {
		return 0, rerr
	}

	if telemetered {
		objectives, perr := telemetry.ParseSLO("p99(desword_query_latency_seconds)<10s")
		if perr != nil {
			return 0, perr
		}
		collector := telemetry.NewCollector(obs.Default, "bench",
			telemetry.WithInterval(telemetryBenchInterval),
			telemetry.WithSLO(telemetry.NewEngine(objectives, 0)))
		collector.Start()
		defer collector.Stop()
		monitor := telemetry.NewMonitor(
			telemetry.WithPollInterval(telemetryBenchInterval),
			telemetry.WithObjectives(objectives))
		monitor.AddLocal("bench", collector)
		proxyClient := node.NewProxyClient(proxySrv.Addr())
		defer proxyClient.Close()
		monitor.AddPeer("proxy", proxyClient.Telemetry)
		for id, addr := range dir {
			rc := node.NewResponderClient(addr)
			defer rc.Close()
			monitor.AddPeer(string(id), rc.Telemetry)
		}
		monitor.Start()
		defer monitor.Stop()
	}

	const product = poc.ProductID("tel1")
	good = Measure(reps, func() {
		result, qerr := client.QueryPath(context.Background(), product, core.Good)
		if qerr != nil {
			panic(qerr)
		}
		if len(result.Path) != n {
			panic(fmt.Sprintf("query identified %d of %d hops", len(result.Path), n))
		}
	})
	return good, nil
}
