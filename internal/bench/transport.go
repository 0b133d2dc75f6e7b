package bench

import (
	"context"
	"fmt"
	"time"

	"desword/internal/core"
	"desword/internal/node"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

// This file implements experiment E9: the transport ablation. It deploys the
// same linear chain twice — once queried through pooled persistent
// connections, once with a fresh dial per request — and compares full
// path-query wall time. The delta isolates what connection reuse buys the
// walk: a query over an n-hop chain performs n+1 round trips (client→proxy
// plus one per participant), so dial-per-request pays n+1 TCP handshakes per
// query that the pool pays only on first contact.

// RunTransport times path queries over TCP with pooled versus
// dial-per-request transports and reports the connection-reuse ratio the
// pool achieved.
func RunTransport(params zkedb.Params, lengths []int, reps int) (*Table, error) {
	t := &Table{
		Title: "E9: pooled vs dial-per-request transport (localhost TCP)",
		Note: fmt.Sprintf("q=%d h=%d, good query over a linear chain, mean over %d runs; reuse = reuses/(dials+reuses) across all participant pools",
			params.Q, params.H, reps),
		Headers: []string{"path length", "pooled", "dial-per-request", "speedup", "reuse"},
	}
	ps, err := poc.PSGen(params)
	if err != nil {
		return nil, err
	}
	for _, n := range lengths {
		pooled, dialed, reuse, err := runTransportChain(ps, n, reps)
		if err != nil {
			return nil, fmt.Errorf("bench: transport chain of %d: %w", n, err)
		}
		t.AddRow(fmt.Sprint(n), Ms(pooled), Ms(dialed),
			fmt.Sprintf("%.2fx", float64(dialed)/float64(pooled)),
			fmt.Sprintf("%.0f%%", reuse*100))
	}
	return t, nil
}

func runTransportChain(ps *poc.PublicParams, n, reps int) (pooled, dialed time.Duration, reuse float64, err error) {
	g, parts := supplychain.LineGraph(n)
	members := make(map[poc.ParticipantID]*core.Member, n)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("tr", 1)
	if err != nil {
		return 0, 0, 0, err
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, "task-transport")
	if err != nil {
		return 0, 0, 0, err
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
			return 0, 0, 0, serr
		}
		servers = append(servers, srv)
		dir[id] = srv.Addr()
	}

	const product = poc.ProductID("tr1")
	// Each mode gets its own proxy stack so pools never bleed across modes.
	run := func(opts ...node.Option) (perQuery time.Duration, dirStats node.PoolStats, err error) {
		directory := node.DirectoryResolver(dir, opts...)
		defer directory.Close()
		proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), directory.Resolver(), core.ProxyConfig{})
		proxySrv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy)
		if err != nil {
			return 0, node.PoolStats{}, err
		}
		defer func() {
			if cerr := proxySrv.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		client := node.NewProxyClient(proxySrv.Addr(), opts...)
		defer client.Close()
		// rerr, not err: the named result is read by the deferred Close
		// handler above (desword/shadow).
		if rerr := client.RegisterList(context.Background(), "task-transport", dist.List); rerr != nil {
			return 0, node.PoolStats{}, rerr
		}
		perQuery = Measure(reps, func() {
			result, qerr := client.QueryPath(context.Background(), product, core.Good)
			if qerr != nil {
				panic(qerr)
			}
			if len(result.Path) != n {
				panic(fmt.Sprintf("query identified %d of %d hops", len(result.Path), n))
			}
		})
		for _, addr := range dir {
			if c := directory.Client(addr); c != nil {
				s := c.Pool().Stats()
				dirStats.Dials += s.Dials
				dirStats.Reuses += s.Reuses
			}
		}
		return perQuery, dirStats, nil
	}

	pooled, stats, err := run()
	if err != nil {
		return 0, 0, 0, err
	}
	if total := stats.Dials + stats.Reuses; total > 0 {
		reuse = float64(stats.Reuses) / float64(total)
	}
	dialed, _, err = run(node.WithDialPerRequest())
	if err != nil {
		return 0, 0, 0, err
	}
	return pooled, dialed, reuse, nil
}
