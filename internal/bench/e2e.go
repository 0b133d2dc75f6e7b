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

// This file implements experiment E8: end-to-end good/bad product path query
// latency over a real TCP deployment as a function of path length — the
// whole-protocol cost a supply-chain application observes.

// RunE2E deploys linear chains of the given lengths on localhost and times
// full path queries through proxy and participant servers.
func RunE2E(params zkedb.Params, lengths []int, reps int) (*Table, error) {
	t := &Table{
		Title: "E8: end-to-end path query latency over TCP (localhost)",
		Note: fmt.Sprintf("q=%d h=%d, one product per chain, mean over %d runs; grows linearly with path length",
			params.Q, params.H, reps),
		Headers: []string{"path length", "good query", "bad query", "proof bytes/hop (own)"},
	}
	ps, err := poc.PSGen(params)
	if err != nil {
		return nil, err
	}
	for _, n := range lengths {
		good, bad, proofBytes, err := runE2EChain(ps, n, reps)
		if err != nil {
			return nil, fmt.Errorf("bench: e2e chain of %d: %w", n, err)
		}
		t.AddRow(fmt.Sprint(n), Ms(good), Ms(bad), KB(proofBytes))
	}
	return t, nil
}

func runE2EChain(ps *poc.PublicParams, n, reps int) (good, bad time.Duration, proofBytes int, err error) {
	g, parts := supplychain.LineGraph(n)
	members := make(map[poc.ParticipantID]*core.Member, n)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("e2e", 1)
	if err != nil {
		return 0, 0, 0, err
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, "task-e2e")
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
	directory := node.DirectoryResolver(dir)
	defer directory.Close()
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), directory.Resolver(), core.ProxyConfig{})
	proxySrv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() {
		if cerr := proxySrv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	client := node.NewProxyClient(proxySrv.Addr())
	defer client.Close()
	// rerr, not err: the named result is read by the deferred Close
	// handler above, and shadowing it here would be a footgun
	// (desword/shadow).
	if rerr := client.RegisterList(context.Background(), "task-e2e", dist.List); rerr != nil {
		return 0, 0, 0, rerr
	}

	const product = poc.ProductID("e2e1")
	good = Measure(reps, func() {
		result, qerr := client.QueryPath(context.Background(), product, core.Good)
		if qerr != nil {
			panic(qerr)
		}
		if len(result.Path) != n {
			panic(fmt.Sprintf("good query identified %d of %d hops", len(result.Path), n))
		}
	})
	bad = Measure(reps, func() {
		result, qerr := client.QueryPath(context.Background(), product, core.Bad)
		if qerr != nil {
			panic(qerr)
		}
		if len(result.Path) != n {
			panic(fmt.Sprintf("bad query identified %d of %d hops", len(result.Path), n))
		}
	})

	proof, err := members["p0"].Query(context.Background(), "task-e2e", product, core.Good)
	if err != nil {
		return 0, 0, 0, err
	}
	proofBytes, err = proof.Proof.ZK.Size()
	if err != nil {
		return 0, 0, 0, err
	}
	return good, bad, proofBytes, nil
}
