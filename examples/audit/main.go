// Customer-side reputation audit. DE-Sword's incentive only binds because
// reputation scores "can be publicly accessed by customers" (§II.C) — which
// presumes customers need not take the proxy's database on faith. This
// example shows the full trust chain: a deployment runs queries, a customer
// fetches the tamper-evident score history over TCP (the client verifies the
// hash chain before returning it), replays the scores independently — and
// then demonstrates that a doctored history is caught.
//
//	go run ./examples/audit [-timeout 5s] [-pool-size 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"desword/internal/core"
	"desword/internal/node"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

// clientCfg carries the shared transport flags (-timeout, -pool-size) so
// the example's client is tuned the same way the cmd binaries are.
var clientCfg node.ClientConfig

func main() {
	clientCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		os.Exit(1)
	}
}

func run() error {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		return err
	}
	graph := supplychain.FigureOneGraph()
	members := make(map[poc.ParticipantID]*core.Member)
	for _, v := range graph.Participants() {
		members[v] = core.NewMember(ps, supplychain.NewParticipant(v))
	}
	tags, err := supplychain.MintTags("unit", 6)
	if err != nil {
		return err
	}
	dist, err := core.RunDistribution(ps, graph, members, "v0", tags, nil,
		supplychain.RoundRobinSplitter, "audited-lot")
	if err != nil {
		return err
	}

	directory := make(map[poc.ParticipantID]string)
	for id, m := range members {
		srv, err := node.ServeParticipant(context.Background(), "127.0.0.1:0", m)
		if err != nil {
			return err
		}
		defer closeQuietly(srv)
		directory[id] = srv.Addr()
	}
	resolver := node.DirectoryResolver(directory)
	defer closeQuietly(resolver)
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver.Resolver(), core.ProxyConfig{})
	proxySrv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy)
	if err != nil {
		return err
	}
	defer closeQuietly(proxySrv)
	client := node.NewProxyClient(proxySrv.Addr(), clientCfg.Options()...)
	defer closeQuietly(client)
	if err := client.RegisterList(context.Background(), dist.TaskID, dist.List); err != nil {
		return err
	}

	// The proxy serves a few queries: two good products, one bad.
	queried := 0
	for id := range dist.Ground.Paths {
		quality := core.Good
		if queried == 2 {
			quality = core.Bad
		}
		if _, err := client.QueryPath(context.Background(), id, quality); err != nil {
			return err
		}
		queried++
		if queried == 3 {
			break
		}
	}
	fmt.Println("① proxy served 2 good-product queries and 1 bad-product query")

	// A customer fetches the audit chain; the client verifies every link
	// against the pinned head before handing it over.
	entries, err := client.AuditLog(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("② customer fetched and verified the audit chain: %d entries\n", len(entries))
	for _, entry := range entries {
		fmt.Printf("   #%-3d %-3s %+5.1f  product=%-6s  %s\n",
			entry.Seq, entry.Event.Participant, entry.Event.Delta,
			entry.Event.Product, entry.Event.Reason)
	}

	// Independent replay: recompute the score table from audited events and
	// compare with the published table.
	replayed := reputation.ReplayScores(entries)
	published, err := client.Scores(context.Background())
	if err != nil {
		return err
	}
	for v, want := range published {
		if replayed[v] != want {
			return fmt.Errorf("replayed score for %s (%v) differs from published (%v)", v, replayed[v], want)
		}
	}
	fmt.Printf("③ replayed scores match the published table for all %d participants\n", len(published))

	// A corrupt proxy rewrites history: flip a penalty into a reward. The
	// chain pins every byte, so the verification the customer runs fails.
	head, count := proxy.Ledger().Head()
	doctored := make([]reputation.AuditEntry, len(entries))
	copy(doctored, entries)
	for i := range doctored {
		if doctored[i].Event.Delta < 0 {
			doctored[i].Event.Delta = +1
			doctored[i].Event.Reason = "identified on good product path"
			break
		}
	}
	if err := reputation.VerifyAuditChain(doctored, head, count); err == nil {
		return fmt.Errorf("doctored history unexpectedly verified")
	} else {
		fmt.Printf("④ doctored history REJECTED by the customer's verifier: %v\n", err)
	}
	fmt.Println("⑤ the public score table is auditable end to end")
	return nil
}

type closer interface{ Close() error }

func closeQuietly(c closer) {
	if err := c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "audit: closing server:", err)
	}
}
