// Quickstart: the smallest end-to-end DE-Sword run.
//
// It wires the paper's Figure 1 supply chain (10 participants, two initial,
// four leaf), distributes 8 RFID-tagged products from v0, has every involved
// participant commit its RFID-traces into a POC list for the proxy, then
// runs one verifiable good-product path query and prints the recovered path
// information and the resulting reputation scores.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"os"

	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. The proxy generates the public parameter ps. Examples use the small
	// test geometry so they finish in seconds; production deployments use
	// zkedb.DefaultParams() (q=16, h=32, 128-bit ids).
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		return err
	}
	fmt.Println("① proxy generated public parameter ps")

	// 2. Build the Figure 1 supply chain and its participant runtimes.
	graph := supplychain.FigureOneGraph()
	members := make(map[poc.ParticipantID]*core.Member)
	for _, v := range graph.Participants() {
		members[v] = core.NewMember(ps, supplychain.NewParticipant(v))
	}
	fmt.Printf("② supply chain ready: %d participants, initials %v, leaves %v\n",
		len(graph.Participants()), graph.Initials(), graph.Leaves())

	// 3. Distribution phase: 8 tagged products flow from v0 to the leaves;
	// every participant on a product's path reads its tag and records an
	// RFID-trace; the involved participants commit POCs and assemble the
	// POC list.
	tags, err := supplychain.MintTags("id", 8)
	if err != nil {
		return err
	}
	dist, err := core.RunDistribution(ps, graph, members, "v0", tags, nil,
		supplychain.RoundRobinSplitter, "quickstart-task")
	if err != nil {
		return err
	}
	fmt.Printf("③ distribution task done: %d products, POC list with %d POCs and %d pairs\n",
		len(dist.Ground.Paths), len(dist.List.Participants()), len(dist.List.Pairs))

	// 4. The initial participant submits the POC list to the proxy.
	resolver := func(v poc.ParticipantID) (core.Responder, error) { return members[v], nil }
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, core.ProxyConfig{})
	if err := proxy.RegisterList(dist.TaskID, dist.List); err != nil {
		return err
	}
	fmt.Println("④ POC list registered at the proxy")

	// 5. Query phase: a supply-chain application asks for the path of id1,
	// which the quality check classified as good.
	result, err := proxy.QueryPath(context.Background(), "id1", core.Good)
	if err != nil {
		return err
	}
	fmt.Printf("⑤ good-product path query for id1 (task %s):\n", result.TaskID)
	for i, v := range result.Path {
		trace := result.Traces[v]
		fmt.Printf("   hop %d: %-3s trace=%q\n", i+1, v, trace.Data)
	}
	fmt.Printf("   complete=%v violations=%d\n", result.Complete, len(result.Violations))

	// 6. The double-edged award: everyone on the good path earned a
	// positive, publicly visible reputation score.
	fmt.Println("⑥ public reputation scores after the query:")
	for _, v := range proxy.Ledger().Ranking() {
		fmt.Printf("   %-3s %+.1f\n", v, proxy.Ledger().Score(v))
	}
	return nil
}
