// Targeted product recall over a real TCP deployment, with multiple
// distribution tasks (§IV.D): two production lots flow through the same
// chain from different initial participants; the proxy keeps one POC-queue
// per initial participant and locates the right lot for each queried
// product before recalling everything downstream of the failure point.
//
// All parties — the proxy and every participant — run as TCP servers on
// localhost, exchanging the same wire messages a distributed deployment
// would.
//
//	go run ./examples/recall [-timeout 5s] [-pool-size 4]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"desword/internal/apps"
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
		fmt.Fprintln(os.Stderr, "recall:", err)
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

	// Two distribution tasks: lot A from v0, lot B from v1 (the two initial
	// participants of Figure 1).
	tagsA, err := supplychain.MintTags("lotA-", 6)
	if err != nil {
		return err
	}
	distA, err := core.RunDistribution(ps, graph, members, "v0", tagsA, nil,
		supplychain.RoundRobinSplitter, "task-lotA")
	if err != nil {
		return err
	}
	tagsB, err := supplychain.MintTags("lotB-", 6)
	if err != nil {
		return err
	}
	distB, err := core.RunDistribution(ps, graph, members, "v1", tagsB, nil,
		supplychain.RoundRobinSplitter, "task-lotB")
	if err != nil {
		return err
	}
	fmt.Println("① two distribution tasks executed: lotA from v0, lotB from v1")

	// Deploy every participant as a TCP server and the proxy on top.
	directory := make(map[poc.ParticipantID]string, len(members))
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
	fmt.Printf("② %d participant servers + proxy server live on localhost\n", len(directory))

	// Each initial participant submits its task's POC list over the wire;
	// the proxy adds (ps, POC_v̄) to the submitting initial's POC-queue.
	if err := client.RegisterList(context.Background(), distA.TaskID, distA.List); err != nil {
		return err
	}
	if err := client.RegisterList(context.Background(), distB.TaskID, distB.List); err != nil {
		return err
	}
	fmt.Println("③ both POC lists registered; POC-queues populated for v0 and v1")

	// A defect report names lotB-2. The proxy must first discover which lot
	// (task) the product belongs to by sweeping the initial participants'
	// POC-queues, then walk that lot's POC list.
	const defective = poc.ProductID("lotB-2")
	result, err := client.QueryPath(context.Background(), defective, core.Bad)
	if err != nil {
		return err
	}
	if result.TaskID != distB.TaskID {
		return fmt.Errorf("product resolved to %q, want %q", result.TaskID, distB.TaskID)
	}
	fmt.Printf("④ %s located in %s via POC-queues; verified path %v\n", defective, result.TaskID, result.Path)
	failurePoint := result.Path[len(result.Path)-1]
	fmt.Printf("⑤ failure point: %s (last processor); recalling lotB products that reached it\n", failurePoint)

	var candidates []poc.ProductID
	for id := range distB.Ground.Paths {
		if id != defective {
			candidates = append(candidates, id)
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	report, err := apps.TargetedRecall(context.Background(), client, failurePoint, candidates)
	if err != nil {
		return err
	}
	recalled := make([]poc.ProductID, 0, len(report.Recalled))
	for _, id := range candidates {
		if _, ok := report.Recalled[id]; ok {
			recalled = append(recalled, id)
		}
	}
	fmt.Printf("   recall notice issued for %d products: %v\n", len(recalled), recalled)

	// Confirm lot isolation: lotA products resolve to task-lotA and are
	// unaffected.
	probe := poc.ProductID("lotA-1")
	res, err := client.QueryPath(context.Background(), probe, core.Good)
	if err != nil {
		return err
	}
	if res.TaskID != distA.TaskID {
		return fmt.Errorf("lot isolation broken: %s resolved to %q", probe, res.TaskID)
	}
	fmt.Printf("⑥ lot isolation confirmed: %s resolves to %s, untouched by the recall\n", probe, res.TaskID)

	scores, err := client.Scores(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("⑦ public reputation table now holds %d entries (fetched over the wire)\n", len(scores))
	return nil
}

type closer interface{ Close() error }

func closeQuietly(c closer) {
	if err := c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "recall: closing server:", err)
	}
}
