// Counterfeit detection — the pharmaceutical scenario of the paper's
// introduction: ~10% of the drug market is counterfeit, and regulators need
// the complete, verifiable history of every package.
//
// Two counterfeiting patterns are exercised:
//
//  1. An off-chain counterfeit: a product id that no initial participant can
//     produce an ownership proof for. The proxy's POC-queue sweep comes back
//     empty — no legitimate origin exists.
//
//  2. A reputation-farming counterfeit: a participant claims (with a forged
//     proof) to have processed a genuine, good product, hoping to collect
//     its positive score. ZK-EDB soundness kills the claim.
//
//     go run ./examples/counterfeit
package main

import (
	"context"
	"fmt"
	"os"

	"desword/internal/adversary"
	"desword/internal/apps"
	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "counterfeit:", err)
		os.Exit(1)
	}
}

func run() error {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		return err
	}

	// A pharmaceutical chain: manufacturer → wholesaler → two pharmacies.
	graph := supplychain.NewGraph()
	for _, v := range []supplychain.ParticipantID{"manufacturer", "wholesaler", "pharmacyA", "pharmacyB"} {
		graph.AddParticipant(v)
	}
	for _, e := range [][2]supplychain.ParticipantID{
		{"manufacturer", "wholesaler"}, {"wholesaler", "pharmacyA"}, {"wholesaler", "pharmacyB"},
	} {
		if err := graph.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	members := make(map[poc.ParticipantID]*core.Member)
	for _, v := range graph.Participants() {
		members[v] = core.NewMember(ps, supplychain.NewParticipant(v))
	}
	tags, err := supplychain.MintTags("NDC-0591-", 6)
	if err != nil {
		return err
	}
	dist, err := core.RunDistribution(ps, graph, members, "manufacturer", tags,
		func(v supplychain.ParticipantID, id supplychain.ProductID) []byte {
			return []byte(fmt.Sprintf("site=%s;lot=L42;drug=%s;gmp=pass", v, id))
		},
		supplychain.RoundRobinSplitter, "drug-lot-L42")
	if err != nil {
		return err
	}

	// pharmacyB will try to farm reputation by claiming it also processed a
	// product that really went to pharmacyA.
	var targetID poc.ProductID
	for id, path := range dist.Ground.Paths {
		if path[len(path)-1] == "pharmacyA" {
			targetID = id
			break
		}
	}
	farmer := adversary.NewDishonest(members["pharmacyB"])
	farmer.FakeProcessing[targetID] = true
	resolver := func(v poc.ParticipantID) (core.Responder, error) {
		if v == "pharmacyB" {
			return farmer, nil
		}
		return members[v], nil
	}
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, core.ProxyConfig{})
	if err := proxy.RegisterList(dist.TaskID, dist.List); err != nil {
		return err
	}

	// Scenario 1: a package surfaces in the market with an id the chain
	// never issued. No initial participant can prove ownership, so no origin
	// exists: counterfeit.
	fmt.Println("① verifying a suspicious package: id NDC-FAKE-999")
	report, err := apps.DetectCounterfeit(context.Background(), proxy, "NDC-FAKE-999")
	if err != nil {
		return err
	}
	if report.Genuine || len(report.Path) > 0 {
		return fmt.Errorf("counterfeit unexpectedly authenticated: %v", report.Path)
	}
	fmt.Printf("   %s → COUNTERFEIT\n", report.Reason)

	// Scenario 2: verify a genuine package end to end.
	fmt.Printf("② verifying a genuine package: %s\n", targetID)
	report, err = apps.DetectCounterfeit(context.Background(), proxy, targetID)
	if err != nil {
		return err
	}
	fmt.Printf("   authenticated path: %v (genuine=%v)\n", report.Path, report.Genuine)
	for _, tr := range report.History {
		fmt.Printf("   %q\n", tr.Data)
	}

	// The farmer is never reached on the true path in this query (it is not
	// a recorded child of pharmacyA), so probe it directly the way the proxy
	// audits claims: ask it to prove processing.
	fmt.Println("③ pharmacyB claims it also handled the package; the proxy audits the claim")
	credential, err := dist.List.POC("pharmacyB")
	if err != nil {
		return err
	}
	resp, err := farmer.Query(context.Background(), dist.TaskID, targetID, core.Good)
	if err != nil {
		return err
	}
	if resp.Claim != core.ClaimProcessed {
		return fmt.Errorf("fixture broken: farmer should claim processing")
	}
	if _, err := poc.Verify(context.Background(), ps, credential, targetID, resp.Proof); err != nil {
		fmt.Printf("   forged ownership proof REJECTED: %v\n", err)
	} else {
		return fmt.Errorf("forged proof unexpectedly verified")
	}

	fmt.Println("④ result: counterfeit flagged, genuine package authenticated, forged claim rejected")
	return nil
}
