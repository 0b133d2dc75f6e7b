// Contamination localization — the application the paper's threat model
// opens with (§I): a product quality administration discovers a bad product,
// queries its verified path to locate the contamination source, recalls the
// other products that passed through that source, and applies
// responsibility-weighted negative reputation — all while one participant on
// the path tries to deny involvement, horsemeat-scandal style.
//
//	go run ./examples/contamination
package main

import (
	"context"
	"fmt"
	"os"
	"sort"

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
		fmt.Fprintln(os.Stderr, "contamination:", err)
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
	tags, err := supplychain.MintTags("batch", 8)
	if err != nil {
		return err
	}
	dist, err := core.RunDistribution(ps, graph, members, "v0", tags, nil,
		supplychain.RoundRobinSplitter, "lot-2026-07")
	if err != nil {
		return err
	}

	// The PA agency's quality check flags batch3 as contaminated. The
	// participant that actually contaminated it — the second hop of its
	// path — will deny everything.
	const badProduct = poc.ProductID("batch3")
	truePath := dist.Ground.Paths[badProduct]
	culprit := truePath[1]
	fmt.Printf("① quality check: %s is BAD (true path, unknown to the proxy: %v)\n", badProduct, truePath)
	fmt.Printf("② participant %s will deny having processed %s\n", culprit, badProduct)

	denier := adversary.NewDishonest(members[culprit])
	denier.DenyProcessing[badProduct] = true
	resolver := func(v poc.ParticipantID) (core.Responder, error) {
		if v == culprit {
			return denier, nil
		}
		return members[v], nil
	}

	// Upstream participants carry more responsibility for a contamination:
	// use the responsibility-weighted award strategy.
	strategy := reputation.DefaultStrategy()
	strategy.Weigh = reputation.ResponsibilityWeigher
	proxy := core.NewProxyWithConfig(ps, strategy, resolver, core.ProxyConfig{})
	if err := proxy.RegisterList(dist.TaskID, dist.List); err != nil {
		return err
	}

	// Bad-product path query, then the targeted sweep: the agency samples
	// the other products of the lot (still passing quality checks, hence
	// good-product queries) and recalls every one whose verified path passed
	// through the source, the first hop of the bad product's verified path.
	// The denial cannot survive ZK-EDB soundness — the culprit committed a
	// trace for badProduct into its POC and therefore cannot produce a valid
	// non-ownership proof.
	market := make([]poc.ProductID, 0, len(dist.Ground.Paths))
	for id := range dist.Ground.Paths {
		market = append(market, id)
	}
	sort.Slice(market, func(i, j int) bool { return market[i] < market[j] })
	report, err := apps.LocalizeContamination(context.Background(), proxy, badProduct, market)
	if err != nil {
		return err
	}
	fmt.Printf("③ verified path recovered by the proxy: %v\n", report.Path)
	for _, violation := range report.Violations {
		fmt.Printf("   DETECTED %s by %s: %s\n", violation.Type, violation.Participant, violation.Detail)
	}
	fmt.Printf("④ contamination source localized at %s; recalling its other products\n", report.Source)
	for _, id := range report.Affected {
		fmt.Printf("   recall %s\n", id)
	}
	fmt.Printf("⑤ %d additional products recalled\n", len(report.Affected))

	fmt.Println("⑥ responsibility-weighted reputation after the investigation:")
	for _, v := range proxy.Ledger().Ranking() {
		fmt.Printf("   %-3s %+7.2f\n", v, proxy.Ledger().Score(v))
	}
	if proxy.Ledger().Score(culprit) >= 0 {
		return fmt.Errorf("the denier must end with a negative score")
	}
	fmt.Printf("   → the denier %s carries the violation penalty on top of the path penalty\n", culprit)
	return nil
}
