package core

import (
	"context"
	"testing"

	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
)

// denyingResponder wraps a member and denies processing one product in bad
// queries (a minimal in-package stand-in for the adversary package, which
// cannot be imported here without a test import cycle).
type denyingResponder struct {
	*Member
	deny poc.ProductID
}

func (d *denyingResponder) Query(ctx context.Context, taskID string, id poc.ProductID, quality Quality) (*Response, error) {
	resp, err := d.Member.Query(ctx, taskID, id, quality)
	if err != nil {
		return nil, err
	}
	if quality == Bad && id == d.deny && resp.Claim == ClaimProcessed {
		forged := *resp.Proof
		forged.Kind = poc.NonOwnership
		return &Response{Claim: ClaimNotProcessed, Proof: &forged}, nil
	}
	return resp, nil
}

func TestStatsCountQueriesAndInteractions(t *testing.T) {
	fx := newFixture(t, 4)
	var productID poc.ProductID
	var pathLen int
	for id, path := range fx.dist.Ground.Paths {
		productID = id
		pathLen = len(path)
		break
	}
	if _, err := fx.proxy.QueryPath(context.Background(), productID, Good); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.proxy.QueryPath(context.Background(), productID, Bad); err != nil {
		t.Fatal(err)
	}
	stats := fx.proxy.Stats()
	if stats.TasksRegistered != 1 {
		t.Fatalf("TasksRegistered = %d", stats.TasksRegistered)
	}
	if stats.GoodQueries != 1 || stats.BadQueries != 1 {
		t.Fatalf("query counts = %d/%d", stats.GoodQueries, stats.BadQueries)
	}
	// Each query identifies exactly the path hops (plus possibly non-start
	// initials probed first); identified hops must be 2× the path length.
	if stats.IdentifiedHops != uint64(2*pathLen) {
		t.Fatalf("IdentifiedHops = %d, want %d", stats.IdentifiedHops, 2*pathLen)
	}
	if stats.Interactions < stats.IdentifiedHops {
		t.Fatal("interactions must include all identification attempts")
	}
	if len(stats.Violations) != 0 {
		t.Fatalf("honest run must count no violations: %v", stats.Violations)
	}
}

func TestStatsCountViolations(t *testing.T) {
	ps := corePS(t)
	g, parts := supplychain.LineGraph(3)
	members := make(map[poc.ParticipantID]*Member, 3)
	for id, p := range parts {
		members[id] = NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	ground, err := supplychain.RunTask(g, parts, "p0", tags, nil, supplychain.FirstChildSplitter)
	if err != nil {
		t.Fatal(err)
	}
	list, err := BuildPOCList(members, ground, "task-s")
	if err != nil {
		t.Fatal(err)
	}
	liar := &denyingResponder{Member: members["p1"], deny: "s1"}
	resolver := func(v poc.ParticipantID) (Responder, error) {
		if v == "p1" {
			return liar, nil
		}
		return members[v], nil
	}
	proxy := NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, ProxyConfig{})
	if err := proxy.RegisterList("task-s", list); err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.QueryPath(context.Background(), "s1", Bad); err != nil {
		t.Fatal(err)
	}
	stats := proxy.Stats()
	if stats.Violations[ViolationClaimNonProcessing] != 1 {
		t.Fatalf("violation counter = %v", stats.Violations)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	fx := newFixture(t, 2)
	a := fx.proxy.Stats()
	a.Violations[ViolationUnreachable] = 99
	b := fx.proxy.Stats()
	if b.Violations[ViolationUnreachable] == 99 {
		t.Fatal("Stats must return an isolated copy")
	}
}
