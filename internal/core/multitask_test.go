package core

import (
	"context"
	"testing"

	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
)

// TestPOCQueueSameInitial exercises §IV.D precisely: ONE initial participant
// accumulates several entries in its POC-queue (one per distribution task),
// and the proxy must check the queried product against each entry — in the
// bad case by demanding a non-ownership proof per queue entry.
func TestPOCQueueSameInitial(t *testing.T) {
	ps := corePS(t)
	g, parts := supplychain.LineGraph(3)
	members := make(map[poc.ParticipantID]*Member, 3)
	for id, p := range parts {
		members[id] = NewMember(ps, p)
	}
	resolver := func(v poc.ParticipantID) (Responder, error) { return members[v], nil }
	proxy := NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, ProxyConfig{})

	// Three tasks, all starting at p0, each distributing one distinct
	// product. p0's POC-queue ends with three entries.
	taskIDs := []string{"lot-1", "lot-2", "lot-3"}
	prefixes := []string{"alpha", "bravo", "charlie"}
	for i, taskID := range taskIDs {
		tags, err := supplychain.MintTags(prefixes[i], 1)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := RunDistribution(ps, g, members, "p0", tags, nil,
			supplychain.FirstChildSplitter, taskID)
		if err != nil {
			t.Fatal(err)
		}
		if err := proxy.RegisterList(taskID, dist.List); err != nil {
			t.Fatal(err)
		}
	}

	// Bad-product query for the LAST lot: the proxy sweeps p0's queue; the
	// first two entries clear p0 with valid non-ownership proofs, the third
	// identifies it.
	result, err := proxy.QueryPath(context.Background(), "charlie1", Bad)
	if err != nil {
		t.Fatal(err)
	}
	if result.TaskID != "lot-3" {
		t.Fatalf("resolved to %q, want lot-3", result.TaskID)
	}
	if len(result.Path) != 3 || !result.Complete {
		t.Fatalf("path = %v complete=%v", result.Path, result.Complete)
	}
	if len(result.Violations) != 0 {
		t.Fatalf("honest sweep must record no violations: %+v", result.Violations)
	}

	// Good-product flavour across the same queue.
	result, err = proxy.QueryPath(context.Background(), "bravo1", Good)
	if err != nil {
		t.Fatal(err)
	}
	if result.TaskID != "lot-2" || len(result.Path) != 3 {
		t.Fatalf("resolved to %q with path %v", result.TaskID, result.Path)
	}

	// A product in no lot clears all three queue entries.
	result, err = proxy.QueryPath(context.Background(), "delta1", Bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Path) != 0 || len(result.Violations) != 0 {
		t.Fatalf("unknown product must clear the whole queue: %+v", result)
	}
}

// TestDynamicDigraphAcrossTasks exercises the paper's dynamic supply chain
// (§II.A): edges and participants change between distribution tasks, and
// queries against old tasks keep answering from their frozen POC lists.
func TestDynamicDigraphAcrossTasks(t *testing.T) {
	ps := corePS(t)
	g := supplychain.NewGraph()
	for _, v := range []supplychain.ParticipantID{"a", "b", "c"} {
		g.AddParticipant(v)
	}
	if err := g.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("b", "c"); err != nil {
		t.Fatal(err)
	}
	members := map[poc.ParticipantID]*Member{
		"a": NewMember(ps, supplychain.NewParticipant("a")),
		"b": NewMember(ps, supplychain.NewParticipant("b")),
		"c": NewMember(ps, supplychain.NewParticipant("c")),
	}
	resolver := func(v poc.ParticipantID) (Responder, error) {
		m, ok := members[v]
		if !ok {
			return nil, ErrNoResponder
		}
		return m, nil
	}
	proxy := NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, ProxyConfig{})

	tags1, err := supplychain.MintTags("old", 1)
	if err != nil {
		t.Fatal(err)
	}
	dist1, err := RunDistribution(ps, g, members, "a", tags1, nil, supplychain.FirstChildSplitter, "before")
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.RegisterList("before", dist1.List); err != nil {
		t.Fatal(err)
	}

	// The chain evolves: b is replaced by a new participant d.
	g.RemoveParticipant("b")
	g.AddParticipant("d")
	if err := g.AddEdge("a", "d"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("d", "c"); err != nil {
		t.Fatal(err)
	}
	members["d"] = NewMember(ps, supplychain.NewParticipant("d"))

	tags2, err := supplychain.MintTags("new", 1)
	if err != nil {
		t.Fatal(err)
	}
	dist2, err := RunDistribution(ps, g, members, "a", tags2, nil, supplychain.FirstChildSplitter, "after")
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.RegisterList("after", dist2.List); err != nil {
		t.Fatal(err)
	}

	// Old product still resolves through the departed participant b (its POC
	// list is frozen), new product flows through d.
	oldResult, err := proxy.QueryPath(context.Background(), "old1", Good)
	if err != nil {
		t.Fatal(err)
	}
	if oldResult.TaskID != "before" || len(oldResult.Path) != 3 || oldResult.Path[1] != "b" {
		t.Fatalf("old product path = %v (task %s)", oldResult.Path, oldResult.TaskID)
	}
	newResult, err := proxy.QueryPath(context.Background(), "new1", Good)
	if err != nil {
		t.Fatal(err)
	}
	if newResult.TaskID != "after" || len(newResult.Path) != 3 || newResult.Path[1] != "d" {
		t.Fatalf("new product path = %v (task %s)", newResult.Path, newResult.TaskID)
	}
}
