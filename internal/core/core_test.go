package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

var _corePS *poc.PublicParams

func corePS(t *testing.T) *poc.PublicParams {
	t.Helper()
	if _corePS == nil {
		ps, err := poc.PSGen(zkedb.TestParams())
		if err != nil {
			t.Fatalf("PSGen: %v", err)
		}
		_corePS = ps
	}
	return _corePS
}

// fixture wires a full honest deployment on the Figure 1 digraph.
type fixture struct {
	ps      *poc.PublicParams
	graph   *supplychain.Graph
	members map[poc.ParticipantID]*Member
	proxy   *Proxy
	dist    *DistributionResult
}

func newFixture(t *testing.T, products int) *fixture {
	t.Helper()
	ps := corePS(t)
	g := supplychain.FigureOneGraph()
	members := make(map[poc.ParticipantID]*Member)
	for _, v := range g.Participants() {
		members[v] = NewMember(ps, supplychain.NewParticipant(v))
	}
	tags, err := supplychain.MintTags("id", products)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistribution(ps, g, members, "v0", tags, nil, supplychain.RoundRobinSplitter, "task-1")
	if err != nil {
		t.Fatalf("RunDistribution: %v", err)
	}
	fx := &fixture{ps: ps, graph: g, members: members, dist: dist}
	fx.proxy = fx.freshProxy(t)
	return fx
}

func TestHonestGoodQueryRecoversExactPath(t *testing.T) {
	fx := newFixture(t, 8)
	for id, wantPath := range fx.dist.Ground.Paths {
		result, err := fx.proxy.QueryPath(context.Background(), id, Good)
		if err != nil {
			t.Fatalf("QueryPath(%s): %v", id, err)
		}
		if len(result.Violations) != 0 {
			t.Fatalf("honest run must yield no violations, got %+v", result.Violations)
		}
		if !result.Complete {
			t.Fatalf("query for %s must reach a leaf", id)
		}
		if len(result.Path) != len(wantPath) {
			t.Fatalf("path for %s = %v, want %v", id, result.Path, wantPath)
		}
		for i := range wantPath {
			if result.Path[i] != wantPath[i] {
				t.Fatalf("path for %s = %v, want %v", id, result.Path, wantPath)
			}
		}
		// Every hop must have recovered the exact committed trace.
		for _, v := range wantPath {
			tr, ok := result.Traces[v]
			if !ok {
				t.Fatalf("no trace recovered from %s for %s", v, id)
			}
			wantTr, _ := fx.members[v].Participant().Trace(id)
			if string(tr.Data) != string(wantTr.Data) {
				t.Fatalf("trace from %s differs from database", v)
			}
		}
		if len(result.PathInfo()) != len(wantPath) {
			t.Fatalf("PathInfo must cover the full path")
		}
	}
}

func TestHonestBadQueryRecoversExactPath(t *testing.T) {
	fx := newFixture(t, 4)
	for id, wantPath := range fx.dist.Ground.Paths {
		result, err := fx.proxy.QueryPath(context.Background(), id, Bad)
		if err != nil {
			t.Fatalf("QueryPath(%s): %v", id, err)
		}
		if len(result.Violations) != 0 {
			t.Fatalf("honest run must yield no violations, got %+v", result.Violations)
		}
		if len(result.Path) != len(wantPath) {
			t.Fatalf("path for %s = %v, want %v", id, result.Path, wantPath)
		}
	}
}

func TestReputationDoubleEdge(t *testing.T) {
	fx := newFixture(t, 8)
	var goodID, badID poc.ProductID
	for id := range fx.dist.Ground.Paths {
		if goodID == "" {
			goodID = id
		} else if badID == "" {
			badID = id
			break
		}
	}
	goodRes, err := fx.proxy.QueryPath(context.Background(), goodID, Good)
	if err != nil {
		t.Fatal(err)
	}
	badRes, err := fx.proxy.QueryPath(context.Background(), badID, Bad)
	if err != nil {
		t.Fatal(err)
	}
	ledger := fx.proxy.Ledger()
	for _, v := range goodRes.Path {
		onBadPath := false
		for _, b := range badRes.Path {
			if v == b {
				onBadPath = true
			}
		}
		if !onBadPath && ledger.Score(v) <= 0 {
			t.Fatalf("%s on good path only must have positive score, got %v", v, ledger.Score(v))
		}
	}
}

// TestRepDeltasCountOnlyOwnSettlement pins that a query's rep_deltas carry
// exactly the awards its own settlement applied. The weigher adjusts v0 once
// between two awards, standing in for another walk's settlement landing on
// the shared ledger mid-way; that adjustment must not be charged to this
// query's wide event.
func TestRepDeltasCountOnlyOwnSettlement(t *testing.T) {
	fx := newFixture(t, 8)
	var (
		px   *Proxy
		once sync.Once
	)
	strategy := reputation.DefaultStrategy()
	strategy.Weigh = func(pos, n int) float64 {
		if pos == 1 {
			once.Do(func() {
				px.Ledger().Adjust(reputation.Event{Participant: "v0", Product: "other",
					Quality: Good, Delta: 1, Reason: "concurrent settlement"})
			})
		}
		return 1
	}
	px = NewProxyWithConfig(fx.ps, strategy, func(v poc.ParticipantID) (Responder, error) {
		return fx.members[v], nil
	}, ProxyConfig{})
	if err := px.RegisterList(fx.dist.TaskID, fx.dist.List); err != nil {
		t.Fatal(err)
	}
	var id poc.ProductID
	for _, p := range sortedProducts(fx) {
		if len(fx.dist.Ground.Paths[p]) >= 2 {
			id = p
			break
		}
	}
	result, err := px.QueryPath(context.Background(), id, Good)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Path) < 2 || result.Path[0] != "v0" {
		t.Fatalf("path for %s = %v, want at least two hops from v0", id, result.Path)
	}
	deltas := result.Event.RepDeltas
	if len(deltas) != len(result.Path) {
		t.Fatalf("rep_deltas = %v, want one entry per hop of %v", deltas, result.Path)
	}
	for _, v := range result.Path {
		if got := deltas[string(v)]; got != 1 {
			t.Errorf("rep_deltas[%s] = %v, want 1 (its own award only)", v, got)
		}
	}
	if got := px.Ledger().Score("v0"); got != 2 {
		t.Fatalf("v0 score = %v, want 2 (own award + the injected one)", got)
	}
}

func TestQueryUnknownProductFindsNoStart(t *testing.T) {
	fx := newFixture(t, 2)
	result, err := fx.proxy.QueryPath(context.Background(), "never-distributed", Good)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Path) != 0 || result.TaskID != "" {
		t.Fatalf("unknown product must identify nobody, got %+v", result)
	}
	// Bad case: every initial clears itself with a valid non-ownership proof.
	result, err = fx.proxy.QueryPath(context.Background(), "never-distributed", Bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Path) != 0 || len(result.Violations) != 0 {
		t.Fatalf("unknown product in bad case must clear all initials, got %+v", result)
	}
}

func TestQueryInvalidQuality(t *testing.T) {
	fx := newFixture(t, 2)
	if _, err := fx.proxy.QueryPath(context.Background(), "id1", Quality(0)); err == nil {
		t.Fatal("invalid quality must be rejected")
	}
}

func TestRegisterListValidation(t *testing.T) {
	fx := newFixture(t, 2)
	if err := fx.proxy.RegisterList(fx.dist.TaskID, fx.dist.List); err == nil {
		t.Fatal("duplicate task registration must be rejected")
	}
	bad := poc.NewList()
	bad.AddPair("x", "y")
	if err := fx.proxy.RegisterList("task-bad", bad); err == nil {
		t.Fatal("invalid list must be rejected")
	}
	if got := fx.proxy.Tasks(); len(got) != 1 || got[0] != "task-1" {
		t.Fatalf("Tasks() = %v", got)
	}
}

func TestMultiDistributionTasks(t *testing.T) {
	// Two tasks from the two initial participants; queries must locate the
	// right task through the POC queues (§IV.D).
	ps := corePS(t)
	g := supplychain.FigureOneGraph()
	members := make(map[poc.ParticipantID]*Member)
	for _, v := range g.Participants() {
		members[v] = NewMember(ps, supplychain.NewParticipant(v))
	}
	resolver := func(v poc.ParticipantID) (Responder, error) { return members[v], nil }
	proxy := NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, ProxyConfig{})

	tagsA, err := supplychain.MintTags("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	distA, err := RunDistribution(ps, g, members, "v0", tagsA, nil, supplychain.RoundRobinSplitter, "task-A")
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.RegisterList("task-A", distA.List); err != nil {
		t.Fatal(err)
	}

	tagsB, err := supplychain.MintTags("b", 4)
	if err != nil {
		t.Fatal(err)
	}
	distB, err := RunDistribution(ps, g, members, "v1", tagsB, nil, supplychain.RoundRobinSplitter, "task-B")
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.RegisterList("task-B", distB.List); err != nil {
		t.Fatal(err)
	}

	for id, wantPath := range distB.Ground.Paths {
		result, err := proxy.QueryPath(context.Background(), id, Good)
		if err != nil {
			t.Fatal(err)
		}
		if result.TaskID != "task-B" {
			t.Fatalf("product %s must resolve to task-B, got %q", id, result.TaskID)
		}
		if len(result.Path) != len(wantPath) {
			t.Fatalf("path for %s = %v, want %v", id, result.Path, wantPath)
		}
		if len(result.Violations) != 0 {
			t.Fatalf("honest multi-task query must be clean: %+v", result.Violations)
		}
	}
	// Bad-product flavour across tasks, too (§IV.D bad case).
	for id := range distA.Ground.Paths {
		result, err := proxy.QueryPath(context.Background(), id, Bad)
		if err != nil {
			t.Fatal(err)
		}
		if result.TaskID != "task-A" {
			t.Fatalf("product %s must resolve to task-A, got %q", id, result.TaskID)
		}
		break
	}
}

func TestMemberTaskStateValidation(t *testing.T) {
	ps := corePS(t)
	m := NewMember(ps, supplychain.NewParticipant("vX"))
	if _, err := m.Query(context.Background(), "no-task", "id1", Good); err == nil {
		t.Fatal("query for uncommitted task must error")
	}
	if _, err := m.DemandOwnership(context.Background(), "no-task", "id1"); err == nil {
		t.Fatal("demand for uncommitted task must error")
	}
	if err := m.SetNextHop("no-task", "id1", "vY"); err == nil {
		t.Fatal("next hop for uncommitted task must error")
	}
	if _, err := m.POC("no-task"); err == nil {
		t.Fatal("POC for uncommitted task must error")
	}
	if _, err := m.CommitTask("t"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.POC("t"); err != nil {
		t.Fatal(err)
	}
}

func TestHonestMemberResponses(t *testing.T) {
	ps := corePS(t)
	m := NewMember(ps, supplychain.NewParticipant("vX"))
	if err := m.Participant().RecordTrace(poc.Trace{Product: "id1", Data: []byte("d")}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CommitTask("t"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetNextHop("t", "id1", "vY"); err != nil {
		t.Fatal(err)
	}

	resp, err := m.Query(context.Background(), "t", "id1", Good)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Claim != ClaimProcessed || resp.Proof.Kind != poc.Ownership || resp.Next != "vY" {
		t.Fatalf("unexpected response %+v", resp)
	}

	resp, err = m.Query(context.Background(), "t", "id2", Bad)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Claim != ClaimNotProcessed || resp.Proof.Kind != poc.NonOwnership {
		t.Fatalf("unexpected response %+v", resp)
	}

	resp, err = m.DemandOwnership(context.Background(), "t", "id1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Claim != ClaimProcessed || resp.Proof.Kind != poc.Ownership {
		t.Fatalf("unexpected demand response %+v", resp)
	}
	resp, err = m.DemandOwnership(context.Background(), "t", "id2")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Claim != ClaimNotProcessed {
		t.Fatalf("honest member must not claim unprocessed products: %+v", resp)
	}
}

func TestUnreachableParticipantRecorded(t *testing.T) {
	fx := newFixture(t, 4)
	// Break the resolver for one mid-path participant.
	var victim poc.ParticipantID
	var productID poc.ProductID
	for id, path := range fx.dist.Ground.Paths {
		if len(path) >= 3 {
			victim = path[1]
			productID = id
			break
		}
	}
	if victim == "" {
		t.Skip("no path long enough")
	}
	resolver := func(v poc.ParticipantID) (Responder, error) {
		if v == victim {
			return nil, fmt.Errorf("participant offline")
		}
		return fx.members[v], nil
	}
	proxy := NewProxyWithConfig(fx.ps, reputation.DefaultStrategy(), resolver, ProxyConfig{})
	if err := proxy.RegisterList(fx.dist.TaskID, fx.dist.List); err != nil {
		t.Fatal(err)
	}
	result, err := proxy.QueryPath(context.Background(), productID, Good)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Violated(ViolationUnreachable) {
		t.Fatalf("offline participant must be recorded as unreachable: %+v", result.Violations)
	}
}

func TestStringers(t *testing.T) {
	if ClaimProcessed.String() != "processed" || ClaimNotProcessed.String() != "not-processed" {
		t.Fatal("claim strings wrong")
	}
	if Claim(9).String() == "" || ViolationType(9).String() == "" {
		t.Fatal("unknown enum values must render non-empty")
	}
	for _, vt := range []ViolationType{
		ViolationClaimProcessing, ViolationClaimNonProcessing,
		ViolationNoValidProof, ViolationWrongNextHop, ViolationUnreachable,
	} {
		if vt.String() == "" {
			t.Fatalf("violation type %d must render", vt)
		}
	}
}
