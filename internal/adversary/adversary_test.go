package adversary

import (
	"context"
	"fmt"
	"testing"

	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

var _advPS *poc.PublicParams

func advPS(t *testing.T) *poc.PublicParams {
	t.Helper()
	if _advPS == nil {
		ps, err := poc.PSGen(zkedb.TestParams())
		if err != nil {
			t.Fatalf("PSGen: %v", err)
		}
		_advPS = ps
	}
	return _advPS
}

// lineFixture distributes one product down p0→p1→…→p(n-1) and returns the
// pieces needed to wire dishonest responders.
type lineFixture struct {
	ps      *poc.PublicParams
	members map[poc.ParticipantID]*core.Member
	dist    *core.DistributionResult
	product poc.ProductID
}

// newLineFixture runs the task but NOT the POC commitment when
// mutate != nil: the mutation executes inside the §III.A threat window.
func newLineFixture(t *testing.T, n int, mutate func(map[poc.ParticipantID]*core.Member)) *lineFixture {
	t.Helper()
	ps := advPS(t)
	g, parts := supplychain.LineGraph(n)
	members := make(map[poc.ParticipantID]*core.Member, n)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("prod", 1)
	if err != nil {
		t.Fatal(err)
	}
	ground, err := supplychain.RunTask(g, parts, "p0", tags, nil, supplychain.FirstChildSplitter)
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(members)
	}
	list, err := core.BuildPOCList(members, ground, "task-line")
	if err != nil {
		t.Fatal(err)
	}
	return &lineFixture{
		ps:      ps,
		members: members,
		dist:    &core.DistributionResult{TaskID: "task-line", List: list, Ground: ground},
		product: "prod1",
	}
}

// proxyWith builds a proxy whose resolver serves dishonest wrappers where
// configured and honest members elsewhere.
func (fx *lineFixture) proxyWith(t *testing.T, dishonest map[poc.ParticipantID]*Dishonest) *core.Proxy {
	t.Helper()
	resolver := func(v poc.ParticipantID) (core.Responder, error) {
		if d, ok := dishonest[v]; ok {
			return d, nil
		}
		if m, ok := fx.members[v]; ok {
			return m, nil
		}
		return nil, fmt.Errorf("no member %s", v)
	}
	proxy := core.NewProxyWithConfig(fx.ps, reputation.DefaultStrategy(), resolver, core.ProxyConfig{})
	if err := proxy.RegisterList(fx.dist.TaskID, fx.dist.List); err != nil {
		t.Fatal(err)
	}
	return proxy
}

// --- Query-phase behaviours (§III.B): all cryptographically detected. ---

func TestClaimNonProcessingDetected(t *testing.T) {
	fx := newLineFixture(t, 4, nil)
	liar := NewDishonest(fx.members["p1"])
	liar.DenyProcessing[fx.product] = true
	proxy := fx.proxyWith(t, map[poc.ParticipantID]*Dishonest{"p1": liar})

	result, err := proxy.QueryPath(context.Background(), fx.product, core.Bad)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Violated(core.ViolationClaimNonProcessing) {
		t.Fatalf("claim non-processing must be detected: %+v", result.Violations)
	}
	// The ownership demand recovers the trace and the walk continues to the
	// leaf despite the lie.
	if _, ok := result.Traces["p1"]; !ok {
		t.Fatal("demanded ownership proof must recover p1's trace")
	}
	if !result.Complete || len(result.Path) != 4 {
		t.Fatalf("path must survive the lie: %v", result.Path)
	}
	// And the liar is penalized beyond the ordinary negative award.
	honest := proxy.Ledger().Score("p2")
	if proxy.Ledger().Score("p1") >= honest {
		t.Fatal("the liar must score strictly worse than honest path members")
	}
}

func TestClaimNonProcessingWithStonewallDetected(t *testing.T) {
	fx := newLineFixture(t, 3, nil)
	liar := NewDishonest(fx.members["p1"])
	liar.DenyProcessing[fx.product] = true
	liar.RefuseDemand = true
	proxy := fx.proxyWith(t, map[poc.ParticipantID]*Dishonest{"p1": liar})

	result, err := proxy.QueryPath(context.Background(), fx.product, core.Bad)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Violated(core.ViolationNoValidProof) {
		t.Fatalf("stonewalling must be detected as no-valid-proof: %+v", result.Violations)
	}
	// p1 is identified (on the path, penalized) even without a trace.
	found := false
	for _, v := range result.Path {
		if v == "p1" {
			found = true
		}
	}
	if !found {
		t.Fatal("stonewalling participant must still be identified")
	}
	if _, ok := result.Traces["p1"]; ok {
		t.Fatal("no trace can be recovered from a stonewalling participant")
	}
}

func TestClaimProcessingDetected(t *testing.T) {
	// Graph: p0→p1, p1→{p2, imposter}; the product flows p0→p1→p2. The
	// dishonest p1 names imposter as next hop and the imposter claims
	// processing with a forged proof (good-product case).
	ps := advPS(t)
	g := supplychain.NewGraph()
	for _, v := range []supplychain.ParticipantID{"p0", "p1", "p2", "imposter"} {
		g.AddParticipant(v)
	}
	for _, e := range [][2]supplychain.ParticipantID{{"p0", "p1"}, {"p1", "p2"}, {"p1", "imposter"}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	parts := supplychain.NewParticipants(g)
	members := make(map[poc.ParticipantID]*core.Member)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("prod", 2)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin over sorted children {imposter, p2}: prod1→imposter,
	// prod2→p2. Query prod2 so the true path is p0→p1→p2.
	ground, err := supplychain.RunTask(g, parts, "p0", tags, nil, supplychain.RoundRobinSplitter)
	if err != nil {
		t.Fatal(err)
	}
	list, err := core.BuildPOCList(members, ground, "task-imp")
	if err != nil {
		t.Fatal(err)
	}

	target := poc.ProductID("prod2")
	if got := ground.Paths[target]; len(got) != 3 || got[2] != "p2" {
		t.Fatalf("fixture expectation broken: path of %s = %v", target, got)
	}

	misdirector := NewDishonest(members["p1"])
	misdirector.WrongNext[target] = "imposter"
	imposter := NewDishonest(members["imposter"])
	imposter.FakeProcessing[target] = true

	resolver := func(v poc.ParticipantID) (core.Responder, error) {
		switch v {
		case "p1":
			return misdirector, nil
		case "imposter":
			return imposter, nil
		default:
			return members[v], nil
		}
	}
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, core.ProxyConfig{})
	if err := proxy.RegisterList("task-imp", list); err != nil {
		t.Fatal(err)
	}

	result, err := proxy.QueryPath(context.Background(), target, core.Good)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Violated(core.ViolationClaimProcessing) {
		t.Fatalf("forged ownership claim must be detected: %+v", result.Violations)
	}
	if !result.Violated(core.ViolationWrongNextHop) {
		t.Fatalf("the misdirection must be detected: %+v", result.Violations)
	}
	// The fallback child probe must still recover the true path.
	if len(result.Path) != 3 || result.Path[2] != "p2" {
		t.Fatalf("true path must be recovered: %v", result.Path)
	}
	if proxy.Ledger().Score("imposter") >= 0 {
		t.Fatal("the imposter must be penalized, not rewarded")
	}
}

func TestWrongTraceDetected(t *testing.T) {
	fx := newLineFixture(t, 3, nil)
	forger := NewDishonest(fx.members["p1"])
	forger.WrongTrace[fx.product] = []byte("laundered production record")
	proxy := fx.proxyWith(t, map[poc.ParticipantID]*Dishonest{"p1": forger})

	result, err := proxy.QueryPath(context.Background(), fx.product, core.Good)
	if err != nil {
		t.Fatal(err)
	}
	// Claim 2: no second valid ownership proof with different trace exists,
	// so the substituted value fails verification.
	if !result.Violated(core.ViolationClaimProcessing) {
		t.Fatalf("wrong trace must be detected: %+v", result.Violations)
	}
	if tr, ok := result.Traces["p1"]; ok && string(tr.Data) == "laundered production record" {
		t.Fatal("the forged trace must never be accepted")
	}
}

func TestWrongNextHopCase2Detected(t *testing.T) {
	fx := newLineFixture(t, 4, nil)
	misdirector := NewDishonest(fx.members["p1"])
	misdirector.WrongNext[fx.product] = "p3" // real child is p2; p3 is not a child of p1
	proxy := fx.proxyWith(t, map[poc.ParticipantID]*Dishonest{"p1": misdirector})

	result, err := proxy.QueryPath(context.Background(), fx.product, core.Good)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Violated(core.ViolationWrongNextHop) {
		t.Fatalf("naming a non-child must be detected: %+v", result.Violations)
	}
	// The child probe recovers the true continuation.
	if !result.Complete || len(result.Path) != 4 {
		t.Fatalf("true path must be recovered: %v", result.Path)
	}
}

func TestCollusionOnPathDetected(t *testing.T) {
	// Every participant on the path denies processing the bad product — the
	// paper's coordinated attack. Each is individually caught.
	fx := newLineFixture(t, 4, nil)
	colluders := Collude(
		[]*core.Member{fx.members["p0"], fx.members["p1"], fx.members["p2"], fx.members["p3"]},
		func(d *Dishonest) { d.DenyProcessing[fx.product] = true },
	)
	dis := make(map[poc.ParticipantID]*Dishonest, len(colluders))
	for _, d := range colluders {
		dis[d.Member.ID()] = d
	}
	proxy := fx.proxyWith(t, dis)

	result, err := proxy.QueryPath(context.Background(), fx.product, core.Bad)
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, v := range result.Violations {
		if v.Type == core.ViolationClaimNonProcessing {
			caught++
		}
	}
	if caught != 4 {
		t.Fatalf("all 4 colluders must be caught, got %d: %+v", caught, result.Violations)
	}
	if !result.Complete || len(result.Path) != 4 {
		t.Fatalf("full path must be recovered despite collusion: %v", result.Path)
	}
}

// --- Distribution-phase behaviours (§III.A): the double edge. ---

func TestDeletionEscapesIdentificationBothWays(t *testing.T) {
	// p1 deletes its trace before committing its POC. It cannot be
	// identified afterwards — in the bad case it avoids the negative score,
	// in the good case it forfeits the positive score. Both edges.
	mutate := func(members map[poc.ParticipantID]*core.Member) {
		if err := Apply(members["p1"], Deletion("prod1")); err != nil {
			t.Fatal(err)
		}
	}

	for _, quality := range []core.Quality{core.Good, core.Bad} {
		fx := newLineFixture(t, 4, mutate)
		proxy := fx.proxyWith(t, nil)
		result, err := proxy.QueryPath(context.Background(), fx.product, quality)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range result.Path {
			if v == "p1" {
				t.Fatalf("deleter must not be identified (%v case)", quality)
			}
		}
		if proxy.Ledger().Score("p1") != 0 {
			t.Fatalf("deleter's score must be untouched in the %v case, got %v",
				quality, proxy.Ledger().Score("p1"))
		}
		// The deletion breaks the queryable path: downstream traces are lost.
		if result.Complete {
			t.Fatalf("deletion must break the path walk (%v case): %v", quality, result.Path)
		}
	}
}

func TestDeletionLosesPositiveScore(t *testing.T) {
	// Control: with everyone honest, p1 earns a positive score on a good
	// query; after deletion it earns nothing. The "lost opportunity" edge.
	honest := newLineFixture(t, 4, nil)
	proxyH := honest.proxyWith(t, nil)
	if _, err := proxyH.QueryPath(context.Background(), honest.product, core.Good); err != nil {
		t.Fatal(err)
	}
	honestScore := proxyH.Ledger().Score("p1")
	if honestScore <= 0 {
		t.Fatalf("honest p1 must earn a positive score, got %v", honestScore)
	}

	deleted := newLineFixture(t, 4, func(members map[poc.ParticipantID]*core.Member) {
		if err := Apply(members["p1"], Deletion("prod1")); err != nil {
			t.Fatal(err)
		}
	})
	proxyD := deleted.proxyWith(t, nil)
	if _, err := proxyD.QueryPath(context.Background(), deleted.product, core.Good); err != nil {
		t.Fatal(err)
	}
	if got := proxyD.Ledger().Score("p1"); got >= honestScore {
		t.Fatalf("deleter must earn less than honest self: %v vs %v", got, honestScore)
	}
}

func TestAdditionIsDoubleEdged(t *testing.T) {
	// An initial participant commits a fake trace for a product it never
	// distributed. When that product is queried good, the addition pays
	// (positive score); when bad, it backfires (negative score) — Figure 3b.
	ps := advPS(t)
	phantom := poc.ProductID("phantom-1")

	build := func(t *testing.T) (*core.Proxy, *core.Member) {
		t.Helper()
		g, parts := supplychain.LineGraph(2)
		members := make(map[poc.ParticipantID]*core.Member)
		for id, p := range parts {
			members[id] = core.NewMember(ps, p)
		}
		tags, err := supplychain.MintTags("real", 1)
		if err != nil {
			t.Fatal(err)
		}
		ground, err := supplychain.RunTask(g, parts, "p0", tags, nil, supplychain.FirstChildSplitter)
		if err != nil {
			t.Fatal(err)
		}
		if err := Apply(members["p0"], Addition(poc.Trace{Product: phantom, Data: []byte("forged record")})); err != nil {
			t.Fatal(err)
		}
		list, err := core.BuildPOCList(members, ground, "task-add")
		if err != nil {
			t.Fatal(err)
		}
		resolver := func(v poc.ParticipantID) (core.Responder, error) { return members[v], nil }
		proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, core.ProxyConfig{})
		if err := proxy.RegisterList("task-add", list); err != nil {
			t.Fatal(err)
		}
		return proxy, members["p0"]
	}

	proxyGood, _ := build(t)
	resGood, err := proxyGood.QueryPath(context.Background(), phantom, core.Good)
	if err != nil {
		t.Fatal(err)
	}
	if len(resGood.Path) == 0 || resGood.Path[0] != "p0" {
		t.Fatalf("adder must be identified for its fake trace: %v", resGood.Path)
	}
	if proxyGood.Ledger().Score("p0") <= 0 {
		t.Fatal("good edge: addition must pay a positive score")
	}

	proxyBad, _ := build(t)
	resBad, err := proxyBad.QueryPath(context.Background(), phantom, core.Bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(resBad.Path) == 0 || resBad.Path[0] != "p0" {
		t.Fatalf("adder must be identified in the bad case too: %v", resBad.Path)
	}
	if proxyBad.Ledger().Score("p0") >= 0 {
		t.Fatal("bad edge: addition must cost a negative score")
	}
}

func TestModificationChangesCommittedTrace(t *testing.T) {
	// Modification before commit is binding: the query returns the modified
	// data (the proxy cannot tell — which is why the paper addresses the
	// modification motive with ZK privacy rather than detection).
	fx := newLineFixture(t, 3, func(members map[poc.ParticipantID]*core.Member) {
		if err := Apply(members["p1"], Modification("prod1", []byte("sanitized"))); err != nil {
			t.Fatal(err)
		}
	})
	proxy := fx.proxyWith(t, nil)
	result, err := proxy.QueryPath(context.Background(), fx.product, core.Good)
	if err != nil {
		t.Fatal(err)
	}
	if len(result.Violations) != 0 {
		t.Fatalf("pre-commit modification is not detectable: %+v", result.Violations)
	}
	if string(result.Traces["p1"].Data) != "sanitized" {
		t.Fatalf("query must return the committed (modified) trace, got %q", result.Traces["p1"].Data)
	}
}

func TestApplyPropagatesErrors(t *testing.T) {
	ps := advPS(t)
	m := core.NewMember(ps, supplychain.NewParticipant("x"))
	if err := Apply(m, Deletion("never-recorded")); err == nil {
		t.Fatal("deleting a missing trace must error")
	}
	if err := Apply(m, Modification("never-recorded", nil)); err == nil {
		t.Fatal("modifying a missing trace must error")
	}
	if err := Apply(m, Addition(poc.Trace{Product: "f", Data: nil})); err != nil {
		t.Fatal(err)
	}
	if err := Apply(m, Addition(poc.Trace{Product: "f", Data: nil})); err == nil {
		t.Fatal("double addition must error")
	}
}
