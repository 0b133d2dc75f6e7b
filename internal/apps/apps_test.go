package apps

import (
	"context"
	"testing"

	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

var _appsPS *poc.PublicParams

func appsPS(t *testing.T) *poc.PublicParams {
	t.Helper()
	if _appsPS == nil {
		ps, err := poc.PSGen(zkedb.TestParams())
		if err != nil {
			t.Fatal(err)
		}
		_appsPS = ps
	}
	return _appsPS
}

type fixture struct {
	proxy   *core.Proxy
	ground  *supplychain.TaskResult
	members map[poc.ParticipantID]*core.Member
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	ps := appsPS(t)
	g := supplychain.FigureOneGraph()
	members := make(map[poc.ParticipantID]*core.Member)
	for _, v := range g.Participants() {
		members[v] = core.NewMember(ps, supplychain.NewParticipant(v))
	}
	tags, err := supplychain.MintTags("app", 8)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := core.RunDistribution(ps, g, members, "v0", tags, nil,
		supplychain.RoundRobinSplitter, "apps-task")
	if err != nil {
		t.Fatal(err)
	}
	resolver := func(v poc.ParticipantID) (core.Responder, error) { return members[v], nil }
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, core.ProxyConfig{})
	if err := proxy.RegisterList(dist.TaskID, dist.List); err != nil {
		t.Fatal(err)
	}
	return &fixture{proxy: proxy, ground: dist.Ground, members: members}
}

// The in-process proxy must satisfy the application-facing interface.
var _ QueryClient = (*core.Proxy)(nil)

func (fx *fixture) market() []poc.ProductID {
	out := make([]poc.ProductID, 0, len(fx.ground.Paths))
	for id := range fx.ground.Paths {
		out = append(out, id)
	}
	return out
}

func TestLocalizeContamination(t *testing.T) {
	fx := newFixture(t)
	var bad poc.ProductID
	for id := range fx.ground.Paths {
		bad = id
		break
	}
	report, err := LocalizeContamination(context.Background(), fx.proxy, bad, fx.market())
	if err != nil {
		t.Fatal(err)
	}
	if report.Source != fx.ground.Paths[bad][0] {
		t.Fatalf("source = %s, want %s", report.Source, fx.ground.Paths[bad][0])
	}
	// Every product flows from v0 in this task, so every other product must
	// be affected.
	if len(report.Affected) != len(fx.ground.Paths)-1 {
		t.Fatalf("affected = %v", report.Affected)
	}
	if len(report.Violations) != 0 {
		t.Fatalf("honest chain must produce no violations: %+v", report.Violations)
	}
}

func TestLocalizeContaminationUnknownProduct(t *testing.T) {
	fx := newFixture(t)
	if _, err := LocalizeContamination(context.Background(), fx.proxy, "not-a-product", nil); err == nil {
		t.Fatal("unknown product must be rejected")
	}
}

func TestDetectCounterfeit(t *testing.T) {
	fx := newFixture(t)
	var genuine poc.ProductID
	for id := range fx.ground.Paths {
		genuine = id
		break
	}
	report, err := DetectCounterfeit(context.Background(), fx.proxy, genuine)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Genuine || len(report.Path) != len(fx.ground.Paths[genuine]) || len(report.History) != len(report.Path) {
		t.Fatalf("genuine product misclassified: %+v", report)
	}

	fake, err := DetectCounterfeit(context.Background(), fx.proxy, "knockoff-1")
	if err != nil {
		t.Fatal(err)
	}
	if fake.Genuine || fake.Reason == "" {
		t.Fatalf("counterfeit misclassified: %+v", fake)
	}
}

func TestTargetedRecall(t *testing.T) {
	fx := newFixture(t)
	// Pick a mid-chain failure point that carried some but not all products.
	counts := make(map[poc.ParticipantID]int)
	for _, path := range fx.ground.Paths {
		for _, v := range path[1:] {
			counts[v]++
		}
	}
	var failurePoint poc.ParticipantID
	for v, n := range counts {
		if n > 0 && n < len(fx.ground.Paths) {
			failurePoint = v
			break
		}
	}
	if failurePoint == "" {
		t.Skip("no partial-coverage participant in fixture")
	}
	report, err := TargetedRecall(context.Background(), fx.proxy, failurePoint, fx.market())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Recalled) != counts[failurePoint] {
		t.Fatalf("recalled %d products, ground truth says %d", len(report.Recalled), counts[failurePoint])
	}
	if len(report.Recalled)+len(report.Cleared) != len(fx.ground.Paths) {
		t.Fatal("every candidate must be either recalled or cleared")
	}
	for id, path := range report.Recalled {
		found := false
		for _, v := range path {
			if v == failurePoint {
				found = true
			}
		}
		if !found {
			t.Fatalf("recalled %s with a path avoiding the failure point: %v", id, path)
		}
	}
}
