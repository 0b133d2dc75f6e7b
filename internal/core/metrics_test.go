package core

import (
	"context"
	"math"
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

// newDenyingProxy registers one product "s1" on the line p0 -> p1 -> p2,
// where p1 denies processing s1 in bad queries.
func newDenyingProxy(t *testing.T) *Proxy {
	t.Helper()
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
	return proxy
}

// seriesSnapshot holds the query-phase series' values at one moment; tests
// compare two snapshots, since the series are process-wide.
type seriesSnapshot struct {
	queries, latencyCount map[string]uint64
	latencySum            map[string]float64
	hops, incomplete      uint64
	tasks                 uint64
	violations            map[string]uint64
}

func takeSeries() seriesSnapshot {
	s := seriesSnapshot{
		queries:      map[string]uint64{"good": mQueriesGood.Value(), "bad": mQueriesBad.Value()},
		latencyCount: map[string]uint64{"good": mQueryLatencyGood.Count(), "bad": mQueryLatencyBad.Count()},
		latencySum:   map[string]float64{"good": mQueryLatencyGood.Sum(), "bad": mQueryLatencyBad.Sum()},
		hops:         mHops.Value(),
		incomplete:   mIncomplete.Value(),
		tasks:        mTasksRegistered.Value(),
		violations:   map[string]uint64{},
	}
	for name, c := range mViolations {
		s.violations[name] = c.Value()
	}
	return s
}

// TestStatsCountQueriesAndInteractions checks the query-phase series on an
// honest run: one registration, one good and one bad query of the same
// product, both walks' identified hops, and no violations.
func TestStatsCountQueriesAndInteractions(t *testing.T) {
	before := takeSeries()
	fx := newFixture(t, 4)
	var productID poc.ProductID
	var pathLen int
	for id, path := range fx.dist.Ground.Paths {
		productID = id
		pathLen = len(path)
		break
	}
	interactions := 0
	for _, quality := range []Quality{Good, Bad} {
		result, err := fx.proxy.QueryPath(context.Background(), productID, quality)
		if err != nil {
			t.Fatal(err)
		}
		interactions += len(result.Event.Hops) + result.Event.HopsTruncated
	}
	after := takeSeries()
	if got := after.tasks - before.tasks; got != 1 {
		t.Fatalf("desword_tasks_registered_total moved by %d, want 1", got)
	}
	for _, flavour := range []string{"good", "bad"} {
		if got := after.queries[flavour] - before.queries[flavour]; got != 1 {
			t.Fatalf("desword_queries_total{quality=%q} moved by %d, want 1", flavour, got)
		}
	}
	// Each query identifies exactly the path hops (plus possibly non-start
	// initials probed first); identified hops must be 2× the path length.
	hops := after.hops - before.hops
	if hops != uint64(2*pathLen) {
		t.Fatalf("desword_query_hops_total moved by %d, want %d", hops, 2*pathLen)
	}
	if uint64(interactions) < hops {
		t.Fatalf("events record %d interactions for %d identified hops; interactions must include all identification attempts", interactions, hops)
	}
	if got := after.incomplete - before.incomplete; got != 0 {
		t.Fatalf("desword_query_incomplete_total moved by %d on complete walks", got)
	}
	for name := range after.violations {
		if got := after.violations[name] - before.violations[name]; got != 0 {
			t.Fatalf("honest run must count no violations: desword_violations_total{type=%q} moved by %d", name, got)
		}
	}
}

// TestStatsCountViolations checks that a caught denial of processing moves
// desword_violations_total{type="claim_non_processing"} by exactly one.
func TestStatsCountViolations(t *testing.T) {
	proxy := newDenyingProxy(t)
	before := takeSeries()
	if _, err := proxy.QueryPath(context.Background(), "s1", Bad); err != nil {
		t.Fatal(err)
	}
	after := takeSeries()
	name := ViolationClaimNonProcessing.String()
	if got := after.violations[name] - before.violations[name]; got != 1 {
		t.Fatalf("desword_violations_total{type=%q} moved by %d, want 1", name, got)
	}
}

// TestQuerySeriesFollowEvents pins the query-phase series to the wide event,
// the query's one record: for a good query, a bad query that catches a
// denial and a query for an unknown product, every series moves exactly as
// that query's event says.
func TestQuerySeriesFollowEvents(t *testing.T) {
	proxy := newDenyingProxy(t)
	sawViolation := false
	for _, q := range []struct {
		id      poc.ProductID
		quality Quality
	}{{"s1", Good}, {"s1", Bad}, {"no-such-product", Good}} {
		before := takeSeries()
		result, err := proxy.QueryPath(context.Background(), q.id, q.quality)
		if err != nil {
			t.Fatal(err)
		}
		after, ev := takeSeries(), result.Event
		for _, flavour := range []string{"good", "bad"} {
			want := uint64(0)
			if flavour == ev.Quality {
				want = 1
			}
			if got := after.queries[flavour] - before.queries[flavour]; got != want {
				t.Fatalf("%s %s: desword_queries_total{quality=%q} moved by %d, want %d", q.id, ev.Quality, flavour, got, want)
			}
			if got := after.latencyCount[flavour] - before.latencyCount[flavour]; got != want {
				t.Fatalf("%s %s: latency count{quality=%q} moved by %d, want %d", q.id, ev.Quality, flavour, got, want)
			}
		}
		wantSum := float64(ev.DurationUS) / 1e6
		if got := after.latencySum[ev.Quality] - before.latencySum[ev.Quality]; math.Abs(got-wantSum) > 1e-9 {
			t.Fatalf("%s %s: latency sum moved by %v, event says %v", q.id, ev.Quality, got, wantSum)
		}
		identified := 0
		for _, h := range ev.Hops {
			if h.Identified {
				identified++
			}
		}
		if got := after.hops - before.hops; got != uint64(identified) || identified != ev.PathLen {
			t.Fatalf("%s %s: desword_query_hops_total moved by %d; event has %d identified hops, path_len %d", q.id, ev.Quality, got, identified, ev.PathLen)
		}
		wantIncomplete := uint64(0)
		if !ev.Complete {
			wantIncomplete = 1
		}
		if got := after.incomplete - before.incomplete; got != wantIncomplete {
			t.Fatalf("%s %s: desword_query_incomplete_total moved by %d, want %d", q.id, ev.Quality, got, wantIncomplete)
		}
		wantViolations := map[string]uint64{}
		for _, v := range ev.Violations {
			wantViolations[v.Type]++
			sawViolation = true
		}
		for name := range after.violations {
			if got := after.violations[name] - before.violations[name]; got != wantViolations[name] {
				t.Fatalf("%s %s: desword_violations_total{type=%q} moved by %d, want %d", q.id, ev.Quality, name, got, wantViolations[name])
			}
		}
	}
	if !sawViolation {
		t.Fatal("the denial must surface as a violation")
	}
}
