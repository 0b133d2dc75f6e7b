package adversary

import (
	"context"
	"reflect"
	"testing"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
)

// decision is the part of a result the protocol decides — path, traces,
// violations, completeness, and the wide event's hop sequence and score
// changes — with wall-clock timings and per-run resource counters (proof
// cache, memo, pool) left out.
type decision struct {
	TaskID     string
	Path       []poc.ParticipantID
	Traces     map[poc.ParticipantID]poc.Trace
	Violations []core.Violation
	Complete   bool
	Hops       []events.Hop
	EventVios  []events.Violation
	RepDeltas  map[string]float64
}

func decided(r *core.Result) decision {
	hops := append([]events.Hop(nil), r.Event.Hops...)
	for i := range hops {
		hops[i].IdentifyUS, hops[i].ProveUS, hops[i].VerifyUS, hops[i].DemandUS = 0, 0, 0, 0
	}
	return decision{
		TaskID: r.TaskID, Path: r.Path, Traces: r.Traces, Violations: r.Violations,
		Complete: r.Complete, Hops: hops, EventVios: r.Event.Violations, RepDeltas: r.Event.RepDeltas,
	}
}

// imposterProxy rebuilds TestClaimProcessingDetected's deployment: p1 names
// an imposter as next hop, and the imposter relabels its non-ownership
// proof as an ownership proof.
func imposterProxy(t *testing.T) (*core.Proxy, poc.ProductID) {
	t.Helper()
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
	ground, err := supplychain.RunTask(g, parts, "p0", tags, nil, supplychain.RoundRobinSplitter)
	if err != nil {
		t.Fatal(err)
	}
	list, err := core.BuildPOCList(members, ground, "task-imp")
	if err != nil {
		t.Fatal(err)
	}
	target := poc.ProductID("prod2")
	misdirector := NewDishonest(members["p1"])
	misdirector.WrongNext[target] = "imposter"
	imposter := NewDishonest(members["imposter"])
	imposter.FakeProcessing[target] = true
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), func(v poc.ParticipantID) (core.Responder, error) {
		switch v {
		case "p1":
			return misdirector, nil
		case "imposter":
			return imposter, nil
		default:
			return members[v], nil
		}
	}, core.ProxyConfig{})
	if err := proxy.RegisterList("task-imp", list); err != nil {
		t.Fatal(err)
	}
	return proxy, target
}

// TestScenariosRepeatIdenticallyThroughMemo runs every query-phase
// behaviour, and the distribution-phase ones, twice on one proxy. The second
// walk finds every honest proof in the proxy's verified-proof memo, and
// must decide exactly what the first did: the same result, violations and
// score changes.
func TestScenariosRepeatIdenticallyThroughMemo(t *testing.T) {
	line := func(n int, mutate func(map[poc.ParticipantID]*core.Member), dishonest func(*lineFixture) map[poc.ParticipantID]*Dishonest) func(*testing.T) (*core.Proxy, poc.ProductID) {
		return func(t *testing.T) (*core.Proxy, poc.ProductID) {
			fx := newLineFixture(t, n, mutate)
			var dis map[poc.ParticipantID]*Dishonest
			if dishonest != nil {
				dis = dishonest(fx)
			}
			return fx.proxyWith(t, dis), fx.product
		}
	}
	liar := func(configure func(*Dishonest, poc.ProductID), who ...poc.ParticipantID) func(*lineFixture) map[poc.ParticipantID]*Dishonest {
		return func(fx *lineFixture) map[poc.ParticipantID]*Dishonest {
			out := make(map[poc.ParticipantID]*Dishonest, len(who))
			for _, v := range who {
				d := NewDishonest(fx.members[v])
				configure(d, fx.product)
				out[v] = d
			}
			return out
		}
	}
	commitTime := func(b DistributionBehavior) func(map[poc.ParticipantID]*core.Member) {
		return func(members map[poc.ParticipantID]*core.Member) {
			if err := Apply(members["p1"], b); err != nil {
				t.Fatal(err)
			}
		}
	}
	scenarios := []struct {
		name    string
		quality core.Quality
		build   func(*testing.T) (*core.Proxy, poc.ProductID)
	}{
		{"claim non-processing", core.Bad, line(4, nil, liar(func(d *Dishonest, id poc.ProductID) {
			d.DenyProcessing[id] = true
		}, "p1"))},
		{"claim non-processing with stonewall", core.Bad, line(3, nil, liar(func(d *Dishonest, id poc.ProductID) {
			d.DenyProcessing[id] = true
			d.RefuseDemand = true
		}, "p1"))},
		{"claim processing", core.Good, imposterProxy},
		{"wrong trace", core.Good, line(3, nil, liar(func(d *Dishonest, id poc.ProductID) {
			d.WrongTrace[id] = []byte("laundered production record")
		}, "p1"))},
		{"wrong next hop", core.Good, line(4, nil, liar(func(d *Dishonest, id poc.ProductID) {
			d.WrongNext[id] = "p3"
		}, "p1"))},
		{"collusion", core.Bad, line(4, nil, liar(func(d *Dishonest, id poc.ProductID) {
			d.DenyProcessing[id] = true
		}, "p0", "p1", "p2", "p3"))},
		{"deletion, good", core.Good, line(4, commitTime(Deletion("prod1")), nil)},
		{"deletion, bad", core.Bad, line(4, commitTime(Deletion("prod1")), nil)},
		{"modification", core.Good, line(3, commitTime(Modification("prod1", []byte("sanitized"))), nil)},
	}
	ctx := context.Background()
	for _, sc := range scenarios {
		proxy, id := sc.build(t)
		first, err := proxy.QueryPath(ctx, id, sc.quality)
		if err != nil {
			t.Fatal(err)
		}
		once := proxy.Scores()
		second, err := proxy.QueryPath(ctx, id, sc.quality)
		if err != nil {
			t.Fatal(err)
		}
		twice := proxy.Scores()
		if second.Event.VerifyMemoHits == 0 {
			t.Fatalf("%s: the repeat walk never hit the memo", sc.name)
		}
		if a, b := decided(first), decided(second); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: the repeat decided differently:\nfirst:  %+v\nsecond: %+v", sc.name, a, b)
		}
		for v, s := range once {
			if d := twice[v] - s; d != s {
				t.Fatalf("%s: %s moved %v on the first walk, %v on the repeat", sc.name, v, s, d)
			}
		}
	}
}
