package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
)

// nextOmitter strips the next-hop pointer from every answer, forcing the
// proxy to fall back to probing the POC list's recorded children at each hop
// — the code path the concurrent fan-out accelerates.
type nextOmitter struct {
	Responder
}

func (o nextOmitter) Query(ctx context.Context, taskID string, id poc.ProductID, quality Quality) (*Response, error) {
	resp, err := o.Responder.Query(ctx, taskID, id, quality)
	if resp != nil {
		resp.Next = ""
	}
	return resp, err
}

func (o nextOmitter) DemandOwnership(ctx context.Context, taskID string, id poc.ProductID) (*Response, error) {
	resp, err := o.Responder.DemandOwnership(ctx, taskID, id)
	if resp != nil {
		resp.Next = ""
	}
	return resp, err
}

// omittingFixture deploys the Figure 1 digraph with every participant
// omitting its next hop, behind a proxy with the given probe fan-out.
func omittingFixture(t *testing.T, products int, fanout int) (*Proxy, *DistributionResult) {
	t.Helper()
	ps := corePS(t)
	g := supplychain.FigureOneGraph()
	members := make(map[poc.ParticipantID]*Member)
	for _, v := range g.Participants() {
		members[v] = NewMember(ps, supplychain.NewParticipant(v))
	}
	tags, err := supplychain.MintTags("fo", products)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := RunDistribution(ps, g, members, "v0", tags, nil, supplychain.RoundRobinSplitter, "task-fanout")
	if err != nil {
		t.Fatal(err)
	}
	resolver := func(v poc.ParticipantID) (Responder, error) {
		m, ok := members[v]
		if !ok {
			return nil, fmt.Errorf("no member %s", v)
		}
		return nextOmitter{Responder: m}, nil
	}
	proxy := NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, ProxyConfig{ProbeFanout: fanout})
	if err := proxy.RegisterList(dist.TaskID, dist.List); err != nil {
		t.Fatal(err)
	}
	return proxy, dist
}

// stripNondeterminism clears what legitimately differs between two runs of
// the same query — trace ids and wall-clock timings — so DeepEqual pins
// everything else: path, violations, traces, hop sequence, rep deltas.
func stripNondeterminism(r *Result) {
	r.TraceID = ""
	zeroHops := func(hops []events.Hop) {
		for i := range hops {
			hops[i].IdentifyUS, hops[i].ProveUS = 0, 0
			hops[i].VerifyUS, hops[i].DemandUS = 0, 0
		}
	}
	zeroHops(r.hops)
	if r.Event != nil {
		r.Event.Time = time.Time{}
		r.Event.TraceID = ""
		r.Event.DurationUS = 0
		zeroHops(r.Event.Hops)
		// Resource counters legitimately depend on the fan-out: a discarded
		// speculative probe still computed (and cached) its proof, and
		// verified (and memoized) it, and those costs are attributed to the
		// query that spent them.
		r.Event.CacheHits, r.Event.CacheMisses = 0, 0
		r.Event.PoolReused, r.Event.PoolRetries = 0, 0
		r.Event.VerifyMemoHits, r.Event.VerifyMemoMisses = 0, 0
	}
}

// TestProbeFanoutPreservesSerialOutcome pins the determinism argument of the
// concurrent child probing: at any fan-out, every query must produce exactly
// the result of the fully serial walk — path, violation sequence, traces,
// completeness, and the wide event with its hop list.
func TestProbeFanoutPreservesSerialOutcome(t *testing.T) {
	const products = 6
	serial, dist := omittingFixture(t, products, 1)
	parallel, _ := omittingFixture(t, products, 8)

	wrongNextHops := 0
	for id := range dist.Ground.Paths {
		for _, quality := range []Quality{Good, Bad} {
			want, err := serial.QueryPath(context.Background(), id, quality)
			if err != nil {
				t.Fatalf("serial QueryPath(%s, %v): %v", id, quality, err)
			}
			got, err := parallel.QueryPath(context.Background(), id, quality)
			if err != nil {
				t.Fatalf("parallel QueryPath(%s, %v): %v", id, quality, err)
			}
			// Trace ids and wall-clock timings differ per run; everything
			// else observable must not.
			stripNondeterminism(want)
			stripNondeterminism(got)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("fan-out changed the outcome for %s (%v):\nserial:   %+v\nparallel: %+v",
					id, quality, want, got)
			}
			if len(want.Path) == 0 {
				t.Fatalf("omitted next hops must still be recoverable via child probes: %+v", want)
			}
			if want.Violated(ViolationWrongNextHop) {
				wrongNextHops++
			}
		}
	}
	if wrongNextHops == 0 {
		t.Fatal("omitted next hops must register as wrong-next-hop violations")
	}
}

// TestProbeFanoutOptionBounds pins the ProbeFanout guard rails: zero and
// negative values resolve to DefaultProbeFanout, positive ones are kept.
func TestProbeFanoutOptionBounds(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultProbeFanout},
		{-3, DefaultProbeFanout},
		{2, 2},
	} {
		px := NewProxyWithConfig(corePS(t), reputation.DefaultStrategy(), nil, ProxyConfig{ProbeFanout: tc.in})
		if px.cfg.ProbeFanout != tc.want {
			t.Fatalf("ProbeFanout %d resolved to %d, want %d", tc.in, px.cfg.ProbeFanout, tc.want)
		}
	}
}
