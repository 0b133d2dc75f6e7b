package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
)

// nextOmitter strips the next-hop pointer from every answer, forcing the
// proxy to fall back to probing the POC list's recorded children at each
// hop.
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

// queryCounts counts the Query interactions each participant receives.
type queryCounts struct {
	mu sync.Mutex
	n  map[poc.ParticipantID]int // guarded by mu
}

// take returns the counts since the last take and resets them.
func (c *queryCounts) take() map[poc.ParticipantID]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.n
	c.n = make(map[poc.ParticipantID]int)
	return n
}

// countingResponder counts every Query it forwards to its participant.
type countingResponder struct {
	Responder
	id     poc.ParticipantID
	counts *queryCounts
}

func (r countingResponder) Query(ctx context.Context, taskID string, id poc.ProductID, quality Quality) (*Response, error) {
	r.counts.mu.Lock()
	r.counts.n[r.id]++
	r.counts.mu.Unlock()
	return r.Responder.Query(ctx, taskID, id, quality)
}

// omittingFixture deploys the Figure 1 digraph with every participant
// omitting its next hop and counting the Query interactions it receives.
func omittingFixture(t *testing.T, products int) (*Proxy, *DistributionResult, *queryCounts) {
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
	dist, err := RunDistribution(ps, g, members, "v0", tags, nil, supplychain.RoundRobinSplitter, "task-omit")
	if err != nil {
		t.Fatal(err)
	}
	counts := &queryCounts{n: make(map[poc.ParticipantID]int)}
	resolver := func(v poc.ParticipantID) (Responder, error) {
		m, ok := members[v]
		if !ok {
			return nil, fmt.Errorf("no member %s", v)
		}
		return countingResponder{Responder: nextOmitter{Responder: m}, id: v, counts: counts}, nil
	}
	proxy := NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver, ProxyConfig{})
	if err := proxy.RegisterList(dist.TaskID, dist.List); err != nil {
		t.Fatal(err)
	}
	return proxy, dist, counts
}

// stripNondeterminism clears what legitimately differs between two runs of
// the same query — trace ids and wall-clock timings — so DeepEqual pins
// everything else: path, violations, traces, hop sequence, rep deltas and
// the resource counters.
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
	}
}

// TestWalkQueriesExactlyTheHopsItRecords pins the walk's one path: when no
// next hop is named, the proxy probes the recorded children one at a time,
// so every participant it queries is a hop its wide event records, and two
// runs of a query on identical deployments agree on everything but trace
// ids and wall-clock time, resource counters included.
func TestWalkQueriesExactlyTheHopsItRecords(t *testing.T) {
	const products = 6
	first, dist, counts := omittingFixture(t, products)
	second, _, _ := omittingFixture(t, products)

	wrongNextHops, calls, hops := 0, 0, 0
	for id := range dist.Ground.Paths {
		for _, quality := range []Quality{Good, Bad} {
			want, err := first.QueryPath(context.Background(), id, quality)
			if err != nil {
				t.Fatalf("QueryPath(%s, %v): %v", id, quality, err)
			}
			queried := counts.take()
			recorded := make(map[poc.ParticipantID]int)
			for _, h := range want.Event.Hops {
				recorded[poc.ParticipantID(h.Participant)]++
			}
			if !reflect.DeepEqual(queried, recorded) {
				t.Fatalf("%s (%v): participants queried %v, hops recorded %v", id, quality, queried, recorded)
			}
			for _, n := range queried {
				calls += n
			}
			hops += len(want.Event.Hops)

			got, err := second.QueryPath(context.Background(), id, quality)
			if err != nil {
				t.Fatalf("second QueryPath(%s, %v): %v", id, quality, err)
			}
			// DeepEqual follows Result.Event, so this compares the two wide
			// events too.
			stripNondeterminism(want)
			stripNondeterminism(got)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("two runs of %s (%v) differ:\nfirst:  %+v\nsecond: %+v", id, quality, want, got)
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
	t.Logf("%d query interactions for %d recorded hops", calls, hops)
}
