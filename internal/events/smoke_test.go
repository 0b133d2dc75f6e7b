package events_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/node"
	"desword/internal/obs"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/trace"
	"desword/internal/zkedb"
)

// TestEventsSmoke is the CI end-to-end gate (make events-smoke): it deploys a
// small chain over real TCP with the flight recorder journaling on the proxy,
// runs good and bad queries, then scans the journal offline the way
// desword-events does and asserts the aggregates agree with the proxy's live
// metrics — the property that makes journals trustworthy evidence. Repeat
// queries also cross the proxy's verified-proof memo on proofs that came
// off the wire: the first walk misses on every hop, later ones hit, and the
// journal's memo counts match the live ones. The last query is traced, and
// the admin surface must link its /debug/events entry to a resolvable
// /debug/traces/<id>. It lives in package events_test because it imports
// node (which imports events).
func TestEventsSmoke(t *testing.T) {
	const hops = 3
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	g, parts := supplychain.LineGraph(hops)
	members := make(map[poc.ParticipantID]*core.Member, hops)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("evsmoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, "task-evsmoke")
	if err != nil {
		t.Fatal(err)
	}

	// The proxy journals into a per-test directory; participants run bare, as
	// a deployment where only the query authority keeps durable evidence.
	dir := t.TempDir()
	cfg := events.Config{Dir: dir}
	sink, err := cfg.Build("proxy")
	if err != nil {
		t.Fatal(err)
	}

	addrs := make(map[poc.ParticipantID]string, hops)
	for id, m := range members {
		srv, err := node.ServeParticipant(context.Background(), "127.0.0.1:0", m)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[id] = srv.Addr()
	}
	directory := node.DirectoryResolver(addrs)
	defer directory.Close()
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), directory.Resolver(),
		core.ProxyConfig{EventSink: sink})
	proxySrv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy,
		node.WithEventSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer proxySrv.Close()
	client := node.NewProxyClient(proxySrv.Addr())
	defer client.Close()
	if err := client.RegisterList(context.Background(), "task-evsmoke", dist.List); err != nil {
		t.Fatal(err)
	}

	// Live-metric baseline: the registry is process-global and other tests
	// ran before this one, so everything below compares deltas.
	goodCtr := obs.Default.Counter("desword_queries_total", "Completed path queries.", "quality", "good")
	badCtr := obs.Default.Counter("desword_queries_total", "Completed path queries.", "quality", "bad")
	hopCtr := obs.Default.Counter("desword_query_hops_total", "Query interactions performed.")
	memoHitCtr := obs.Default.Counter("desword_verifymemo_hits", "")
	goodBefore, badBefore, hopsBefore := goodCtr.Value(), badCtr.Value(), hopCtr.Value()
	memoHitsBefore := memoHitCtr.Value()

	const goodQueries, badQueries = 3, 1
	var first *core.Result
	for i := 0; i < goodQueries; i++ {
		result, err := client.QueryPath(context.Background(), poc.ProductID("evsmoke1"), core.Good)
		if err != nil {
			t.Fatal(err)
		}
		if len(result.Path) != hops {
			t.Fatalf("query identified %d of %d hops", len(result.Path), hops)
		}
		if result.Event == nil {
			t.Fatal("path result carried no wide event")
		}
		// Every hop verifies one ownership proof: the first walk verifies
		// each afresh, the repeats find each in the memo.
		wantHits, wantMisses := uint64(hops), uint64(0)
		if i == 0 {
			wantHits, wantMisses = 0, hops
			first = result
		}
		if ev := result.Event; ev.VerifyMemoHits != wantHits || ev.VerifyMemoMisses != wantMisses {
			t.Fatalf("query %d: %d memo hits, %d misses; want %d and %d",
				i, ev.VerifyMemoHits, ev.VerifyMemoMisses, wantHits, wantMisses)
		}
		if !reflect.DeepEqual(result.Path, first.Path) || !reflect.DeepEqual(result.Traces, first.Traces) ||
			!reflect.DeepEqual(result.Violations, first.Violations) || result.Complete != first.Complete ||
			!reflect.DeepEqual(result.Event.RepDeltas, first.Event.RepDeltas) {
			t.Fatalf("query %d through the memo differs from the first:\nfirst: %+v\nnow:   %+v", i, first, result)
		}
	}
	rate := trace.Default.SampleRate()
	trace.Default.SetSampleRate(1)
	_, err = client.QueryPath(context.Background(), poc.ProductID("evsmoke1"), core.Bad)
	trace.Default.SetSampleRate(rate)
	if err != nil {
		t.Fatal(err)
	}
	checkTraceLink(t, obs.AdminMux(obs.Default, obs.WithRoute("/debug/events", events.Explorer(sink.Ring()))))

	// Seal the journal, then scan it offline exactly like desword-events.
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := events.Summarize(dir, events.Filter{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.Torn != 0 || sum.Stats.Malformed != 0 {
		t.Fatalf("clean shutdown left damaged journal lines: %+v", sum.Stats)
	}

	// The journal's aggregates must agree with the proxy's live metrics.
	total := goodQueries + badQueries
	if sum.Queries != total {
		t.Fatalf("journal holds %d query events, want %d", sum.Queries, total)
	}
	if got := goodCtr.Value() - goodBefore; got != uint64(sum.ByQuality["good"]) {
		t.Fatalf("good queries: metrics %d, journal %d", got, sum.ByQuality["good"])
	}
	if got := badCtr.Value() - badBefore; got != uint64(sum.ByQuality["bad"]) {
		t.Fatalf("bad queries: metrics %d, journal %d", got, sum.ByQuality["bad"])
	}
	if got := hopCtr.Value() - hopsBefore; got != uint64(sum.Hops) {
		t.Fatalf("hops: metrics %d, journal %d", got, sum.Hops)
	}
	if got := memoHitCtr.Value() - memoHitsBefore; got != sum.VerifyMemoHits || got == 0 {
		t.Fatalf("verify memo hits: metrics %d, journal %d", got, sum.VerifyMemoHits)
	}
	if sum.ByOutcome[string(events.OutcomeComplete)] != total {
		t.Fatalf("outcomes: %+v, want %d complete", sum.ByOutcome, total)
	}
	if n := len(sum.Violations); n != 0 {
		t.Fatalf("honest chain produced violations: %+v", sum.Violations)
	}

	// The proxy's node server journals its own handled requests too: at
	// least one query_path request per query must appear.
	if sum.ByKind["node_request"] < total {
		t.Fatalf("journal holds %d node_request events, want >= %d", sum.ByKind["node_request"], total)
	}
	if sum.ByKind["query"] != total {
		t.Fatalf("journal holds %d query events, want %d", sum.ByKind["query"], total)
	}

	// Top-N slow queries carry per-hop breakdowns an investigator can read.
	if len(sum.Slowest) != 2 {
		t.Fatalf("summarizer kept %d slowest, want 2", len(sum.Slowest))
	}
	for _, ev := range sum.Slowest {
		if len(ev.Hops) != hops {
			t.Fatalf("slow query has %d hops, want %d: %+v", len(ev.Hops), hops, ev)
		}
		for _, h := range ev.Hops {
			if h.Participant == "" || !h.Identified || h.IdentifyUS <= 0 {
				t.Fatalf("hop breakdown incomplete: %+v", h)
			}
		}
	}
}

// checkTraceLink requires exactly one query entry on /debug/events to carry a
// trace_url — the one sampled query — and that URL to resolve, on the same
// admin mux, to that query's trace with its spans.
func checkTraceLink(t *testing.T, mux *http.ServeMux) {
	t.Helper()
	get := func(url string, out any) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", url, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	var page struct {
		Events []struct {
			TraceID  string `json:"trace_id"`
			TraceURL string `json:"trace_url"`
		} `json:"events"`
	}
	get("/debug/events?kind=query", &page)
	var traceID, traceURL string
	for _, ev := range page.Events {
		if ev.TraceURL == "" {
			continue
		}
		if traceURL != "" {
			t.Fatalf("two query events carry a trace_url (%s, %s); one query was sampled", traceURL, ev.TraceURL)
		}
		traceID, traceURL = ev.TraceID, ev.TraceURL
	}
	if traceURL == "" {
		t.Fatalf("no query event among %d carries a trace_url", len(page.Events))
	}
	var td struct {
		TraceID string            `json:"trace_id"`
		Spans   int               `json:"spans"`
		Tree    []*trace.SpanNode `json:"tree"`
	}
	get(traceURL, &td)
	if td.TraceID != traceID || td.Spans == 0 || len(td.Tree) == 0 {
		t.Fatalf("%s did not resolve to trace %s with spans: %+v", traceURL, traceID, td)
	}
}
