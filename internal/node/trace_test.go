package node

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"desword/internal/core"
	"desword/internal/obs"
	"desword/internal/trace"
	"desword/internal/wire"
)

// syncBuffer lets concurrent server goroutines share one log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines decodes the captured JSON log records.
func (b *syncBuffer) logLines(t *testing.T) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q is not JSON: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestNetworkQueryProducesDistributedTrace is the tracing acceptance test: a
// networked path query rooted at the client produces ONE trace whose span
// tree shows the proxy's per-hop timeline with wire round trips, the
// participants' server fragments, and ZK-EDB proof generation/verification —
// retrievable as JSON from /debug/traces/<id> — and the same trace id is
// stamped on proxy-side and participant-side slog output.
func TestNetworkQueryProducesDistributedTrace(t *testing.T) {
	logs := &syncBuffer{}
	oldLogger := slog.Default()
	slog.SetDefault(slog.New(obs.TraceHandler(slog.NewJSONHandler(logs, nil))))
	t.Cleanup(func() { slog.SetDefault(oldLogger) })

	trace.Default.SetSampleRate(1)
	t.Cleanup(func() { trace.Default.SetSampleRate(0) })

	const hops = 3
	d := deploy(t, hops, nil)

	ctx, root := trace.Default.Start(context.Background(), "customer.query")
	result, err := d.client.QueryPath(ctx, d.product, core.Good)
	root.End()
	if err != nil {
		t.Fatalf("QueryPath over TCP: %v", err)
	}

	if result.TraceID == "" {
		t.Fatal("result carries no trace id")
	}
	if !trace.ValidTraceID(result.TraceID) {
		t.Fatalf("result trace id %q is malformed", result.TraceID)
	}
	if result.TraceID != root.TraceID() {
		t.Fatalf("proxy rooted a fresh trace %s instead of continuing the client's %s",
			result.TraceID, root.TraceID())
	}

	td, ok := trace.Default.Recorder().Get(result.TraceID)
	if !ok {
		t.Fatalf("trace %s missing from recorder", result.TraceID)
	}
	count := func(prefix string) int {
		n := 0
		for _, s := range td.Spans {
			if strings.HasPrefix(s.Name, prefix) {
				n++
			}
		}
		return n
	}
	// One query root on the proxy, one identified hop span per participant on
	// the path, at least one wire round trip and one participant-side server
	// fragment per hop, and ZK-EDB proof work on both sides of each hop.
	if got := count("proxy.query_path"); got != 1 {
		t.Fatalf("%d proxy.query_path spans, want 1", got)
	}
	if got := count("hop.identify"); got < hops {
		t.Fatalf("%d hop.identify spans, want >= %d", got, hops)
	}
	if got := count("wire.query"); got < hops {
		t.Fatalf("%d wire.query spans, want >= %d", got, hops)
	}
	if got := count("server.query"); got < hops {
		t.Fatalf("%d participant server spans, want >= %d", got, hops)
	}
	if got := count("member.query"); got < hops {
		t.Fatalf("%d member.query spans, want >= %d", got, hops)
	}
	if got := count("zkedb.prove"); got < hops {
		t.Fatalf("%d zkedb.prove spans, want >= %d", got, hops)
	}
	if got := count("zkedb.verify"); got < hops {
		t.Fatalf("%d zkedb.verify spans, want >= %d", got, hops)
	}

	// The span tree hangs together: the proxy's query root sits under the
	// proxy server's remote-continued span, each hop span carries a wire
	// child, and proof generation nests below the participants' fragments.
	var proxyRoot *trace.SpanNode
	var findQueryPath func(ns []*trace.SpanNode)
	findQueryPath = func(ns []*trace.SpanNode) {
		for _, n := range ns {
			if n.Name == "proxy.query_path" {
				proxyRoot = n
				return
			}
			findQueryPath(n.Children)
		}
	}
	findQueryPath(td.Tree())
	if proxyRoot == nil {
		t.Fatal("proxy.query_path not reachable in the span tree")
	}
	hopsWithWire := 0
	var sawProve bool
	var walk func(n *trace.SpanNode, underHop bool)
	walk = func(n *trace.SpanNode, underHop bool) {
		isHop := n.Name == "hop.identify"
		if isHop {
			for _, c := range n.Children {
				if strings.HasPrefix(c.Name, "wire.") {
					hopsWithWire++
					break
				}
			}
		}
		if n.Name == "zkedb.prove" && underHop {
			sawProve = true
		}
		for _, c := range n.Children {
			walk(c, underHop || isHop)
		}
	}
	walk(proxyRoot, false)
	if hopsWithWire < hops {
		t.Fatalf("%d hop spans carry a wire child, want >= %d", hopsWithWire, hops)
	}
	if !sawProve {
		t.Fatal("no zkedb.prove span nests under a hop span: participant fragments were not grafted")
	}

	// A warm repeat is served from the participants' proof caches and the
	// proxy's verified-proof memo: each participant's poc.prove span is
	// tagged cache=hit and each proxy poc.verify span memo=hit, and neither
	// has the proof work's span below it.
	warmCtx, warmRoot := trace.Default.Start(context.Background(), "customer.query")
	if _, err := d.client.QueryPath(warmCtx, d.product, core.Good); err != nil {
		t.Fatalf("warm QueryPath over TCP: %v", err)
	}
	warmRoot.End()
	warm, ok := trace.Default.Recorder().Get(warmRoot.TraceID())
	if !ok {
		t.Fatalf("warm trace %s missing from recorder", warmRoot.TraceID())
	}
	tagged := map[string]int{}
	var checkWarm func(n *trace.SpanNode)
	checkWarm = func(n *trace.SpanNode) {
		if n.Name == "poc.prove" || n.Name == "poc.verify" {
			for _, a := range n.Attrs {
				if a.Key == "cache" || a.Key == "memo" {
					tagged[n.Name+" "+a.Key+"="+a.Value]++
				}
			}
			for _, c := range n.Children {
				t.Errorf("warm %s span has a %s child", n.Name, c.Name)
			}
		}
		for _, c := range n.Children {
			checkWarm(c)
		}
	}
	for _, n := range warm.Tree() {
		checkWarm(n)
	}
	if want := map[string]int{"poc.prove cache=hit": hops, "poc.verify memo=hit": hops}; !reflect.DeepEqual(tagged, want) {
		t.Fatalf("warm query's tagged proof spans = %v, want %v", tagged, want)
	}

	// The trace is retrievable from the admin endpoint's /debug/traces/<id>.
	admin := httptest.NewServer(obs.AdminMux(obs.Default))
	defer admin.Close()
	resp, err := http.Get(admin.URL + "/debug/traces/" + result.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d", result.TraceID, resp.StatusCode)
	}
	var detail struct {
		TraceID string            `json:"trace_id"`
		Spans   int               `json:"spans"`
		Tree    []*trace.SpanNode `json:"tree"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&detail); err != nil {
		t.Fatalf("decoding /debug/traces/%s: %v", result.TraceID, err)
	}
	if detail.TraceID != result.TraceID || detail.Spans != len(td.Spans) || len(detail.Tree) == 0 {
		t.Fatalf("explorer detail %+v does not match recorder (want %d spans)", detail, len(td.Spans))
	}

	// The list view names the trace too.
	listResp, err := http.Get(admin.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var summaries []trace.Summary
	if err := json.NewDecoder(listResp.Body).Decode(&summaries); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range summaries {
		if s.TraceID == result.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s missing from /debug/traces list", result.TraceID)
	}

	// Unknown and malformed ids are rejected cleanly.
	for path, want := range map[string]int{
		"/debug/traces/" + strings.Repeat("0", 32): http.StatusNotFound,
		"/debug/traces/NOT-A-TRACE-ID":             http.StatusBadRequest,
	} {
		r, err := admin.Client().Get(admin.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, r.StatusCode, want)
		}
	}

	// Both sides of the wire logged under the same trace id.
	roleSawTrace := map[string]bool{}
	for _, rec := range logs.logLines(t) {
		if rec["msg"] != "traced request handled" {
			continue
		}
		if rec["trace_id"] == result.TraceID {
			role, _ := rec["role"].(string)
			roleSawTrace[role] = true
		}
	}
	if !roleSawTrace["proxy"] {
		t.Fatal("no proxy-side log record carries the trace id")
	}
	if !roleSawTrace["participant"] {
		t.Fatal("no participant-side log record carries the trace id")
	}
}

// TestUntracedQueryStaysUntraced pins the rate-0 fast path end to end: with
// sampling off and an untraced client, a networked query records nothing and
// the result carries no trace id.
func TestUntracedQueryStaysUntraced(t *testing.T) {
	before := trace.Default.Recorder().Len()
	d := deploy(t, 3, nil)
	result, err := d.client.QueryPath(context.Background(), d.product, core.Good)
	if err != nil {
		t.Fatal(err)
	}
	if result.TraceID != "" {
		t.Fatalf("unsampled query carries trace id %q", result.TraceID)
	}
	if after := trace.Default.Recorder().Len(); after != before {
		t.Fatalf("unsampled query grew the recorder from %d to %d traces", before, after)
	}
}

// TestMaliciousTraceHeadersIgnored pins the validation on incoming wire
// headers: a peer cannot inject arbitrary strings into the trace explorer or
// the logs by forging trace context.
func TestMaliciousTraceHeadersIgnored(t *testing.T) {
	trace.Default.SetSampleRate(0)
	d := deploy(t, 2, nil)

	for i, hdr := range []struct{ traceID, spanID string }{
		{"<script>alert(1)</script>aaaaaaaa", "0123456789abcdef"},
		{strings.Repeat("a", 32), "not-hex"},
		{strings.Repeat("a", 31), "0123456789abcdef"},
	} {
		before := trace.Default.Recorder().Len()
		// Hand-roll the exchange so the forged headers reach the proxy server.
		env, err := forgeQuery(d, hdr.traceID, hdr.spanID)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if env.TraceID != "" || len(env.Spans) != 0 {
			t.Fatalf("case %d: response to forged headers carries trace context %q", i, env.TraceID)
		}
		if after := trace.Default.Recorder().Len(); after != before {
			t.Fatalf("case %d: forged headers recorded a trace", i)
		}
	}
}

// forgeQuery sends a query_path request with attacker-controlled trace
// headers straight over TCP, bypassing the client's header validation.
func forgeQuery(d *deployment, traceID, spanID string) (*wire.Envelope, error) {
	conn, err := net.Dial("tcp", d.client.Pool().Addr())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	req, err := wire.NewEnvelope(wire.TypeQueryPath,
		&wire.QueryPathRequest{Product: d.product, Quality: int(core.Good)})
	if err != nil {
		return nil, err
	}
	req.TraceID = traceID
	req.SpanID = spanID
	if err := wire.WriteEnvelope(conn, req); err != nil {
		return nil, err
	}
	return wire.ReadMessage(conn)
}
