package telemetry_test

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"desword/internal/core"
	"desword/internal/node"
	"desword/internal/obs"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/telemetry"
	"desword/internal/trace"
	"desword/internal/zkedb"
)

// TestTelemetrySmoke is the CI end-to-end gate (make telemetry-smoke): it
// deploys a small chain over real TCP, runs traced queries, pulls every
// process's registry over the wire telemetry message into a fleet monitor,
// and asserts against the admin HTTP surface that
//
//   - /debug/statusz?format=json carries per-peer windowed stats (rates,
//     latency quantiles) and per-objective SLO states, and
//   - a slow-query exemplar's trace id resolves at /debug/traces/<id>.
//
// It lives in package telemetry_test because it imports node (which imports
// telemetry).
func TestTelemetrySmoke(t *testing.T) {
	trace.Default.SetService("smoke")
	trace.Default.SetSampleRate(1)
	defer trace.Default.SetSampleRate(0)

	// A 3-hop chain, committed and served over TCP.
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
	tags, err := supplychain.MintTags("smoke", 1)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, "task-smoke")
	if err != nil {
		t.Fatal(err)
	}

	dir := make(map[poc.ParticipantID]string, hops)
	for id, m := range members {
		srv, err := node.ServeParticipant(context.Background(), "127.0.0.1:0", m)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		dir[id] = srv.Addr()
	}
	directory := node.DirectoryResolver(dir)
	defer directory.Close()
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), directory.Resolver(), core.ProxyConfig{})
	proxySrv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy)
	if err != nil {
		t.Fatal(err)
	}
	defer proxySrv.Close()
	client := node.NewProxyClient(proxySrv.Addr())
	defer client.Close()
	if err := client.RegisterList(context.Background(), "task-smoke", dist.List); err != nil {
		t.Fatal(err)
	}

	// Traced traffic: every query records a desword_query_latency_seconds
	// observation carrying its trace id as an exemplar.
	for i := 0; i < 3; i++ {
		result, err := client.QueryPath(context.Background(), poc.ProductID("smoke1"), core.Good)
		if err != nil {
			t.Fatal(err)
		}
		if len(result.Path) != hops {
			t.Fatalf("query identified %d of %d hops", len(result.Path), hops)
		}
	}

	// Fleet monitor: the proxy and every participant as wire peers, with an
	// SLO over query latency.
	objectives, err := telemetry.ParseSLO("p99(desword_query_latency_seconds)<10s")
	if err != nil {
		t.Fatal(err)
	}
	monitor := telemetry.NewMonitor(
		telemetry.WithPollInterval(50*time.Millisecond),
		telemetry.WithObjectives(objectives))
	proxyClient := node.NewProxyClient(proxySrv.Addr())
	defer proxyClient.Close()
	monitor.AddPeer("proxy", proxyClient.Telemetry)
	for id, addr := range dir {
		rc := node.NewResponderClient(addr)
		defer rc.Close()
		monitor.AddPeer(string(id), rc.Telemetry)
	}
	monitor.Poll(context.Background())

	adminSrv, err := obs.ServeAdmin("127.0.0.1:0", obs.Default,
		obs.WithRoute("/debug/statusz", telemetry.StatuszHandler(monitor)))
	if err != nil {
		t.Fatal(err)
	}
	defer adminSrv.Close()
	base := "http://" + adminSrv.Addr()

	// Fleet statusz JSON: every peer present, healthy, with SLO readings;
	// the proxy's stats must include query-latency quantiles.
	var fleet telemetry.FleetStatus
	getJSON(t, base+"/debug/statusz?format=json", &fleet)
	if len(fleet.Peers) != hops+1 {
		t.Fatalf("statusz lists %d peers, want %d", len(fleet.Peers), hops+1)
	}
	var exemplarID string
	for _, peer := range fleet.Peers {
		if peer.Error != "" {
			t.Fatalf("peer %s reports error: %s", peer.Name, peer.Error)
		}
		if len(peer.SLO) == 0 {
			t.Fatalf("peer %s has no SLO readings", peer.Name)
		}
		for _, st := range peer.SLO {
			if st.State == telemetry.StateBreach {
				t.Fatalf("peer %s breaches %s: value %v", peer.Name, st.Objective, st.Value)
			}
		}
		if peer.Name != "proxy" {
			continue
		}
		// The family has one series per query quality; only the good-path
		// series saw traffic, and it must carry quantiles and an exemplar.
		sawLatency := false
		for _, s := range peer.Stats {
			if s.Name != "desword_query_latency_seconds" || s.Count == 0 {
				continue
			}
			if s.P99 <= 0 {
				t.Fatalf("proxy query latency series lacks quantiles: %+v", s)
			}
			sawLatency = true
			for _, ex := range s.Exemplars {
				if ex.TraceID != "" {
					exemplarID = ex.TraceID
				}
			}
		}
		if !sawLatency {
			t.Fatal("proxy peer shows no populated query-latency series")
		}
	}
	if exemplarID == "" {
		t.Fatal("no query-latency exemplar with a trace id on the proxy peer")
	}

	// The exemplar must link to a resolvable trace.
	var td struct {
		TraceID string `json:"trace_id"`
		Spans   int    `json:"spans"`
	}
	getJSON(t, base+"/debug/traces/"+exemplarID, &td)
	if td.TraceID != exemplarID || td.Spans == 0 {
		t.Fatalf("exemplar trace %s did not resolve: %+v", exemplarID, td)
	}
}

// getJSON fetches url and decodes the 200 response into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}
