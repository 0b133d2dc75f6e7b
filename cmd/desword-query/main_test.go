package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/node"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

// served is a three-hop chain over loopback TCP: one participant server per
// member, a proxy server over them with the chain's POC list registered, and
// a pooled client in front of it.
type served struct {
	proxy    *core.Proxy
	client   *node.ProxyClient
	paths    map[poc.ProductID][]poc.ParticipantID
	products []poc.ProductID // sorted
}

func serve(t *testing.T, products int) *served {
	t.Helper()
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	g, parts := supplychain.LineGraph(3)
	members := make(map[poc.ParticipantID]*core.Member, len(parts))
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("cli", products)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, "task-cli")
	if err != nil {
		t.Fatal(err)
	}
	dir := make(map[poc.ParticipantID]string, len(members))
	for id, m := range members {
		srv, err := node.ServeParticipant(context.Background(), "127.0.0.1:0", m)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if cerr := srv.Close(); cerr != nil {
				t.Errorf("closing participant server: %v", cerr)
			}
		})
		dir[id] = srv.Addr()
	}
	directory := node.DirectoryResolver(dir)
	t.Cleanup(func() {
		if cerr := directory.Close(); cerr != nil {
			t.Errorf("closing participant clients: %v", cerr)
		}
	})
	s := &served{
		proxy: core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), directory.Resolver(), core.ProxyConfig{}),
		paths: dist.Ground.Paths,
	}
	if err := s.proxy.RegisterList(dist.TaskID, dist.List); err != nil {
		t.Fatal(err)
	}
	srv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", s.proxy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := srv.Close(); cerr != nil {
			t.Errorf("closing proxy server: %v", cerr)
		}
	})
	s.client = node.NewProxyClient(srv.Addr())
	t.Cleanup(func() {
		if cerr := s.client.Close(); cerr != nil {
			t.Errorf("closing proxy client: %v", cerr)
		}
	})
	for id := range s.paths {
		s.products = append(s.products, id)
	}
	sort.Slice(s.products, func(i, j int) bool { return s.products[i] < s.products[j] })
	return s
}

// TestBatchQueriesEachDistinctIDOnce drives -batch against a served chain
// with one repeated and one unknown id: the repeated id is walked and
// settled once, the unknown id prints "no verifiable origin", and every
// other id completes. The -json rendering carries one wide event per given
// id, in order.
func TestBatchQueriesEachDistinctIDOnce(t *testing.T) {
	s := serve(t, 2)
	a, b := s.products[0], s.products[1]
	ids := []poc.ProductID{a, "no-such-product", b, a}

	var out bytes.Buffer
	if err := runBatch(context.Background(), &out, s.client, ids, core.Good, 2, false); err != nil {
		t.Fatalf("runBatch: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(ids)+2 {
		t.Fatalf("got %d lines, want a header, one per id and a summary:\n%s", len(lines), out.String())
	}
	for i, id := range ids {
		want := fmt.Sprintf("path=%d hops complete=true violations=0", len(s.paths[id]))
		if id == "no-such-product" {
			want = "no verifiable origin"
		}
		if line := lines[1+i]; !strings.HasPrefix(strings.TrimSpace(line), string(id)) || !strings.Contains(line, want) {
			t.Errorf("line for %s = %q, want %q", id, line, want)
		}
	}
	if summary := strings.TrimSpace(lines[len(lines)-1]); summary != "4 ok, 0 failed" {
		t.Errorf("summary = %q, want %q", summary, "4 ok, 0 failed")
	}
	if walks := s.proxy.ShardStats()[0].Queries; walks != 3 {
		t.Errorf("proxy ran %d walks, want 3 (one per distinct id)", walks)
	}
	if _, count := s.proxy.Ledger().Head(); count != uint64(len(s.paths[a])+len(s.paths[b])) {
		t.Errorf("ledger holds %d awards, want %d: the repeated id must settle once",
			count, len(s.paths[a])+len(s.paths[b]))
	}

	out.Reset()
	if err := runBatch(context.Background(), &out, s.client, ids, core.Good, 2, true); err != nil {
		t.Fatalf("runBatch -json: %v", err)
	}
	var rendered struct {
		Items []batchItemJSON `json:"items"`
	}
	if err := json.Unmarshal(out.Bytes(), &rendered); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out.String())
	}
	if len(rendered.Items) != len(ids) {
		t.Fatalf("-json has %d items, want %d", len(rendered.Items), len(ids))
	}
	for i, item := range rendered.Items {
		want := events.OutcomeComplete
		if ids[i] == "no-such-product" {
			want = events.OutcomeNoOrigin
		}
		if item.Product != string(ids[i]) || item.Error != "" || item.Event == nil || item.Event.Outcome != want {
			t.Errorf("item %d = %+v, want product %s with a %s event", i, item, ids[i], want)
		}
	}
}
