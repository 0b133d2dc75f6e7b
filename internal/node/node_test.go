package node

import (
	"context"
	"errors"
	"testing"

	"fmt"
	"net"
	"sync"

	"desword/internal/adversary"
	"desword/internal/apps"
	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/wire"
	"desword/internal/zkedb"
)

// deployment spins up a full TCP deployment on localhost: one participant
// server per member, a proxy resolving over the directory, and a proxy
// server with its client.
type deployment struct {
	ps      *poc.PublicParams
	members map[poc.ParticipantID]*core.Member
	dist    *core.DistributionResult
	client  *ProxyClient
	product poc.ProductID
	servers map[poc.ParticipantID]*ParticipantServer
}

// stop takes one participant's server down mid-test.
func (d *deployment) stop(id poc.ParticipantID) error {
	srv, ok := d.servers[id]
	if !ok {
		return fmt.Errorf("no server for %s", id)
	}
	delete(d.servers, id)
	return srv.Close()
}

func deploy(t *testing.T, n int, dishonest map[poc.ParticipantID]core.Responder) *deployment {
	t.Helper()
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	g, parts := supplychain.LineGraph(n)
	members := make(map[poc.ParticipantID]*core.Member, n)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("net", 1)
	if err != nil {
		t.Fatal(err)
	}
	ground, err := supplychain.RunTask(g, parts, "p0", tags, nil, supplychain.FirstChildSplitter)
	if err != nil {
		t.Fatal(err)
	}
	list, err := core.BuildPOCList(members, ground, "task-net")
	if err != nil {
		t.Fatal(err)
	}

	dir := make(map[poc.ParticipantID]string, n)
	servers := make(map[poc.ParticipantID]*ParticipantServer, n)
	for id, m := range members {
		responder := core.Responder(m)
		if d, ok := dishonest[id]; ok {
			responder = d
		}
		srv, err := ServeParticipant(context.Background(), "127.0.0.1:0", responder)
		if err != nil {
			t.Fatal(err)
		}
		servers[id] = srv
		t.Cleanup(func() {
			if cerr := srv.Close(); cerr != nil {
				t.Errorf("closing participant server: %v", cerr)
			}
		})
		dir[id] = srv.Addr()
	}

	resolver := DirectoryResolver(dir)
	t.Cleanup(func() {
		if cerr := resolver.Close(); cerr != nil {
			t.Errorf("closing resolver pools: %v", cerr)
		}
	})
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), resolver.Resolver(), core.ProxyConfig{})
	proxySrv, err := ServeProxy(context.Background(), "127.0.0.1:0", proxy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := proxySrv.Close(); cerr != nil {
			t.Errorf("closing proxy server: %v", cerr)
		}
	})
	client := NewProxyClient(proxySrv.Addr())
	t.Cleanup(func() {
		if cerr := client.Close(); cerr != nil {
			t.Errorf("closing client pool: %v", cerr)
		}
	})

	// The initial participant submits the POC list over the wire, exercising
	// the registration path end to end.
	if err := client.RegisterList(context.Background(), "task-net", list); err != nil {
		t.Fatalf("RegisterList over TCP: %v", err)
	}
	return &deployment{
		ps:      ps,
		members: members,
		dist:    &core.DistributionResult{TaskID: "task-net", List: list, Ground: ground},
		client:  client,
		product: "net1",
		servers: servers,
	}
}

func TestNetworkEndToEndGoodQuery(t *testing.T) {
	d := deploy(t, 4, nil)
	result, err := d.client.QueryPath(context.Background(), d.product, core.Good)
	if err != nil {
		t.Fatalf("QueryPath over TCP: %v", err)
	}
	want := d.dist.Ground.Paths[d.product]
	if len(result.Path) != len(want) {
		t.Fatalf("path = %v, want %v", result.Path, want)
	}
	for i := range want {
		if result.Path[i] != want[i] {
			t.Fatalf("path = %v, want %v", result.Path, want)
		}
	}
	if len(result.Violations) != 0 || !result.Complete {
		t.Fatalf("honest network run must be clean and complete: %+v", result)
	}
	for _, v := range want {
		tr, ok := result.Traces[v]
		if !ok || len(tr.Data) == 0 {
			t.Fatalf("trace from %s must survive the wire", v)
		}
	}
}

func TestNetworkEndToEndBadQueryWithLiar(t *testing.T) {
	// One dishonest participant over the network: detection must survive
	// serialization.
	var liar *adversary.Dishonest
	d2 := deployWithLiar(t, &liar)
	result, err := d2.client.QueryPath(context.Background(), d2.product, core.Bad)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Violated(core.ViolationClaimNonProcessing) {
		t.Fatalf("lie must be detected across the network: %+v", result.Violations)
	}
	if !result.Complete {
		t.Fatalf("path must be recovered: %v", result.Path)
	}
}

// deployWithLiar deploys a 3-node line where p1 denies processing.
func deployWithLiar(t *testing.T, out **adversary.Dishonest) *deployment {
	t.Helper()
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	g, parts := supplychain.LineGraph(3)
	members := make(map[poc.ParticipantID]*core.Member, 3)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("net", 1)
	if err != nil {
		t.Fatal(err)
	}
	ground, err := supplychain.RunTask(g, parts, "p0", tags, nil, supplychain.FirstChildSplitter)
	if err != nil {
		t.Fatal(err)
	}
	list, err := core.BuildPOCList(members, ground, "task-liar")
	if err != nil {
		t.Fatal(err)
	}
	liar := adversary.NewDishonest(members["p1"])
	liar.DenyProcessing["net1"] = true
	*out = liar

	dir := make(map[poc.ParticipantID]string, 3)
	for id, m := range members {
		responder := core.Responder(m)
		if id == "p1" {
			responder = liar
		}
		srv, err := ServeParticipant(context.Background(), "127.0.0.1:0", responder)
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
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), DirectoryResolver(dir).Resolver(), core.ProxyConfig{})
	proxySrv, err := ServeProxy(context.Background(), "127.0.0.1:0", proxy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := proxySrv.Close(); cerr != nil {
			t.Errorf("closing proxy server: %v", cerr)
		}
	})
	client := NewProxyClient(proxySrv.Addr())
	if err := client.RegisterList(context.Background(), "task-liar", list); err != nil {
		t.Fatal(err)
	}
	return &deployment{ps: ps, members: members, client: client, product: "net1"}
}

func TestGetParamsOverWire(t *testing.T) {
	d := deploy(t, 2, nil)
	ps, err := d.client.GetParams(context.Background())
	if err != nil {
		t.Fatalf("GetParams: %v", err)
	}
	// The fetched parameters must be usable: aggregate and verify a proof.
	credential, dpoc, err := poc.Agg(ps, "vX", []poc.Trace{{Product: "w1", Data: []byte("d")}}, poc.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := dpoc.Prove(context.Background(), "w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poc.Verify(context.Background(), d.ps, credential, "w1", proof); err != nil {
		t.Fatalf("proof under fetched params must verify under original params: %v", err)
	}
}

func TestScoresOverWire(t *testing.T) {
	d := deploy(t, 3, nil)
	if _, err := d.client.QueryPath(context.Background(), d.product, core.Good); err != nil {
		t.Fatal(err)
	}
	scores, err := d.client.Scores(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if scores["p0"] <= 0 {
		t.Fatalf("scores must be visible over the wire: %v", scores)
	}
}

func TestRegisterListErrorsPropagate(t *testing.T) {
	d := deploy(t, 2, nil)
	if err := d.client.RegisterList(context.Background(), "task-net", d.dist.List); err == nil {
		t.Fatal("duplicate registration must propagate as a remote error")
	}
	bad := poc.NewList()
	bad.AddPair("x", "y")
	if err := d.client.RegisterList(context.Background(), "task-bad", bad); err == nil {
		t.Fatal("invalid list must propagate as a remote error")
	}
}

func TestUnknownMessageTypeRejected(t *testing.T) {
	// A participant server does not understand proxy-side messages: it must
	// answer with an error envelope, which the client surfaces.
	m := core.NewMember(mustPS(t), supplychain.NewParticipant("solo"))
	srv, err := ServeParticipant(context.Background(), "127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := srv.Close(); cerr != nil {
			t.Errorf("closing participant server: %v", cerr)
		}
	})
	c := NewProxyClient(srv.Addr())
	if _, err := c.Scores(context.Background()); err == nil {
		t.Fatal("participant server must reject proxy-side messages")
	}
}

func TestDialDeadAddressFails(t *testing.T) {
	c := NewResponderClient("127.0.0.1:1") // nothing listening
	if _, err := c.Query(context.Background(), "t", "x", core.Good); err == nil {
		t.Fatal("dialing a dead address must fail")
	}
	if _, err := c.DemandOwnership(context.Background(), "t", "x"); err == nil {
		t.Fatal("dialing a dead address must fail")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	m := core.NewMember(mustPS(t), supplychain.NewParticipant("solo"))
	srv, err := ServeParticipant(context.Background(), "127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close must be a no-op")
	}
}

func mustPS(t *testing.T) *poc.PublicParams {
	t.Helper()
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestAuditLogOverWire(t *testing.T) {
	d := deploy(t, 3, nil)
	if _, err := d.client.QueryPath(context.Background(), d.product, core.Good); err != nil {
		t.Fatal(err)
	}
	entries, err := d.client.AuditLog(context.Background())
	if err != nil {
		t.Fatalf("AuditLog (client verifies the chain itself): %v", err)
	}
	if len(entries) != 3 {
		t.Fatalf("expected 3 audit entries (one per path hop), got %d", len(entries))
	}
	// Replay must match the published scores.
	replayed := reputation.ReplayScores(entries)
	scores, err := d.client.Scores(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for v, want := range scores {
		if replayed[v] != want {
			t.Fatalf("replayed score for %s = %v, want %v", v, replayed[v], want)
		}
	}
}

// TestAuditLogRejectsMultiChainReply pins the audit wire contract: a reply
// in the former multi-chain form (per-partition chains under "shards", empty
// top-level entries, zero head, the summed count) fails verification with
// reputation.ErrAuditChain and never comes back as a verified empty history.
func TestAuditLogRejectsMultiChainReply(t *testing.T) {
	var chains []wire.AuditChain
	var total uint64
	for _, v := range []supplychain.ParticipantID{"p0", "p1"} {
		l := reputation.NewLedger()
		l.Adjust(reputation.Event{Participant: v, Product: "id", Delta: 1, Reason: "award"})
		head, count := l.Head()
		chains = append(chains, wire.AuditChain{Entries: l.AuditLog(), Head: head[:], Count: count})
		total += count
	}
	reply := struct {
		wire.AuditChain
		Shards []wire.AuditChain `json:"shards"`
	}{wire.AuditChain{Entries: []reputation.AuditEntry{}, Head: make([]byte, 32), Count: total}, chains}
	addr := startWireServer(t, func(env *wire.Envelope) *wire.Envelope {
		resp, err := wire.NewEnvelope(wire.TypeAuditChain, reply)
		if err != nil {
			t.Errorf("building audit reply: %v", err)
			return nil
		}
		resp.ReqID = env.RequestID()
		return resp
	})
	client := NewProxyClient(addr, WithRetries(0))
	defer client.Close()
	entries, err := client.AuditLog(context.Background())
	if !errors.Is(err, reputation.ErrAuditChain) {
		t.Fatalf("AuditLog returned %d entries, err %v; want reputation.ErrAuditChain", len(entries), err)
	}
	if entries != nil {
		t.Fatalf("a rejected chain still returned %d entries", len(entries))
	}
}

// The TCP proxy client must satisfy the application-facing interface, so the
// same application code (package apps) runs embedded or distributed.
var _ apps.QueryClient = (*ProxyClient)(nil)

// TestServerSurvivesGarbageFrames writes raw garbage at a participant
// server: the connection must be dropped without taking the server down.
func TestServerSurvivesGarbageFrames(t *testing.T) {
	m := core.NewMember(mustPS(t), supplychain.NewParticipant("tough"))
	if _, err := m.CommitTask("t"); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeParticipant(context.Background(), "127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cerr := srv.Close(); cerr != nil {
			t.Errorf("closing server: %v", cerr)
		}
	})

	for _, garbage := range [][]byte{
		{0xff, 0xff, 0xff, 0xff},              // oversized frame length
		{0, 0, 0, 5, 'j', 'u', 'n', 'k', '!'}, // non-JSON frame
		{0, 0, 0, 20, '{', '}'},               // truncated frame
	} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(garbage); err != nil {
			t.Fatal(err)
		}
		if cerr := conn.Close(); cerr != nil {
			t.Fatal(cerr)
		}
	}

	// The server must still answer a well-formed request.
	client := NewResponderClient(srv.Addr())
	resp, err := client.Query(context.Background(), "t", "anything", core.Bad)
	if err != nil {
		t.Fatalf("server must survive garbage: %v", err)
	}
	if resp.Claim != core.ClaimNotProcessed {
		t.Fatalf("unexpected claim %v", resp.Claim)
	}
}

// TestConcurrentNetworkClients runs parallel full path queries through the
// TCP stack.
func TestConcurrentNetworkClients(t *testing.T) {
	d := deploy(t, 3, nil)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			result, err := d.client.QueryPath(context.Background(), d.product, core.Good)
			if err != nil {
				errCh <- err
				return
			}
			if len(result.Path) != 3 {
				errCh <- fmt.Errorf("path = %v", result.Path)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestUnknownTypeGetsErrorReply pins what a peer still sending a retired
// message (the fleet telemetry poll, the batch path query) gets from either
// server: an error reply naming the type, on a connection that stays pooled
// and carries the next query.
func TestUnknownTypeGetsErrorReply(t *testing.T) {
	d := deploy(t, 3, nil)
	ctx := context.Background()
	check := func(server string, p *Pool, query func() error) {
		t.Helper()
		for _, msgType := range []string{"telemetry", "query_path_batch"} {
			env, err := p.Exchange(ctx, msgType, struct{}{})
			if err != nil {
				t.Fatalf("%s: %s exchange: %v", server, msgType, err)
			}
			var er wire.ErrorResponse
			if env.Type != wire.TypeError || env.Decode(&er) != nil {
				t.Fatalf("%s: %s answered with %q, want an error reply", server, msgType, env.Type)
			}
			if want := "unknown message type " + msgType; er.Message != want {
				t.Fatalf("%s: error reply %q, want %q", server, er.Message, want)
			}
			before := p.Stats()
			if err := query(); err != nil {
				t.Fatalf("%s: query after the %s error reply: %v", server, msgType, err)
			}
			if after := p.Stats(); after.Dials != before.Dials || after.Reuses != before.Reuses+1 {
				t.Fatalf("%s: query after %s did not reuse the pooled connection: %+v, then %+v", server, msgType, before, after)
			}
		}
	}

	rc := NewResponderClient(d.servers["p0"].Addr())
	defer func() {
		if cerr := rc.Close(); cerr != nil {
			t.Errorf("closing responder client: %v", cerr)
		}
	}()
	check("participant", rc.Pool(), func() error {
		_, err := rc.Query(ctx, d.dist.TaskID, d.product, core.Good)
		return err
	})
	check("proxy", d.client.pool, func() error {
		_, err := d.client.QueryPath(ctx, d.product, core.Good)
		return err
	})
}
