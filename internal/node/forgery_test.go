package node

import (
	"context"
	"reflect"
	"testing"

	"desword/internal/adversary"
	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

// chainFixture is a committed line chain p0→…→p(n-1) carrying one product,
// whose members a test wraps before serving them.
type chainFixture struct {
	ps      *poc.PublicParams
	members map[poc.ParticipantID]*core.Member
	list    *poc.List
	product poc.ProductID
}

func newChainFixture(t *testing.T, n int) *chainFixture {
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
	list, err := core.BuildPOCList(members, ground, "task-forge")
	if err != nil {
		t.Fatal(err)
	}
	return &chainFixture{ps: ps, members: members, list: list, product: "net1"}
}

// responders returns every member as a responder, with the overrides in
// place of theirs.
func (fx *chainFixture) responders(overrides map[poc.ParticipantID]core.Responder) map[poc.ParticipantID]core.Responder {
	out := make(map[poc.ParticipantID]core.Responder, len(fx.members))
	for id, m := range fx.members {
		out[id] = m
		if r, ok := overrides[id]; ok {
			out[id] = r
		}
	}
	return out
}

// proxy builds a proxy with the chain's list registered, resolving through
// resolve.
func (fx *chainFixture) proxy(t *testing.T, resolve core.Resolver) *core.Proxy {
	t.Helper()
	px := core.NewProxyWithConfig(fx.ps, reputation.DefaultStrategy(), resolve, core.ProxyConfig{})
	if err := px.RegisterList("task-forge", fx.list); err != nil {
		t.Fatal(err)
	}
	return px
}

// inProcess resolves straight to the responders.
func inProcess(responders map[poc.ParticipantID]core.Responder) core.Resolver {
	return func(v poc.ParticipantID) (core.Responder, error) { return responders[v], nil }
}

// overTCP serves each responder on its own participant server and resolves
// through a directory of their addresses, so every proof crosses the wire.
func overTCP(t *testing.T, responders map[poc.ParticipantID]core.Responder) core.Resolver {
	t.Helper()
	dir := make(map[poc.ParticipantID]string, len(responders))
	for id, r := range responders {
		srv, err := ServeParticipant(context.Background(), "127.0.0.1:0", r)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := srv.Close(); err != nil {
				t.Errorf("closing participant server: %v", err)
			}
		})
		dir[id] = srv.Addr()
	}
	d := DirectoryResolver(dir)
	t.Cleanup(func() {
		if err := d.Close(); err != nil {
			t.Errorf("closing resolver pools: %v", err)
		}
	})
	return d.Resolver()
}

// TestNetworkForgeriesMatchInProcess pins that forged proofs are judged the
// same whether they arrive as values or as raw bytes over TCP: a
// substituted trace (the struct copy with an edited ZK swapped in) and the
// relabelled ownership proof record the violations, path and traces an
// in-process proxy records for the same responder.
func TestNetworkForgeriesMatchInProcess(t *testing.T) {
	cases := []struct {
		name      string
		quality   core.Quality
		configure func(*adversary.Dishonest, poc.ProductID)
		want      core.ViolationType
	}{
		{"wrong trace, good product", core.Good, func(d *adversary.Dishonest, id poc.ProductID) {
			d.WrongTrace[id] = []byte("laundered production record")
		}, core.ViolationClaimProcessing},
		{"wrong trace, bad product", core.Bad, func(d *adversary.Dishonest, id poc.ProductID) {
			d.WrongTrace[id] = []byte("laundered production record")
		}, core.ViolationNoValidProof},
		{"relabelled ownership proof", core.Bad, func(d *adversary.Dishonest, id poc.ProductID) {
			d.DenyProcessing[id] = true
		}, core.ViolationClaimNonProcessing},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fx := newChainFixture(t, 3)
			liar := adversary.NewDishonest(fx.members["p1"])
			c.configure(liar, fx.product)
			responders := fx.responders(map[poc.ParticipantID]core.Responder{"p1": liar})
			ctx := context.Background()
			want, err := fx.proxy(t, inProcess(responders)).QueryPath(ctx, fx.product, c.quality)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fx.proxy(t, overTCP(t, responders)).QueryPath(ctx, fx.product, c.quality)
			if err != nil {
				t.Fatal(err)
			}
			if !want.Violated(c.want) {
				t.Fatalf("in process: violations %+v, want %v", want.Violations, c.want)
			}
			if !reflect.DeepEqual(got.Violations, want.Violations) || !reflect.DeepEqual(got.Path, want.Path) ||
				!reflect.DeepEqual(got.Traces, want.Traces) || got.Complete != want.Complete {
				t.Fatalf("over TCP the walk differs:\nin process: %v %+v\nover TCP:   %v %+v",
					want.Path, want.Violations, got.Path, got.Violations)
			}
		})
	}
}

// garbledProof answers like its member but ships proof bytes that do not
// decode, behind the right kind byte.
type garbledProof struct{ *core.Member }

func (g garbledProof) Query(ctx context.Context, taskID string, id poc.ProductID, quality core.Quality) (*core.Response, error) {
	resp, err := g.Member.Query(ctx, taskID, id, quality)
	if err != nil || resp.Proof == nil {
		return resp, err
	}
	data, err := resp.Proof.Encoding()
	if err != nil {
		return nil, err
	}
	garbled := poc.ProofFromBytes(resp.Proof.Kind, []byte{data[0], 0xff, 0xff, 0xff})
	return &core.Response{Claim: resp.Claim, Proof: garbled, Next: resp.Next}, nil
}

// TestNetworkUndecodableProofIsInvalid pins that proof bytes which do not
// decode count as an invalid proof, not an unreachable participant: the
// participant that sent them is charged claim-processing for a good
// product and no-valid-proof for a bad one, with the usual violation
// penalty. (What the walk then makes of the hop, such as a next-hop
// violation, is the protocol's usual follow-up.)
func TestNetworkUndecodableProofIsInvalid(t *testing.T) {
	for _, c := range []struct {
		quality core.Quality
		want    core.ViolationType
	}{{core.Good, core.ViolationClaimProcessing}, {core.Bad, core.ViolationNoValidProof}} {
		fx := newChainFixture(t, 3)
		responders := fx.responders(map[poc.ParticipantID]core.Responder{"p1": garbledProof{fx.members["p1"]}})
		px := fx.proxy(t, overTCP(t, responders))
		result, err := px.QueryPath(context.Background(), fx.product, c.quality)
		if err != nil {
			t.Fatal(err)
		}
		var charged []core.Violation
		for _, v := range result.Violations {
			if v.Type == core.ViolationUnreachable {
				t.Fatalf("%v product: %s charged unreachable: %s", c.quality, v.Participant, v.Detail)
			}
			if v.Participant == "p1" && v.Type == c.want {
				charged = append(charged, v)
			}
		}
		if len(charged) != 1 {
			t.Fatalf("%v product: violations %+v, want one %v by p1", c.quality, result.Violations, c.want)
		}
		penalty := reputation.DefaultStrategy().ViolationPenalty
		found := false
		for _, e := range px.Ledger().AuditLog() {
			if e.Event.Participant == "p1" && e.Event.Reason == "violation: "+charged[0].Detail {
				found = e.Event.Delta == -penalty
			}
		}
		if !found {
			t.Fatalf("%v product: no -%v penalty for p1 in the ledger", c.quality, penalty)
		}
	}
}
