package core

import (
	"context"
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
)

// auditEvents returns a proxy's ledger events, dropping the first skip.
func auditEvents(px *Proxy, skip int) []reputation.Event {
	var out []reputation.Event
	for _, e := range px.Ledger().AuditLog()[skip:] {
		out = append(out, e.Event)
	}
	return out
}

// stripMemoRun clears what stripNondeterminism clears plus the resource
// counters on which a memo-warm and a memo-cold walk legitimately differ:
// verify-memo hits against misses, and the proof-cache hits an earlier pass
// left on the shared members.
func stripMemoRun(r *Result) {
	stripNondeterminism(r)
	if r.Event != nil {
		r.Event.CacheHits, r.Event.CacheMisses = 0, 0
		r.Event.VerifyMemoHits, r.Event.VerifyMemoMisses = 0, 0
	}
}

// TestVerifyMemoWarmEqualsCold pins that the verified-proof memo is
// invisible in everything a query decides: a pass over every product on a
// proxy whose memo already holds each proof (all hits) returns results,
// score changes and audit events identical to the same pass on a fresh
// proxy (all misses).
func TestVerifyMemoWarmEqualsCold(t *testing.T) {
	fx := newFixture(t, 8)
	ids := sortedProducts(fx)
	ctx := context.Background()
	for _, quality := range []Quality{Good, Bad} {
		cold := fx.freshProxy(t)
		warm := fx.freshProxy(t)
		for _, id := range ids {
			if _, err := warm.QueryPath(ctx, id, quality); err != nil {
				t.Fatal(err)
			}
		}
		before := warm.Scores()
		skip := len(warm.Ledger().AuditLog())
		for _, id := range ids {
			want, err := cold.QueryPath(ctx, id, quality)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.QueryPath(ctx, id, quality)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%v %s", quality, id)
			if want.Event.VerifyMemoHits != 0 || want.Event.VerifyMemoMisses == 0 {
				t.Fatalf("%s: cold walk saw %d memo hits, %d misses; want misses only",
					what, want.Event.VerifyMemoHits, want.Event.VerifyMemoMisses)
			}
			if got.Event.VerifyMemoMisses != 0 || got.Event.VerifyMemoHits != want.Event.VerifyMemoMisses {
				t.Fatalf("%s: warm walk saw %d memo hits, %d misses; want %d hits only",
					what, got.Event.VerifyMemoHits, got.Event.VerifyMemoMisses, want.Event.VerifyMemoMisses)
			}
			stripMemoRun(want)
			stripMemoRun(got)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: the memo changed the outcome:\ncold: %+v\nwarm: %+v", what, want, got)
			}
		}
		after := warm.Scores()
		for v, s := range cold.Scores() {
			if d := after[v] - before[v]; d != s {
				t.Fatalf("%v: warm pass moved %s by %v, cold by %v", quality, v, d, s)
			}
		}
		if want, got := auditEvents(cold, 0), auditEvents(warm, skip); !reflect.DeepEqual(want, got) {
			t.Fatalf("%v: audit events differ:\ncold: %+v\nwarm: %+v", quality, want, got)
		}
	}
}

// proofMutator answers for one member, altering every proof of one kind it
// serves to queries and handing it over in received form, its bytes only,
// so every mutation reaches the memo through the byte key.
type proofMutator struct {
	*Member
	kind   poc.ProofKind
	mutate func(*zkedb.Proof)
}

func (m proofMutator) Query(ctx context.Context, taskID string, id poc.ProductID, quality Quality) (*Response, error) {
	resp, err := m.Member.Query(ctx, taskID, id, quality)
	if err != nil || resp.Proof == nil || resp.Proof.Kind != m.kind {
		return resp, err
	}
	data, err := resp.Proof.Encoding()
	if err != nil {
		return nil, err
	}
	var zk zkedb.Proof
	if err := zk.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	m.mutate(&zk)
	mutated, err := zk.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &Response{Claim: resp.Claim, Proof: poc.ProofFromBytes(resp.Proof.Kind, mutated), Next: resp.Next}, nil
}

// fieldMutation changes exactly one field of a proof.
type fieldMutation struct {
	name   string
	mutate func(*zkedb.Proof)
}

// proofMutations lists one mutation per field of a proof shaped like p: per
// level the slot, the slot message, V, the witness Λ, the mercurial opening
// or tease fields and the child commitment; the leaf opening's fields; and,
// for ownership, the value.
func proofMutations(p *zkedb.Proof, q int) []fieldMutation {
	bump := func(x *big.Int) { x.Add(x, big.NewInt(1)) }
	var out []fieldMutation
	add := func(name string, f func(*zkedb.Proof)) { out = append(out, fieldMutation{name, f}) }
	for i := range p.Levels {
		level := func(f func(*zkedb.LevelOpening)) func(*zkedb.Proof) {
			return func(p *zkedb.Proof) { f(&p.Levels[i]) }
		}
		if p.Levels[i].Hard != nil {
			add(fmt.Sprintf("level %d slot", i), level(func(lo *zkedb.LevelOpening) { lo.Hard.Slot = (lo.Hard.Slot + 1) % q }))
			add(fmt.Sprintf("level %d message", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Hard.Message) }))
			add(fmt.Sprintf("level %d V", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Hard.V) }))
			add(fmt.Sprintf("level %d lambda", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Hard.Witness.Lambda) }))
			add(fmt.Sprintf("level %d mercurial m", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Hard.MCOpen.M) }))
			add(fmt.Sprintf("level %d mercurial r0", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Hard.MCOpen.R0) }))
			add(fmt.Sprintf("level %d mercurial r1", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Hard.MCOpen.R1) }))
		} else {
			add(fmt.Sprintf("level %d slot", i), level(func(lo *zkedb.LevelOpening) { lo.Soft.Slot = (lo.Soft.Slot + 1) % q }))
			add(fmt.Sprintf("level %d message", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Soft.Message) }))
			add(fmt.Sprintf("level %d V", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Soft.V) }))
			add(fmt.Sprintf("level %d lambda", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Soft.Witness.Lambda) }))
			add(fmt.Sprintf("level %d tease m", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Soft.MCTease.M) }))
			add(fmt.Sprintf("level %d tease tau", i), level(func(lo *zkedb.LevelOpening) { bump(lo.Soft.MCTease.Tau) }))
		}
		add(fmt.Sprintf("level %d child", i), func(p *zkedb.Proof) {
			p.Levels[i].Child = p.Levels[(i+1)%len(p.Levels)].Child
		})
	}
	if p.LeafHard != nil {
		add("leaf m", func(p *zkedb.Proof) { bump(p.LeafHard.M) })
		add("leaf r0", func(p *zkedb.Proof) { bump(p.LeafHard.R0) })
		add("leaf r1", func(p *zkedb.Proof) { bump(p.LeafHard.R1) })
		add("value", func(p *zkedb.Proof) { p.Value = append(p.Value, '!') })
	} else {
		add("leaf tease m", func(p *zkedb.Proof) { bump(p.LeafTease.M) })
		add("leaf tease tau", func(p *zkedb.Proof) { bump(p.LeafTease.Tau) })
	}
	return out
}

// TestVerifyMemoMutationsMatchColdProxy pins the memo's soundness where it
// matters, in the proxy's verdicts: with an honest ownership proof and an
// honest non-ownership proof memoized, every single-field mutation of
// either is rejected with exactly the violation a proxy that never saw the
// honest proof records.
func TestVerifyMemoMutationsMatchColdProxy(t *testing.T) {
	ps := corePS(t)
	g, parts := supplychain.LineGraph(3)
	members := make(map[poc.ParticipantID]*Member, 3)
	for id, p := range parts {
		members[id] = NewMember(ps, p)
	}
	// Two lots from p0, so a bad query for the second lot's product first
	// clears p0 under the first lot's POC with a non-ownership proof.
	var lists []*DistributionResult
	for i, prefix := range []string{"alpha", "bravo"} {
		tags, err := supplychain.MintTags(prefix, 1)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := RunDistribution(ps, g, members, "p0", tags, nil, supplychain.FirstChildSplitter, fmt.Sprintf("lot-%d", i+1))
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, dist)
	}
	var responder Responder
	proxy := func() *Proxy {
		px := NewProxyWithConfig(ps, reputation.DefaultStrategy(), func(v poc.ParticipantID) (Responder, error) {
			if v == "p0" && responder != nil {
				return responder, nil
			}
			return members[v], nil
		}, ProxyConfig{})
		for _, d := range lists {
			if err := px.RegisterList(d.TaskID, d.List); err != nil {
				t.Fatal(err)
			}
		}
		return px
	}
	ctx := context.Background()
	warm, cold := proxy(), proxy()
	cases := []struct {
		product poc.ProductID
		quality Quality
		kind    poc.ProofKind
	}{{"alpha1", Good, poc.Ownership}, {"bravo1", Bad, poc.NonOwnership}}
	for _, c := range cases {
		// Memoize p0's honest proof on the warm proxy only.
		honest, err := warm.QueryPath(ctx, c.product, c.quality)
		if err != nil {
			t.Fatal(err)
		}
		if len(honest.Violations) != 0 || honest.Event.VerifyMemoMisses == 0 {
			t.Fatalf("%s: honest walk: violations %+v, %d memo misses", c.product, honest.Violations, honest.Event.VerifyMemoMisses)
		}
		proof, err := members["p0"].Query(ctx, "lot-1", c.product, c.quality)
		if err != nil || proof.Proof == nil || proof.Proof.Kind != c.kind {
			t.Fatalf("%s: p0 under lot-1 answers %+v, %v; want a %v proof", c.product, proof, err, c.kind)
		}
		mutations := proofMutations(proof.Proof.ZK, ps.CRS.Params.Q)
		for _, m := range mutations {
			responder = proofMutator{Member: members["p0"], kind: c.kind, mutate: m.mutate}
			want, err := cold.QueryPath(ctx, c.product, c.quality)
			if err != nil {
				t.Fatal(err)
			}
			got, err := warm.QueryPath(ctx, c.product, c.quality)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%v proof, %s", c.kind, m.name)
			rejected := false
			for _, v := range want.Violations {
				rejected = rejected || (v.Participant == "p0" && v.Type != ViolationWrongNextHop)
			}
			if !rejected {
				t.Fatalf("%s: accepted: %+v", what, want.Violations)
			}
			stripMemoRun(want)
			stripMemoRun(got)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: warm proxy differs from cold:\ncold: %+v\nwarm: %+v", what, want.Violations, got.Violations)
			}
		}
		responder = nil
		t.Logf("%v proof: %d single-field mutations rejected alike", c.kind, len(mutations))
	}
}
