package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"testing"
	"time"

	"desword/internal/core"
	"desword/internal/group"
	"desword/internal/mercurial"
	"desword/internal/node"
	"desword/internal/poc"
	"desword/internal/qmercurial"
	"desword/internal/rsavc"
	"desword/internal/supplychain"
	"desword/internal/wire"
	"desword/internal/zkedb"
)

// ledgerKeys is the size of the database the zkedb and poc leaves commit
// and prove against.
const ledgerKeys = 16

// leafCost is the measured cost of one call into a leaf layer.
type leafCost struct{ ns, allocs float64 }

// leaf is one timed operation. perOp is how many units one call covers
// (commit_per_key commits a whole database per call).
type leaf struct {
	name  string
	perOp int
	op    func() error
}

// runLedger times one call into each leaf layer on the geometry of ps with
// testing.Benchmark, each round for about benchtime, and also returns the
// cost of recording one seam call, the tracing overhead per call.
func runLedger(ctx context.Context, ps *poc.PublicParams, benchtime string) (map[string]leafCost, leafCost, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, leafCost{}, err
	}
	f, err := newFixture(ctx, ps)
	if err != nil {
		return nil, leafCost{}, fmt.Errorf("ledger fixture: %w", err)
	}
	defer f.close()

	var t timer
	overhead, err := bench(leaf{perOp: 1, op: func() error {
		start := time.Now()
		t.add(time.Since(start))
		return nil
	}})
	if err != nil {
		return nil, leafCost{}, err
	}
	out := make(map[string]leafCost, len(leaves))
	for _, l := range f.leaves(ctx) {
		c, err := bench(l)
		if err != nil {
			return nil, leafCost{}, fmt.Errorf("ledger %s: %w", l.name, err)
		}
		out[l.name] = c
	}
	return out, overhead, nil
}

// ledgerRounds is how many times each leaf is timed; the median round
// stands, so one disturbed round does not move the ledger.
const ledgerRounds = 3

func bench(l leaf) (leafCost, error) {
	var ns, allocs []float64
	for range ledgerRounds {
		var failure error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N && failure == nil; i++ {
				failure = l.op()
			}
		})
		if failure != nil {
			return leafCost{}, failure
		}
		if r.N == 0 {
			return leafCost{}, errors.New("benchmark did not run")
		}
		units := float64(r.N * l.perOp)
		ns = append(ns, float64(r.T.Nanoseconds())/units)
		allocs = append(allocs, float64(r.MemAllocs)/units)
	}
	return leafCost{ns: median(ns), allocs: median(allocs)}, nil
}

// fixture holds the inputs every leaf operates on, built once per ledger
// on the workload's public parameters.
type fixture struct {
	ps  *poc.PublicParams
	grp *group.Group
	k   *big.Int

	tmcCom  mercurial.Commitment
	tmcOpen mercurial.HardOpening

	ms      []*big.Int
	hiding  *big.Int
	vcCom   *big.Int
	vcWit   rsavc.Witness
	qCom    qmercurial.Commitment
	qDec    qmercurial.HardDecommit
	qHard   qmercurial.HardOpening
	qSoft   qmercurial.SoftOpening
	db      map[string][]byte
	com     zkedb.Commitment
	dec     *zkedb.Decommitment
	own     *zkedb.Proof
	nonOwn  *zkedb.Proof
	absent  int // fresh absent keys keep prove_nonown from reusing soft subtrees
	proof   *poc.Proof
	cred    poc.POC
	wProof  *wire.Proof
	wResp   *wire.QueryResponse
	buf     bytes.Buffer
	srv     *node.ParticipantServer
	pool    *node.Pool
	present string
}

func newFixture(ctx context.Context, ps *poc.PublicParams) (*fixture, error) {
	key := ps.CRS.Key
	f := &fixture{ps: ps, grp: group.P256(), present: "ledger-1"}
	f.k = f.grp.RandomScalar()

	m := key.TMC.Group().HashToScalar([]byte("ledger"))
	var dec mercurial.HardDecommit
	f.tmcCom, dec = key.TMC.HCom(m)
	f.tmcOpen = key.TMC.HOpen(dec)

	f.ms = make([]*big.Int, key.Q())
	for i := range f.ms {
		f.ms[i] = big.NewInt(int64(i)*7919 + 13)
	}
	var err error
	if f.hiding, err = key.VC.RandomHiding(); err != nil {
		return nil, err
	}
	if f.vcCom, err = key.VC.Commit(f.ms, f.hiding); err != nil {
		return nil, err
	}
	if f.vcWit, err = key.VC.Open(f.ms, f.hiding, 0); err != nil {
		return nil, err
	}
	if f.qCom, f.qDec, err = key.HCom(f.ms); err != nil {
		return nil, err
	}
	if f.qHard, err = key.HOpen(f.qDec, 0); err != nil {
		return nil, err
	}
	if f.qSoft, err = key.SOpenHard(f.qDec, 0); err != nil {
		return nil, err
	}

	f.db = make(map[string][]byte, ledgerKeys)
	for i := 1; i <= ledgerKeys; i++ {
		id := fmt.Sprintf("ledger-%d", i)
		f.db[id] = supplychain.DefaultTraceData("p0", poc.ProductID(id))
	}
	if f.com, f.dec, err = ps.CRS.Commit(f.db, zkedb.CommitOptions{}); err != nil {
		return nil, err
	}
	if f.own, err = f.dec.Prove(ctx, f.present); err != nil {
		return nil, err
	}
	if f.nonOwn, err = f.dec.Prove(ctx, "ledger-absent"); err != nil {
		return nil, err
	}
	f.cred = poc.POC{Participant: "p0", Com: f.com}
	f.proof = &poc.Proof{Kind: poc.Ownership, ZK: f.own}
	if f.wProof, err = wire.EncodeProof(f.proof); err != nil {
		return nil, err
	}
	if f.wResp, err = wire.EncodeResponse(&core.Response{Claim: core.ClaimProcessed, Proof: f.proof, Next: "p1"}); err != nil {
		return nil, err
	}

	// A member with no committed task answers every demand with a short
	// error: the pooled round trip of a small message.
	member := core.NewMember(ps, supplychain.NewParticipant("ledger"))
	if f.srv, err = node.ServeParticipant(ctx, "127.0.0.1:0", member); err != nil {
		return nil, err
	}
	f.pool = node.NewPool(f.srv.Addr())
	return f, nil
}

func (f *fixture) close() {
	_ = f.pool.Close()
	_ = f.srv.Close()
}

func check(ok bool, what string) error {
	if !ok {
		return errors.New(what + " rejected a valid input")
	}
	return nil
}

// leaves lists the timed operations in the order of the leaves catalogue.
func (f *fixture) leaves(ctx context.Context) []leaf {
	key := f.ps.CRS.Key
	h := f.grp.GeneratorH()
	return []leaf{
		{"group.scalar_base_mult", 1, func() error { f.grp.ScalarBaseMult(f.k); return nil }},
		{"group.scalar_mult", 1, func() error { f.grp.ScalarMult(h, f.k); return nil }},
		{"mercurial.ver_hopen", 1, func() error {
			return check(key.TMC.VerHOpen(f.tmcCom, f.tmcOpen), "VerHOpen")
		}},
		{"rsavc.open", 1, func() error { _, err := key.VC.Open(f.ms, f.hiding, 0); return err }},
		{"rsavc.verify", 1, func() error {
			return check(key.VC.Verify(f.vcCom, 0, f.ms[0], f.vcWit), "rsavc.Verify")
		}},
		{"qmercurial.hopen", 1, func() error { _, err := key.HOpen(f.qDec, 0); return err }},
		{"qmercurial.ver_hopen", 1, func() error { return check(key.VerHOpen(f.qCom, f.qHard), "qTMC VerHOpen") }},
		{"qmercurial.ver_sopen", 1, func() error { return check(key.VerSOpen(f.qCom, f.qSoft), "qTMC VerSOpen") }},
		{"zkedb.prove_own", 1, func() error { _, err := f.dec.Prove(ctx, f.present); return err }},
		{"zkedb.prove_nonown", 1, func() error {
			f.absent++
			_, err := f.dec.Prove(ctx, fmt.Sprintf("ledger-absent-%d", f.absent))
			return err
		}},
		{"zkedb.verify_own", 1, func() error {
			_, present, err := f.ps.CRS.Verify(f.com, f.present, f.own)
			if err == nil {
				err = check(present, "ownership verify")
			}
			return err
		}},
		{"zkedb.verify_nonown", 1, func() error {
			_, present, err := f.ps.CRS.Verify(f.com, "ledger-absent", f.nonOwn)
			if err == nil {
				err = check(!present, "non-ownership verify")
			}
			return err
		}},
		{"zkedb.commit_per_key", ledgerKeys, func() error {
			_, _, err := f.ps.CRS.Commit(f.db, zkedb.CommitOptions{})
			return err
		}},
		{"poc.verify_own", 1, func() error {
			_, err := poc.Verify(ctx, f.ps, f.cred, poc.ProductID(f.present), f.proof)
			return err
		}},
		{"wire.encode_proof", 1, func() error { _, err := wire.EncodeProof(f.proof); return err }},
		{"wire.decode_proof", 1, func() error { _, err := wire.DecodeProof(f.wProof); return err }},
		{"wire.envelope", 1, func() error {
			env, err := wire.NewEnvelope(wire.TypeResponse, f.wResp)
			if err != nil {
				return err
			}
			f.buf.Reset()
			if err := wire.WriteEnvelope(&f.buf, env); err != nil {
				return err
			}
			_, err = wire.ReadMessage(&f.buf)
			return err
		}},
		{"node.pool_exchange", 1, func() error {
			env, err := f.pool.Exchange(ctx, wire.TypeDemandOwnership,
				wire.DemandRequest{TaskID: "ledger-none", Product: "ledger-1"})
			if err == nil && env.Type != wire.TypeError {
				err = fmt.Errorf("unexpected %s reply", env.Type)
			}
			return err
		}},
	}
}
