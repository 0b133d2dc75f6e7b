package bench

import (
	"context"
	"fmt"
	"time"

	"desword/internal/poc"
	"desword/internal/zkedb"
	"desword/internal/zkedb/store"
)

// This file regenerates the macro-benchmarks of §VI.B: the communication
// overhead of ownership / non-ownership proofs (E4 = Table II) and the
// computation overhead of ownership proof generation vs verification
// (E5 = Fig. 5), across the paper's (q, h) sweep with q^h ≥ 2^128.

// macroFixture is one (q,h) deployment: a CRS and a trace set committed
// into kv.
type macroFixture struct {
	ps      *poc.PublicParams
	cred    poc.POC
	dpoc    *poc.DPOC
	kv      store.KV
	present poc.ProductID
	absent  poc.ProductID
}

// newMacroFixture builds the CRS for one (q,h) row and commits dbSize traces.
func newMacroFixture(qh QH, modulusBits, dbSize int) (*macroFixture, error) {
	params := zkedb.Params{Q: qh.Q, H: qh.H, KeyBits: 128, ModulusBits: modulusBits}
	ps, err := poc.PSGen(params)
	if err != nil {
		return nil, fmt.Errorf("bench: CRS for q=%d h=%d: %w", qh.Q, qh.H, err)
	}
	traces := make([]poc.Trace, 0, dbSize)
	for i := 0; i < dbSize; i++ {
		traces = append(traces, poc.Trace{
			Product: poc.ProductID(fmt.Sprintf("macro-id-%03d", i)),
			Data:    []byte(fmt.Sprintf("participant=vM;product=macro-id-%03d;op=process", i)),
		})
	}
	kv := store.NewMem()
	cred, dpoc, err := poc.Agg(ps, "vM", traces, poc.AggOptions{Commit: zkedb.CommitOptions{Store: kv}})
	if err != nil {
		return nil, fmt.Errorf("bench: aggregating q=%d h=%d: %w", qh.Q, qh.H, err)
	}
	return &macroFixture{
		ps:      ps,
		cred:    cred,
		dpoc:    dpoc,
		kv:      kv,
		present: traces[0].Product,
		absent:  "macro-absent-product",
	}, nil
}

// coldProve times proofs of id by a cold prover, the mean over reps: each
// proof runs on a DPOC freshly reopened from kv, the state of a restarted
// participant, whose proof cache is empty and whose tree nodes have no
// witness memo yet, so neither answers it. The reopen itself is not timed.
func coldProve(ps *poc.PublicParams, kv store.KV, id poc.ProductID, reps int) (time.Duration, error) {
	reps = max(reps, 1)
	var total time.Duration
	for i := 0; i < reps; i++ {
		_, dpoc, err := poc.OpenDPOC(ps, "cold", kv, 0)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		if _, err := dpoc.Prove(context.Background(), id); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(reps), nil
}

// RunTable2 measures the compact encoded size of ownership and
// non-ownership proofs at each (q,h) (experiment E4). The paper's shape:
// size ∝ h and independent of q, so larger q (smaller h) gives smaller
// proofs, with ownership proofs slightly larger than non-ownership ones.
func RunTable2(rows []QH, modulusBits, dbSize int) (*Table, error) {
	t := &Table{
		Title: "E4 (Table II): communication overhead of the POC scheme",
		Note: fmt.Sprintf("%d committed traces, %d-bit RSA modulus; paper: 8.94KB→3.97KB own, 8.08KB→3.58KB n-own",
			dbSize, modulusBits),
		Headers: []string{"q", "h", "Own proof", "N-Own proof"},
	}
	for _, qh := range rows {
		fx, err := newMacroFixture(qh, modulusBits, dbSize)
		if err != nil {
			return nil, err
		}
		own, err := fx.dpoc.Prove(context.Background(), fx.present)
		if err != nil {
			return nil, err
		}
		nOwn, err := fx.dpoc.Prove(context.Background(), fx.absent)
		if err != nil {
			return nil, err
		}
		ownSize, err := own.ZK.Size()
		if err != nil {
			return nil, err
		}
		nOwnSize, err := nOwn.ZK.Size()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(qh.Q), fmt.Sprint(qh.H), KB(ownSize), KB(nOwnSize))
	}
	return t, nil
}

// RunFig5 measures ownership proof generation and verification time at each
// (q,h) (experiment E5). The paper's shape: generation cost grows with q
// (and dwarfs verification); verification cost tracks h only, so it falls
// as q grows.
func RunFig5(rows []QH, modulusBits, dbSize, reps int) (*Table, error) {
	t := &Table{
		Title: "E5 (Fig. 5): computation overhead of ownership proofs",
		Note: fmt.Sprintf("%d committed traces, %d-bit RSA modulus, mean over %d runs; paper: gen ≫ verify",
			dbSize, modulusBits, reps),
		Headers: []string{"q", "h", "proof gen", "proof verify", "commit (POC-Agg)"},
	}
	for _, qh := range rows {
		fx, err := newMacroFixture(qh, modulusBits, dbSize)
		if err != nil {
			return nil, err
		}
		proof, err := fx.dpoc.Prove(context.Background(), fx.present)
		if err != nil {
			return nil, err
		}
		gen, err := coldProve(fx.ps, fx.kv, fx.present, reps)
		if err != nil {
			return nil, err
		}
		verify := Measure(reps, func() {
			if _, err := poc.Verify(context.Background(), fx.ps, fx.cred, fx.present, proof); err != nil {
				panic(err)
			}
		})
		traces := make([]poc.Trace, 0, dbSize)
		for i := 0; i < dbSize; i++ {
			traces = append(traces, poc.Trace{
				Product: poc.ProductID(fmt.Sprintf("macro-id-%03d", i)),
				Data:    []byte("re-commit bench"),
			})
		}
		commit := Measure(1, func() {
			if _, _, err := poc.Agg(fx.ps, "vM", traces, poc.AggOptions{}); err != nil {
				panic(err)
			}
		})
		t.AddRow(fmt.Sprint(qh.Q), fmt.Sprint(qh.H), Ms(gen), Ms(verify), Ms(commit))
	}
	return t, nil
}
