package bench

import (
	"context"
	"fmt"

	"desword/internal/chlmr"
	"desword/internal/poc"
	"desword/internal/zkedb"
	"desword/internal/zkedb/store"
)

// This file holds ablation experiments for the design choices DESIGN.md §3
// documents: the commitment tree's amortization across database sizes (A1),
// the RSA modulus size — the knob our pairing substitution introduces (A2),
// the soft-chain cache for non-ownership proofs (A3), and the plain-TMC
// CHLMR tree against the paper's q-mercurial tree (A4).

// RunAblationDBSize varies the number of committed traces at fixed geometry
// (experiment A1). Expected: POC-Agg grows roughly linearly with the trace
// count (≈ n·h tree nodes), while proof generation, verification and proof
// size are independent of it — the property that makes a constant-size POC
// usable for arbitrarily large trace databases.
func RunAblationDBSize(params zkedb.Params, sizes []int, reps int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("A1 (ablation): database size at fixed q=%d h=%d", params.Q, params.H),
		Note:    "commit scales with traces; proof cost and size must not",
		Headers: []string{"traces", "POC-Agg", "proof gen", "proof verify", "own proof size"},
	}
	ps, err := poc.PSGen(params)
	if err != nil {
		return nil, err
	}
	for _, n := range sizes {
		traces := make([]poc.Trace, 0, n)
		for i := 0; i < n; i++ {
			traces = append(traces, poc.Trace{
				Product: poc.ProductID(fmt.Sprintf("abl-%04d", i)),
				Data:    []byte(fmt.Sprintf("record %04d", i)),
			})
		}
		var cred poc.POC
		var dpoc *poc.DPOC
		kv := store.NewMem()
		commit := Measure(1, func() {
			var aerr error
			cred, dpoc, aerr = poc.Agg(ps, "vA", traces, poc.AggOptions{Commit: zkedb.CommitOptions{Store: kv}})
			if aerr != nil {
				panic(aerr)
			}
		})
		target := traces[n/2].Product
		proof, err := dpoc.Prove(context.Background(), target)
		if err != nil {
			return nil, err
		}
		gen, err := coldProve(ps, kv, target, reps)
		if err != nil {
			return nil, err
		}
		verify := Measure(reps, func() {
			if _, err := poc.Verify(context.Background(), ps, cred, target, proof); err != nil {
				panic(err)
			}
		})
		size, err := proof.ZK.Size()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(n), Ms(commit), Ms(gen), Ms(verify), KB(size))
	}
	return t, nil
}

// RunAblationModulus varies the RSA modulus at fixed geometry (experiment
// A2). The modulus is the security/cost knob introduced by substituting an
// RSA vector commitment for the paper's pairings: times scale roughly
// quadratically and proof sizes linearly with modulus bits.
func RunAblationModulus(q, h int, moduli []int, reps int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("A2 (ablation): RSA modulus size at fixed q=%d h=%d", q, h),
		Note:    "the cost of the pairing-free substitution as security scales",
		Headers: []string{"modulus bits", "POC-Agg", "proof gen", "proof verify", "own proof size"},
	}
	for _, bits := range moduli {
		fx, err := newMacroFixture(QH{Q: q, H: h}, bits, 4)
		if err != nil {
			return nil, err
		}
		proof, err := fx.dpoc.Prove(context.Background(), fx.present)
		if err != nil {
			return nil, err
		}
		traces := []poc.Trace{{Product: "re", Data: []byte("re")}}
		commit := Measure(1, func() {
			if _, _, err := poc.Agg(fx.ps, "vA", traces, poc.AggOptions{}); err != nil {
				panic(err)
			}
		})
		gen, err := coldProve(fx.ps, fx.kv, fx.present, reps)
		if err != nil {
			return nil, err
		}
		verify := Measure(reps, func() {
			if _, err := poc.Verify(context.Background(), fx.ps, fx.cred, fx.present, proof); err != nil {
				panic(err)
			}
		})
		size, err := proof.ZK.Size()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(bits), Ms(commit), Ms(gen), Ms(verify), KB(size))
	}
	return t, nil
}

// RunAblationSoftCache measures first vs repeated non-ownership proofs for
// the same absent key (experiment A3). The first query materializes and pins
// the soft-commitment chain down to the queried leaf; repeats reuse it —
// saving the per-level commitment generation and, crucially, exposing
// byte-identical commitments on every query (consistency across verifiers).
func RunAblationSoftCache(params zkedb.Params, reps int) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("A3 (ablation): soft-chain cache for non-ownership proofs (q=%d h=%d)", params.Q, params.H),
		Note:    "first query builds the soft chain; repeats reuse the pinned commitments",
		Headers: []string{"query", "proof gen", "chain reused"},
	}
	ps, err := poc.PSGen(params)
	if err != nil {
		return nil, err
	}
	_, dpoc, err := poc.Agg(ps, "vA", []poc.Trace{{Product: "present", Data: []byte("x")}}, poc.AggOptions{ProofCacheSize: -1})
	if err != nil {
		return nil, err
	}
	var first *poc.Proof
	firstTime := Measure(1, func() {
		var perr error
		first, perr = dpoc.Prove(context.Background(), "absent-key")
		if perr != nil {
			panic(perr)
		}
	})
	var repeat *poc.Proof
	repeatTime := Measure(reps, func() {
		var perr error
		repeat, perr = dpoc.Prove(context.Background(), "absent-key")
		if perr != nil {
			panic(perr)
		}
	})
	reused := "yes"
	for i := range first.ZK.Levels {
		if !first.ZK.Levels[i].Child.Equal(repeat.ZK.Levels[i].Child) {
			reused = "NO (bug)"
			break
		}
	}
	t.AddRow("first (cold)", Ms(firstTime), "-")
	t.AddRow("repeat (warm)", Ms(repeatTime), reused)
	return t, nil
}

// RunAblationTreeScheme compares the two ZK-EDB instantiations — the
// plain-TMC CHLMR tree (package chlmr, Θ(q·h) proofs) against the
// q-mercurial tree the paper builds on (package zkedb, Θ(h) proofs) —
// across the Table II (q,h) sweep (experiment A4). This reproduces the
// motivation of the paper's reference [11]: with plain mercurial
// commitments, growing q makes proofs larger and the Table II trend
// inverts; concise vector commitments are what make large q pay off.
func RunAblationTreeScheme(rows []QH, modulusBits int, reps int) (*Table, error) {
	t := &Table{
		Title:   "A4 (ablation): plain-TMC tree (CHLMR) vs q-mercurial tree (paper)",
		Note:    "own-proof size and generation; the qTMC construction flips the q trend",
		Headers: []string{"q", "h", "CHLMR size", "qTMC size", "CHLMR gen", "qTMC gen"},
	}
	for _, qh := range rows {
		// CHLMR instance.
		plainCRS, err := chlmr.CRSGen(chlmr.Params{Q: qh.Q, H: qh.H, KeyBits: 128})
		if err != nil {
			return nil, err
		}
		db := map[string][]byte{"abl-key": []byte("abl-value")}
		_, plainDec, err := plainCRS.Commit(db)
		if err != nil {
			return nil, err
		}
		plainProof, err := plainDec.Prove("abl-key")
		if err != nil {
			return nil, err
		}
		plainGen := Measure(reps, func() {
			if _, err := plainDec.Prove("abl-key"); err != nil {
				panic(err)
			}
		})

		// qTMC instance.
		fx, err := newMacroFixture(qh, modulusBits, 1)
		if err != nil {
			return nil, err
		}
		qProof, err := fx.dpoc.Prove(context.Background(), fx.present)
		if err != nil {
			return nil, err
		}
		qSize, err := qProof.ZK.Size()
		if err != nil {
			return nil, err
		}
		qGen, err := coldProve(fx.ps, fx.kv, fx.present, reps)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(qh.Q), fmt.Sprint(qh.H),
			KB(plainProof.Size()), KB(qSize), Ms(plainGen), Ms(qGen))
	}
	return t, nil
}
