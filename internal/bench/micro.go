package bench

import (
	"crypto/sha256"
	"fmt"
	"math/big"

	"desword/internal/mercurial"
	"desword/internal/qmercurial"
)

// This file regenerates the micro-benchmarks of §VI.A: the TMC scheme's
// seven algorithms (E1) and the qTMC scheme's hard/soft algorithm costs as a
// function of q (E2 = Fig. 4a, E3 = Fig. 4b).

// RunTMCMicro measures the seven TMC algorithms (experiment E1). The paper
// reports all seven lightweight, with HCom the most expensive at ~34 ms on
// its Java/pairing stack.
func RunTMCMicro(reps int) *Table {
	pk := mercurial.KGen()
	m := pk.Group().HashToScalar([]byte("bench-message"))
	com, dec := pk.HCom(m)
	hop := pk.HOpen(dec)
	tease := pk.SOpenHard(dec)
	_, sdec := pk.SCom()

	t := &Table{
		Title:   "E1: TMC micro-benchmark (§VI.A; seven algorithms)",
		Note:    fmt.Sprintf("mean over %d runs; paper: all lightweight, HCom ≈ 34 ms on jPBC", reps),
		Headers: []string{"algorithm", "mean time"},
	}
	t.AddRow("KGen", Ms(Measure(reps, func() { mercurial.KGen() })))
	t.AddRow("HCom", Ms(Measure(reps, func() { pk.HCom(m) })))
	t.AddRow("SCom", Ms(Measure(reps, func() { pk.SCom() })))
	t.AddRow("HOpen", Ms(Measure(reps, func() { pk.HOpen(dec) })))
	t.AddRow("SOpen", Ms(Measure(reps, func() {
		if _, err := pk.SOpenSoft(sdec, m); err != nil {
			panic(err)
		}
	})))
	t.AddRow("VerHOpen", Ms(Measure(reps, func() {
		if !pk.VerHOpen(com, hop) {
			panic("verification failed")
		}
	})))
	t.AddRow("VerSOpen", Ms(Measure(reps, func() {
		if !pk.VerSOpen(com, tease) {
			panic("verification failed")
		}
	})))
	return t
}

// qtmcVector builds a q-length message vector for benching: hash-derived
// messages as wide as the message space, like the slot hashes zkedb commits,
// so every g_i^m a verification raises walks a full-width exponent.
func qtmcVector(pk *qmercurial.PublicKey) []*big.Int {
	ms := make([]*big.Int, pk.Q())
	max := pk.VC.MaxMessage()
	for i := range ms {
		sum := sha256.Sum256([]byte(fmt.Sprintf("bench/qtmc/%d", i)))
		v := new(big.Int).SetBytes(sum[:])
		ms[i] = v.Mod(v, max)
	}
	return ms
}

// RunFig4a measures the qTMC algorithms that touch hard commitments — key
// generation, hard commit, hard opening, and soft opening of a hard
// commitment — across the paper's q sweep. The paper's finding: all grow
// linearly with q (Fig. 4a), reaching ~1.3 s at q=128 on its stack.
func RunFig4a(qs []int, messageBits, modulusBits, reps int) (*Table, error) {
	t := &Table{
		Title:   "E2 (Fig. 4a): qTMC hard-commitment algorithms vs q",
		Note:    fmt.Sprintf("mean over %d runs, %d-bit RSA modulus; paper shape: linear in q", reps, modulusBits),
		Headers: []string{"q", "qKGen", "qHCom", "qHOpen", "qSOpen(hard)"},
	}
	for _, q := range qs {
		pk, err := qmercurial.KGen(q, messageBits, modulusBits)
		if err != nil {
			return nil, err
		}
		ms := qtmcVector(pk)
		_, dec, err := pk.HCom(ms)
		if err != nil {
			return nil, err
		}
		kgen := Measure(1, func() {
			if _, err := qmercurial.KGen(q, messageBits, modulusBits); err != nil {
				panic(err)
			}
		})
		hcom := Measure(reps, func() {
			if _, _, err := pk.HCom(ms); err != nil {
				panic(err)
			}
		})
		hopen := Measure(reps, func() {
			if _, err := pk.HOpen(dec, q/2); err != nil {
				panic(err)
			}
		})
		sopen := Measure(reps, func() {
			if _, err := pk.SOpenHard(dec, q/2); err != nil {
				panic(err)
			}
		})
		t.AddRow(fmt.Sprint(q), Ms(kgen), Ms(hcom), Ms(hopen), Ms(sopen))
	}
	return t, nil
}

// RunFig4b measures the qTMC algorithms that touch only soft commitments —
// soft commit, soft opening of a soft commitment, and both verifications —
// across the q sweep. The paper's finding: all constant in q (Fig. 4b).
func RunFig4b(qs []int, messageBits, modulusBits, reps int) (*Table, error) {
	t := &Table{
		Title:   "E3 (Fig. 4b): qTMC soft-commitment algorithms vs q",
		Note:    fmt.Sprintf("mean over %d runs, %d-bit RSA modulus; paper shape: constant in q", reps, modulusBits),
		Headers: []string{"q", "qSCom", "qSOpen(soft)", "qVerHOpen", "qVerSOpen"},
	}
	for _, q := range qs {
		pk, err := qmercurial.KGen(q, messageBits, modulusBits)
		if err != nil {
			return nil, err
		}
		ms := qtmcVector(pk)
		hcomC, hdec, err := pk.HCom(ms)
		if err != nil {
			return nil, err
		}
		hop, err := pk.HOpen(hdec, 1)
		if err != nil {
			return nil, err
		}
		scomC, sdec := pk.SCom()
		sop, err := pk.SOpenSoft(sdec, 1, ms[1])
		if err != nil {
			return nil, err
		}
		scom := Measure(reps, func() { pk.SCom() })
		sopen := Measure(reps, func() {
			if _, err := pk.SOpenSoft(sdec, 1, ms[1]); err != nil {
				panic(err)
			}
		})
		verH := Measure(reps, func() {
			if !pk.VerHOpen(hcomC, hop) {
				panic("verification failed")
			}
		})
		verS := Measure(reps, func() {
			if !pk.VerSOpen(scomC, sop) {
				panic("verification failed")
			}
		})
		t.AddRow(fmt.Sprint(q), Ms(scom), Ms(sopen), Ms(verH), Ms(verS))
	}
	return t, nil
}
