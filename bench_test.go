// Package desword holds the repository-level benchmark suite: one testing.B
// benchmark family per table and figure of the paper's evaluation (§VI),
// mirroring the experiment index of DESIGN.md §5. The cmd/desword-bench
// harness prints the same results as formatted tables; these benchmarks give
// the raw ns/op series.
//
// Setup cost (RSA moduli, CRS trees) is shared per parameter point through
// lazily initialized fixtures, and the RSA modulus is 512 bits so the full
// sweep completes in minutes; cost *shapes* across q and h are modulus-
// independent.
package desword

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"desword/internal/baseline"
	"desword/internal/bench"
	"desword/internal/chlmr"
	"desword/internal/core"
	"desword/internal/mercurial"
	"desword/internal/node"
	"desword/internal/poc"
	"desword/internal/qmercurial"
	"desword/internal/reputation"
	"desword/internal/sim"
	"desword/internal/supplychain"
	"desword/internal/zkedb"
	"desword/internal/zkedb/store"
)

const benchModulusBits = 512

// --- shared fixtures ---

var (
	qtmcMu   sync.Mutex
	qtmcKeys = map[int]*qmercurial.PublicKey{}

	macroMu       sync.Mutex
	macroFixtures = map[bench.QH]*macroFixture{}
)

func qtmcKey(b *testing.B, q int) *qmercurial.PublicKey {
	b.Helper()
	qtmcMu.Lock()
	defer qtmcMu.Unlock()
	if pk, ok := qtmcKeys[q]; ok {
		return pk
	}
	pk, err := qmercurial.KGen(q, 128, benchModulusBits)
	if err != nil {
		b.Fatal(err)
	}
	qtmcKeys[q] = pk
	return pk
}

type macroFixture struct {
	ps      *poc.PublicParams
	cred    poc.POC
	dpoc    *poc.DPOC
	kv      store.KV
	proof   *poc.Proof
	product poc.ProductID
}

// coldDPOC reopens the DPOC committed into kv, the state of a restarted
// participant: its proof cache is empty and no tree node's witness memo is
// warm. The reopen is not timed.
func coldDPOC(b *testing.B, ps *poc.PublicParams, kv store.KV) *poc.DPOC {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	_, dpoc, err := poc.OpenDPOC(ps, "vB", kv, 0)
	if err != nil {
		b.Fatal(err)
	}
	return dpoc
}

func macroFixtureFor(b *testing.B, qh bench.QH) *macroFixture {
	b.Helper()
	macroMu.Lock()
	defer macroMu.Unlock()
	if fx, ok := macroFixtures[qh]; ok {
		return fx
	}
	params := zkedb.Params{Q: qh.Q, H: qh.H, KeyBits: 128, ModulusBits: benchModulusBits}
	ps, err := poc.PSGen(params)
	if err != nil {
		b.Fatal(err)
	}
	traces := []poc.Trace{
		{Product: "bench-id-0", Data: []byte("bench trace 0")},
		{Product: "bench-id-1", Data: []byte("bench trace 1")},
	}
	kv := store.NewMem()
	cred, dpoc, err := poc.Agg(ps, "vB", traces, poc.AggOptions{Commit: zkedb.CommitOptions{Store: kv}})
	if err != nil {
		b.Fatal(err)
	}
	proof, err := dpoc.Prove(context.Background(), "bench-id-0")
	if err != nil {
		b.Fatal(err)
	}
	fx := &macroFixture{ps: ps, cred: cred, dpoc: dpoc, kv: kv, proof: proof, product: "bench-id-0"}
	macroFixtures[qh] = fx
	return fx
}

func vector(pk *qmercurial.PublicKey) []*big.Int {
	ms := make([]*big.Int, pk.Q())
	max := pk.VC.MaxMessage()
	for i := range ms {
		v := big.NewInt(int64(i)*104729 + 7)
		ms[i] = v.Mod(v, max)
	}
	return ms
}

// --- E1: TMC micro-benchmark (§VI.A text) ---
// The full seven-algorithm suite also lives in internal/mercurial; HCom is
// the paper's headline number ("can be completed in 34 ms in average").

func BenchmarkE1TMCHCom(b *testing.B) {
	pk := mercurial.KGen()
	m := pk.Group().HashToScalar([]byte("bench"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pk.HCom(m)
	}
}

func BenchmarkE1TMCVerHOpen(b *testing.B) {
	pk := mercurial.KGen()
	c, dec := pk.HCom(pk.Group().HashToScalar([]byte("bench")))
	op := pk.HOpen(dec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pk.VerHOpen(c, op) {
			b.Fatal("verification failed")
		}
	}
}

// --- E2: Fig. 4(a) — qTMC hard-commitment algorithms vs q (linear) ---

func BenchmarkE2Fig4aQHCom(b *testing.B) {
	for _, q := range bench.PaperQs() {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			pk := qtmcKey(b, q)
			ms := vector(pk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pk.HCom(ms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE2Fig4aQHOpen(b *testing.B) {
	for _, q := range bench.PaperQs() {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			pk := qtmcKey(b, q)
			ms := vector(pk)
			_, dec, err := pk.HCom(ms)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pk.HOpen(dec, i%q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: Fig. 4(b) — qTMC soft-commitment algorithms vs q (constant) ---

func BenchmarkE3Fig4bQSCom(b *testing.B) {
	for _, q := range bench.PaperQs() {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			pk := qtmcKey(b, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pk.SCom()
			}
		})
	}
}

func BenchmarkE3Fig4bQSOpenSoft(b *testing.B) {
	for _, q := range bench.PaperQs() {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			pk := qtmcKey(b, q)
			_, dec := pk.SCom()
			m := big.NewInt(12345)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pk.SOpenSoft(dec, i%q, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: Table II — communication overhead (proof bytes, reported as a
// custom metric; size ∝ h, independent of q, own > n-own) ---

func BenchmarkE4Table2ProofSize(b *testing.B) {
	for _, qh := range bench.PaperQH() {
		b.Run(fmt.Sprintf("q=%d/h=%d", qh.Q, qh.H), func(b *testing.B) {
			fx := macroFixtureFor(b, qh)
			own, err := fx.dpoc.Prove(context.Background(), fx.product)
			if err != nil {
				b.Fatal(err)
			}
			nOwn, err := fx.dpoc.Prove(context.Background(), "bench-absent")
			if err != nil {
				b.Fatal(err)
			}
			ownSize, err := own.ZK.Size()
			if err != nil {
				b.Fatal(err)
			}
			nOwnSize, err := nOwn.ZK.Size()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(ownSize), "own-proof-B")
			b.ReportMetric(float64(nOwnSize), "nown-proof-B")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := own.ZK.MarshalBinary(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: Fig. 5 — ownership proof computation (gen ≫ verify at scale;
// gen grows with q, verify tracks h). Each proof runs on a cold prover. ---

func BenchmarkE5Fig5ProofGen(b *testing.B) {
	for _, qh := range bench.PaperQH() {
		b.Run(fmt.Sprintf("q=%d/h=%d", qh.Q, qh.H), func(b *testing.B) {
			fx := macroFixtureFor(b, qh)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coldDPOC(b, fx.ps, fx.kv).Prove(context.Background(), fx.product); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE5Fig5ProofVerify(b *testing.B) {
	for _, qh := range bench.PaperQH() {
		b.Run(fmt.Sprintf("q=%d/h=%d", qh.Q, qh.H), func(b *testing.B) {
			fx := macroFixtureFor(b, qh)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := poc.Verify(context.Background(), fx.ps, fx.cred, fx.product, fx.proof); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E6: §II.C strawman comparison ---

func BenchmarkE6BaselineBuildPOC(b *testing.B) {
	signer, err := baseline.NewSigner("vB")
	if err != nil {
		b.Fatal(err)
	}
	traces := make([]poc.Trace, 16)
	for i := range traces {
		traces[i] = poc.Trace{Product: poc.ProductID(fmt.Sprintf("id-%d", i)), Data: []byte("d")}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signer.BuildPOC(traces); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6ZKEDBAgg(b *testing.B) {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	traces := make([]poc.Trace, 16)
	for i := range traces {
		traces[i] = poc.Trace{Product: poc.ProductID(fmt.Sprintf("id-%d", i)), Data: []byte("d")}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := poc.Agg(ps, "vB", traces, poc.AggOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Fig. 3 quantified — incentive simulation ---

func BenchmarkE7IncentiveEpochs(b *testing.B) {
	cfg := sim.DefaultConfig()
	cfg.Trials = 50
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: end-to-end path query over TCP ---

var (
	e2eOnce   sync.Once
	e2eClient *node.ProxyClient
	e2eErr    error
)

func e2eSetup() {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		e2eErr = err
		return
	}
	g, parts := supplychain.LineGraph(4)
	members := make(map[poc.ParticipantID]*core.Member, 4)
	for id, p := range parts {
		members[id] = core.NewMember(ps, p)
	}
	tags, err := supplychain.MintTags("e2e", 1)
	if err != nil {
		e2eErr = err
		return
	}
	dist, err := core.RunDistribution(ps, g, members, "p0", tags, nil,
		supplychain.FirstChildSplitter, "bench-e2e")
	if err != nil {
		e2eErr = err
		return
	}
	dir := make(map[poc.ParticipantID]string, 4)
	for id, m := range members {
		srv, err := node.ServeParticipant(context.Background(), "127.0.0.1:0", m)
		if err != nil {
			e2eErr = err
			return
		}
		dir[id] = srv.Addr()
	}
	proxy := core.NewProxyWithConfig(ps, reputation.DefaultStrategy(), node.DirectoryResolver(dir).Resolver(), core.ProxyConfig{})
	proxySrv, err := node.ServeProxy(context.Background(), "127.0.0.1:0", proxy)
	if err != nil {
		e2eErr = err
		return
	}
	client := node.NewProxyClient(proxySrv.Addr())
	if err := client.RegisterList(context.Background(), "bench-e2e", dist.List); err != nil {
		e2eErr = err
		return
	}
	e2eClient = client
}

func BenchmarkE8EndToEndGoodQuery(b *testing.B) {
	e2eOnce.Do(e2eSetup)
	if e2eErr != nil {
		b.Fatal(e2eErr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, err := e2eClient.QueryPath(context.Background(), "e2e1", core.Good)
		if err != nil {
			b.Fatal(err)
		}
		if len(result.Path) != 4 {
			b.Fatalf("path length %d", len(result.Path))
		}
	}
}

func BenchmarkE8EndToEndBadQuery(b *testing.B) {
	e2eOnce.Do(e2eSetup)
	if e2eErr != nil {
		b.Fatal(e2eErr)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		result, err := e2eClient.QueryPath(context.Background(), "e2e1", core.Bad)
		if err != nil {
			b.Fatal(err)
		}
		if len(result.Path) != 4 {
			b.Fatalf("path length %d", len(result.Path))
		}
	}
}

// --- A4: plain-TMC (CHLMR) tree vs the paper's qTMC tree ---

func BenchmarkA4CHLMRProofGen(b *testing.B) {
	for _, qh := range []bench.QH{{Q: 8, H: 43}, {Q: 128, H: 19}} {
		b.Run(fmt.Sprintf("q=%d/h=%d", qh.Q, qh.H), func(b *testing.B) {
			crs, err := chlmr.CRSGen(chlmr.Params{Q: qh.Q, H: qh.H, KeyBits: 128})
			if err != nil {
				b.Fatal(err)
			}
			_, dec, err := crs.Commit(map[string][]byte{"k": []byte("v")})
			if err != nil {
				b.Fatal(err)
			}
			proof, err := dec.Prove("k")
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(proof.Size()), "own-proof-B")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Prove("k"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A1: proof generation flat across database sizes, on a cold prover ---

func BenchmarkA1ProofGenByDBSize(b *testing.B) {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("traces=%d", n), func(b *testing.B) {
			traces := make([]poc.Trace, n)
			for i := range traces {
				traces[i] = poc.Trace{Product: poc.ProductID(fmt.Sprintf("t-%d", i)), Data: []byte("d")}
			}
			kv := store.NewMem()
			if _, _, err := poc.Agg(ps, "vB", traces, poc.AggOptions{Commit: zkedb.CommitOptions{Store: kv}}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coldDPOC(b, ps, kv).Prove(context.Background(), traces[i%n].Product); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Proof cache and witness memo: cold vs memo vs warm ownership proofs ---

// BenchmarkProve measures one ownership proof three ways: cold (a
// restarted participant: empty proof cache, no witness memo, every call
// computes each level's RSA witness), memo (a proof-cache miss on a tree
// whose nodes' witness memos are warm from an earlier proof: zkedb's Prove
// recomputes the openings around the stored witnesses, then MarshalBinary
// encodes the proof, as DPOC.Prove does on a miss) and warm (repeats are
// served from the single-flight proof cache). Each step is expected to be
// much faster than the one before: the gaps are what the memo buys a
// participant re-proving a product its proof cache evicted, and what the
// cache buys one answering repeated demands for a hot product.
func BenchmarkProve(b *testing.B) {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		b.Fatal(err)
	}
	traces := []poc.Trace{{Product: "hot-product", Data: []byte("hot trace")}}

	b.Run("cold", func(b *testing.B) {
		kv := store.NewMem()
		if _, _, err := poc.Agg(ps, "vB", traces, poc.AggOptions{Commit: zkedb.CommitOptions{Store: kv}}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := coldDPOC(b, ps, kv).Prove(context.Background(), "hot-product"); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("memo", func(b *testing.B) {
		_, dec, err := ps.CRS.Commit(map[string][]byte{"hot-product": []byte("hot trace")}, zkedb.CommitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dec.Prove(context.Background(), "hot-product"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			proof, err := dec.Prove(context.Background(), "hot-product")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := proof.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		_, dpoc, err := poc.Agg(ps, "vB", traces, poc.AggOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dpoc.Prove(context.Background(), "hot-product"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := dpoc.Prove(context.Background(), "hot-product"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
