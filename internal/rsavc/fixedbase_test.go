package rsavc

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// The reference formulas: every exponentiation a plain big.Int.Exp, as this
// package computed before it had fixed-base tables. The tables must agree
// with them bit for bit.

func refBase(p *Params, i int) *big.Int {
	return new(big.Int).Exp(p.G, p.prodDiv[i], p.N)
}

func refCommit(p *Params, ms []*big.Int, r *big.Int) *big.Int {
	exp := new(big.Int).Mul(r, p.prodPrimes)
	for j, m := range ms {
		exp.Add(exp, new(big.Int).Mul(m, p.prodDiv[j]))
	}
	return new(big.Int).Exp(p.G, exp, p.N)
}

func refOpen(p *Params, ms []*big.Int, r *big.Int, i int) *big.Int {
	exp := new(big.Int).Mul(r, p.prodDiv[i])
	for j, m := range ms {
		if j != i {
			exp.Add(exp, new(big.Int).Mul(m, new(big.Int).Quo(p.prodDiv[i], p.Primes[j])))
		}
	}
	return new(big.Int).Exp(p.G, exp, p.N)
}

// refOpening returns Λ^{e_i} · g_i^m mod N: the value Verify compares with
// the commitment and Fabricate publishes as V'.
func refOpening(p *Params, i int, m, lambda *big.Int) *big.Int {
	got := new(big.Int).Exp(lambda, p.Primes[i], p.N)
	got.Mul(got, new(big.Int).Exp(refBase(p, i), m, p.N))
	return got.Mod(got, p.N)
}

// tableGeometries are the vector lengths and moduli the table tests sweep:
// the zkedb test geometry is q=8 at 512 bits, the paper geometry q=16 at
// 1024 bits.
var tableGeometries = []struct{ q, modulusBits int }{
	{1, 512}, {8, 512}, {16, 512}, {1, 1024}, {8, 1024}, {16, 1024},
}

var (
	keysMu sync.Mutex
	keys   = map[[2]int]*Params{}
)

// sharedKey returns one key per geometry for the whole test binary, with
// zkedb's 128-bit messages.
func sharedKey(t testing.TB, q, modulusBits int) *Params {
	t.Helper()
	keysMu.Lock()
	defer keysMu.Unlock()
	if p, ok := keys[[2]int{q, modulusBits}]; ok {
		return p
	}
	p, err := Setup(q, 128, modulusBits)
	if err != nil {
		t.Fatalf("Setup(%d, 128, %d): %v", q, modulusBits, err)
	}
	keys[[2]int{q, modulusBits}] = p
	return p
}

// slotMessages returns q 128-bit hash-derived messages, the width of zkedb's
// slot hashes.
func slotMessages(q int, seed string) []*big.Int {
	ms := make([]*big.Int, q)
	for i := range ms {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", seed, i)))
		ms[i] = new(big.Int).SetBytes(sum[:16])
	}
	return ms
}

// exponentsOfLength returns exponents of exactly n bits: a random one and,
// where n ends a window or spills one bit into the next (n ≡ 0, 1 mod w),
// also 2^n − 1, whose every digit is maximal.
func exponentsOfLength(rnd *rand.Rand, n int, w uint) []*big.Int {
	if n == 0 {
		return []*big.Int{new(big.Int)}
	}
	x := new(big.Int).Rand(rnd, new(big.Int).Lsh(big.NewInt(1), uint(n-1)))
	xs := []*big.Int{x.SetBit(x, n-1, 1)}
	if n%int(w) <= 1 {
		ones := new(big.Int).Lsh(big.NewInt(1), uint(n))
		xs = append(xs, ones.Sub(ones, big.NewInt(1)))
	}
	return xs
}

// checkTable compares tab.exp with big.Int.Exp of base at every exponent
// length from 0 to one past the table's bound.
func checkTable(t *testing.T, p *Params, name string, tab *fixedBase, base *big.Int, rnd *rand.Rand) {
	t.Helper()
	bound := int(tab.w) * tab.windows
	for n := 0; n <= bound+1; n++ {
		for _, x := range exponentsOfLength(rnd, n, tab.w) {
			if got, want := tab.exp(x), new(big.Int).Exp(base, x, p.N); got.Cmp(want) != 0 {
				t.Fatalf("%s^x with a %d-bit x (table bound %d): table and big.Int.Exp differ", name, n, bound)
			}
		}
	}
}

func TestFixedBaseMatchesExp(t *testing.T) {
	for _, geo := range tableGeometries {
		t.Run(fmt.Sprintf("q%d-%d", geo.q, geo.modulusBits), func(t *testing.T) {
			t.Parallel()
			p := sharedKey(t, geo.q, geo.modulusBits)
			rnd := rand.New(rand.NewSource(int64(geo.q*geo.modulusBits + 1)))
			checkTable(t, p, "g", p.g, p.G, rnd)
			for i, slot := range p.slots {
				checkTable(t, p, fmt.Sprintf("g_%d", i), slot, refBase(p, i), rnd)
			}
		})
	}
}

func TestOperationsMatchReference(t *testing.T) {
	for _, geo := range tableGeometries {
		t.Run(fmt.Sprintf("q%d-%d", geo.q, geo.modulusBits), func(t *testing.T) {
			p := sharedKey(t, geo.q, geo.modulusBits)
			ms := slotMessages(p.Q, "reference")
			ms[0] = new(big.Int).Sub(p.MaxMessage(), big.NewInt(1))
			if p.Q > 1 {
				ms[1] = new(big.Int)
			}
			r, err := p.RandomHiding()
			if err != nil {
				t.Fatal(err)
			}
			// r = 0, a fresh r, and an r twice hidingBits wide, whose
			// exponents run past the g table's bound.
			wide := new(big.Int).Lsh(r, hidingBits)
			for _, r := range []*big.Int{new(big.Int), r, wide.Add(wide, r)} {
				v, err := p.Commit(ms, r)
				if err != nil {
					t.Fatal(err)
				}
				if v.Cmp(refCommit(p, ms, r)) != 0 {
					t.Fatalf("Commit with a %d-bit r differs from the reference", r.BitLen())
				}
				for i := 0; i < p.Q; i++ {
					w, err := p.Open(ms, r, i)
					if err != nil {
						t.Fatal(err)
					}
					if w.Lambda.Cmp(refOpen(p, ms, r, i)) != 0 {
						t.Fatalf("Open(%d) with a %d-bit r differs from the reference", i, r.BitLen())
					}
					if !p.Verify(v, i, ms[i], w) || refOpening(p, i, ms[i], w.Lambda).Cmp(v) != 0 {
						t.Fatalf("slot %d: honest opening must verify under both", i)
					}
					wrong := new(big.Int).Xor(ms[i], big.NewInt(1))
					if p.Verify(v, i, wrong, w) || refOpening(p, i, wrong, w.Lambda).Cmp(v) == 0 {
						t.Fatalf("slot %d: a different message must fail under both", i)
					}
				}
			}
			for i := 0; i < p.Q; i++ {
				v, w, err := p.Fabricate(i, ms[i])
				if err != nil {
					t.Fatal(err)
				}
				if v.Cmp(refOpening(p, i, ms[i], w.Lambda)) != 0 {
					t.Fatalf("Fabricate(%d): V' differs from the reference for its Λ'", i)
				}
				if !p.Verify(v, i, ms[i], w) {
					t.Fatalf("Fabricate(%d) must verify", i)
				}
			}
		})
	}
}

func TestExpPeeledMatchesExp(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for _, bits := range []int{512, 1024} {
		p := sharedKey(t, 8, bits)
		bases := []*big.Int{big.NewInt(1), big.NewInt(2), new(big.Int).Sub(p.N, big.NewInt(1)), new(big.Int).Rand(rnd, p.N)}
		exps := append([]*big.Int(nil), p.Primes...)
		for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 130, 131, 135, 136, 137, 191, 192, 193, 200} {
			exps = append(exps, exponentsOfLength(rnd, n, 8)...)
		}
		for _, x := range bases {
			for _, e := range exps {
				if got, want := expPeeled(x, e, p.N), new(big.Int).Exp(x, e, p.N); got.Cmp(want) != 0 {
					t.Fatalf("%d-bit N, %d-bit e: expPeeled differs from big.Int.Exp", bits, e.BitLen())
				}
			}
		}
	}
}

// tableBytes is the memory one key's fixed-base tables occupy.
func tableBytes(p *Params) int {
	words := len(p.g.entries)
	for _, s := range p.slots {
		words += len(s.entries)
	}
	return words * bits.UintSize / 8
}

func TestTableMemoryBounds(t *testing.T) {
	for _, c := range []struct {
		name                     string
		q, modulusBits, maxBytes int
	}{
		{"paper geometry", 16, 1024, 3 << 20},
		{"test geometry", 8, 512, 1 << 20},
	} {
		got := tableBytes(sharedKey(t, c.q, c.modulusBits))
		t.Logf("%s (q=%d, %d-bit N): %d bytes of tables", c.name, c.q, c.modulusBits, got)
		if got > c.maxBytes {
			t.Errorf("%s: tables take %d bytes, over the %d-byte budget", c.name, got, c.maxBytes)
		}
	}
}

// TestParamsConcurrentUse drives one Params from several goroutines, as
// commit workers, concurrent provers and proxy verifiers share one key.
// Run it under -race -count=10.
func TestParamsConcurrentUse(t *testing.T) {
	p := sharedKey(t, 8, 512)
	ms := slotMessages(p.Q, "concurrent")
	r, err := p.RandomHiding()
	if err != nil {
		t.Fatal(err)
	}
	wantV := refCommit(p, ms, r)
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := p.Commit(ms, r)
			if err != nil || v.Cmp(wantV) != 0 {
				t.Errorf("worker %d: Commit differs from the reference (err %v)", i, err)
				return
			}
			w, err := p.Open(ms, r, i)
			if err != nil || w.Lambda.Cmp(refOpen(p, ms, r, i)) != 0 {
				t.Errorf("worker %d: Open differs from the reference (err %v)", i, err)
				return
			}
			if !p.Verify(v, i, ms[i], w) {
				t.Errorf("worker %d: honest opening rejected", i)
			}
			fv, fw, err := p.Fabricate(i, ms[i])
			if err != nil || !p.Verify(fv, i, ms[i], fw) {
				t.Errorf("worker %d: fabricated opening rejected (err %v)", i, err)
			}
			data, err := json.Marshal(p)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			var back Params
			if err := json.Unmarshal(data, &back); err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			if err := back.Rehydrate(); err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			if !back.Verify(v, i, ms[i], w) {
				t.Errorf("worker %d: rehydrated copy rejects an opening from the original", i)
			}
		}(g)
	}
	wg.Wait()
}
