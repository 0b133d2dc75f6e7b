package rsavc

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"math/big"
	"testing"
	"testing/quick"
)

// testModulusBits keeps unit tests fast; benchmarks use DefaultModulusBits.
const testModulusBits = 512

func testParams(t *testing.T, q, messageBits int) *Params {
	t.Helper()
	p, err := Setup(q, messageBits, testModulusBits)
	if err != nil {
		t.Fatalf("Setup(%d, %d): %v", q, messageBits, err)
	}
	return p
}

func randomVector(p *Params, seed string) []*big.Int {
	ms := make([]*big.Int, p.Q)
	for i := range ms {
		digest := sha256.Sum256([]byte(seed + string(rune(i))))
		m := new(big.Int).SetBytes(digest[:])
		m.Mod(m, p.MaxMessage())
		ms[i] = m
	}
	return ms
}

func TestCommitOpenVerifyAllSlots(t *testing.T) {
	p := testParams(t, 8, 64)
	ms := randomVector(p, "vec")
	r, err := p.RandomHiding()
	if err != nil {
		t.Fatal(err)
	}
	v, err := p.Commit(ms, r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.Q; i++ {
		w, err := p.Open(ms, r, i)
		if err != nil {
			t.Fatalf("opening slot %d: %v", i, err)
		}
		if !p.Verify(v, i, ms[i], w) {
			t.Fatalf("honest opening of slot %d must verify", i)
		}
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	p := testParams(t, 4, 64)
	ms := randomVector(p, "vec")
	r, _ := p.RandomHiding()
	v, err := p.Commit(ms, r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.Open(ms, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrong := new(big.Int).Add(ms[1], big.NewInt(1))
	if p.Verify(v, 1, wrong, w) {
		t.Fatal("witness must not verify a different message")
	}
}

func TestVerifyRejectsWrongSlot(t *testing.T) {
	p := testParams(t, 4, 64)
	ms := randomVector(p, "vec")
	r, _ := p.RandomHiding()
	v, err := p.Commit(ms, r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.Open(ms, r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Verify(v, 2, ms[1], w) {
		t.Fatal("witness for slot 1 must not verify at slot 2")
	}
}

func TestVerifyRejectsTamperedWitness(t *testing.T) {
	p := testParams(t, 4, 64)
	ms := randomVector(p, "vec")
	r, _ := p.RandomHiding()
	v, err := p.Commit(ms, r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.Open(ms, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Lambda = new(big.Int).Add(w.Lambda, big.NewInt(1))
	if p.Verify(v, 0, ms[0], w) {
		t.Fatal("tampered witness must not verify")
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	p := testParams(t, 4, 64)
	ms := randomVector(p, "vec")
	r, _ := p.RandomHiding()
	v, _ := p.Commit(ms, r)
	w, _ := p.Open(ms, r, 0)
	if p.Verify(nil, 0, ms[0], w) {
		t.Fatal("nil commitment must be rejected")
	}
	if p.Verify(v, -1, ms[0], w) || p.Verify(v, p.Q, ms[0], w) {
		t.Fatal("out-of-range slot must be rejected")
	}
	if p.Verify(v, 0, ms[0], Witness{}) {
		t.Fatal("nil witness must be rejected")
	}
	if p.Verify(v, 0, new(big.Int).Neg(big.NewInt(1)), w) {
		t.Fatal("negative message must be rejected")
	}
	if p.Verify(v, 0, p.MaxMessage(), w) {
		t.Fatal("overlong message must be rejected")
	}
	if p.Verify(v, 0, ms[0], Witness{Lambda: big.NewInt(0)}) {
		t.Fatal("zero witness must be rejected")
	}
}

func TestCommitRejectsBadVectors(t *testing.T) {
	p := testParams(t, 4, 64)
	r, _ := p.RandomHiding()
	if _, err := p.Commit(make([]*big.Int, 3), r); err == nil {
		t.Fatal("short vector must be rejected")
	}
	ms := randomVector(p, "vec")
	ms[2] = p.MaxMessage()
	if _, err := p.Commit(ms, r); err == nil {
		t.Fatal("out-of-range slot value must be rejected")
	}
	if _, err := p.Open(ms, r, 5); err == nil {
		t.Fatal("out-of-range open position must be rejected")
	}
	ms = randomVector(p, "vec")
	if _, err := p.Commit(ms, big.NewInt(-1)); !errors.Is(err, ErrNegativeHiding) {
		t.Fatalf("negative hiding randomness must be rejected by Commit, got %v", err)
	}
	if _, err := p.Open(ms, big.NewInt(-1), 0); !errors.Is(err, ErrNegativeHiding) {
		t.Fatalf("negative hiding randomness must be rejected by Open, got %v", err)
	}
}

func TestFabricateOpensChosenSlot(t *testing.T) {
	p := testParams(t, 8, 64)
	m := big.NewInt(424242)
	v, w, err := p.Fabricate(3, m)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Verify(v, 3, m, w) {
		t.Fatal("fabricated commitment must verify at the chosen slot")
	}
}

func TestFabricateRejectsBadInputs(t *testing.T) {
	p := testParams(t, 4, 64)
	if _, _, err := p.Fabricate(9, big.NewInt(1)); err == nil {
		t.Fatal("out-of-range slot must be rejected")
	}
	if _, _, err := p.Fabricate(0, p.MaxMessage()); err == nil {
		t.Fatal("out-of-range message must be rejected")
	}
}

func TestPrimesDistinctAndAboveMessageSpace(t *testing.T) {
	p := testParams(t, 16, 64)
	seen := make(map[string]bool, len(p.Primes))
	for _, e := range p.Primes {
		if e.BitLen() <= p.MessageBits {
			t.Fatalf("prime %v not above message space", e)
		}
		if !e.ProbablyPrime(16) {
			t.Fatalf("%v is not prime", e)
		}
		key := e.String()
		if seen[key] {
			t.Fatalf("duplicate prime %v", e)
		}
		seen[key] = true
	}
}

func TestDerivePrimesDeterministic(t *testing.T) {
	a := derivePrimes(8, 64)
	b := derivePrimes(8, 64)
	for i := range a {
		if a[i].Cmp(b[i]) != 0 {
			t.Fatal("prime derivation must be deterministic")
		}
	}
}

func TestParamsJSONRoundTrip(t *testing.T) {
	p := testParams(t, 4, 64)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Params
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Rehydrate(); err != nil {
		t.Fatal(err)
	}
	ms := randomVector(p, "wire")
	r, _ := p.RandomHiding()
	v, err := p.Commit(ms, r)
	if err != nil {
		t.Fatal(err)
	}
	w, err := p.Open(ms, r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Verify(v, 2, ms[2], w) {
		t.Fatal("rehydrated params must verify openings from the original")
	}
}

func TestRehydrateRejectsMalformed(t *testing.T) {
	var p Params
	if err := p.Rehydrate(); err == nil {
		t.Fatal("empty params must be rejected")
	}
	bad := Params{N: big.NewInt(35), G: big.NewInt(4), Q: 1, MessageBits: 64,
		Primes: []*big.Int{big.NewInt(7)}}
	if err := bad.Rehydrate(); err == nil {
		t.Fatal("prime below message space must be rejected")
	}
	prime := []*big.Int{big.NewInt(11)}
	for name, bad := range map[string]Params{
		"even modulus":      {N: big.NewInt(36), G: big.NewInt(4), Q: 1, MessageBits: 2, Primes: prime},
		"modulus one":       {N: big.NewInt(1), G: big.NewInt(4), Q: 1, MessageBits: 2, Primes: prime},
		"zero base":         {N: big.NewInt(35), G: big.NewInt(0), Q: 1, MessageBits: 2, Primes: prime},
		"base past modulus": {N: big.NewInt(35), G: big.NewInt(39), Q: 1, MessageBits: 2, Primes: prime},
		"negative prime":    {N: big.NewInt(35), G: big.NewInt(4), Q: 1, MessageBits: 2, Primes: []*big.Int{big.NewInt(-11)}},
	} {
		if err := bad.Rehydrate(); err == nil {
			t.Fatalf("%s must be rejected", name)
		}
	}
}

func TestSetupRejectsBadArguments(t *testing.T) {
	if _, err := Setup(0, 64, testModulusBits); err == nil {
		t.Fatal("q=0 must be rejected")
	}
	if _, err := Setup(4, 2, testModulusBits); err == nil {
		t.Fatal("tiny message space must be rejected")
	}
}

func TestCommitmentHiding(t *testing.T) {
	p := testParams(t, 4, 64)
	ms := randomVector(p, "same")
	r1, _ := p.RandomHiding()
	r2, _ := p.RandomHiding()
	v1, _ := p.Commit(ms, r1)
	v2, _ := p.Commit(ms, r2)
	if v1.Cmp(v2) == 0 {
		t.Fatal("fresh hiding randomness must change the commitment")
	}
}

func TestPropertyCommitOpenVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in short mode")
	}
	p := testParams(t, 4, 32)
	prop := func(a, b, c, d uint32, slot uint8) bool {
		ms := []*big.Int{
			new(big.Int).SetUint64(uint64(a)),
			new(big.Int).SetUint64(uint64(b)),
			new(big.Int).SetUint64(uint64(c)),
			new(big.Int).SetUint64(uint64(d)),
		}
		i := int(slot) % p.Q
		r, err := p.RandomHiding()
		if err != nil {
			return false
		}
		v, err := p.Commit(ms, r)
		if err != nil {
			return false
		}
		w, err := p.Open(ms, r, i)
		if err != nil {
			return false
		}
		return p.Verify(v, i, ms[i], w)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
