package qmercurial

import (
	"crypto/sha256"
	"math/big"
	"testing"
)

const (
	testQ           = 8
	testMessageBits = 64
	testModulusBits = 512
)

func testKey(t *testing.T) *PublicKey {
	t.Helper()
	pk, err := KGen(testQ, testMessageBits, testModulusBits)
	if err != nil {
		t.Fatalf("KGen: %v", err)
	}
	return pk
}

func testVector(pk *PublicKey, seed string) []*big.Int {
	ms := make([]*big.Int, pk.Q())
	for i := range ms {
		digest := sha256.Sum256([]byte(seed + string(rune('a'+i))))
		m := new(big.Int).SetBytes(digest[:])
		m.Mod(m, pk.VC.MaxMessage())
		ms[i] = m
	}
	return ms
}

func TestHardCommitHardOpenEverySlot(t *testing.T) {
	pk := testKey(t)
	ms := testVector(pk, "hard")
	c, dec, err := pk.HCom(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pk.Q(); i++ {
		op, err := pk.HOpen(dec, i)
		if err != nil {
			t.Fatalf("HOpen slot %d: %v", i, err)
		}
		if !pk.VerHOpen(c, op) {
			t.Fatalf("hard opening of slot %d must verify", i)
		}
		if op.Message.Cmp(ms[i]) != 0 {
			t.Fatalf("slot %d opened to wrong message", i)
		}
	}
}

func TestHardCommitSoftOpen(t *testing.T) {
	pk := testKey(t)
	ms := testVector(pk, "tease")
	c, dec, err := pk.HCom(ms)
	if err != nil {
		t.Fatal(err)
	}
	op, err := pk.SOpenHard(dec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !pk.VerSOpen(c, op) {
		t.Fatal("tease of a hard q-commitment must verify")
	}
}

func TestSoftCommitSoftOpensToAnything(t *testing.T) {
	pk := testKey(t)
	c, dec := pk.SCom()
	for _, slot := range []int{0, 3, 7} {
		m := big.NewInt(int64(1000 + slot))
		op, err := pk.SOpenSoft(dec, slot, m)
		if err != nil {
			t.Fatalf("SOpenSoft slot %d: %v", slot, err)
		}
		if !pk.VerSOpen(c, op) {
			t.Fatalf("soft opening at slot %d must verify", slot)
		}
	}
}

func TestSoftCommitSameSlotDifferentMessages(t *testing.T) {
	// The defining mercurial capability: one soft commitment, multiple
	// inconsistent teases.
	pk := testKey(t)
	c, dec := pk.SCom()
	a, err := pk.SOpenSoft(dec, 2, big.NewInt(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := pk.SOpenSoft(dec, 2, big.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if !pk.VerSOpen(c, a) || !pk.VerSOpen(c, b) {
		t.Fatal("both inconsistent teases of a soft commitment must verify")
	}
}

func TestHardOpeningWrongMessageRejected(t *testing.T) {
	pk := testKey(t)
	ms := testVector(pk, "bind")
	c, dec, err := pk.HCom(ms)
	if err != nil {
		t.Fatal(err)
	}
	op, err := pk.HOpen(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	op.Message = new(big.Int).Add(op.Message, big.NewInt(1))
	if pk.VerHOpen(c, op) {
		t.Fatal("substituted slot message must not verify")
	}
}

func TestHardOpeningSubstitutedVRejected(t *testing.T) {
	pk := testKey(t)
	ms := testVector(pk, "bindV")
	c, dec, err := pk.HCom(ms)
	if err != nil {
		t.Fatal(err)
	}
	// Fabricate a V' that opens slot 1 to a forged message, then try to pass
	// it off inside a hard opening of the original commitment.
	forged := big.NewInt(31337)
	vPrime, wPrime, err := pk.VC.Fabricate(1, forged)
	if err != nil {
		t.Fatal(err)
	}
	op, err := pk.HOpen(dec, 1)
	if err != nil {
		t.Fatal(err)
	}
	op.V = vPrime
	op.Witness = wPrime
	op.Message = forged
	if pk.VerHOpen(c, op) {
		t.Fatal("hard opening with substituted V must not verify: the mercurial layer binds H(V)")
	}
}

func TestTeaseOfHardCommitmentBindsV(t *testing.T) {
	pk := testKey(t)
	ms := testVector(pk, "teasebind")
	c, dec, err := pk.HCom(ms)
	if err != nil {
		t.Fatal(err)
	}
	forged := big.NewInt(99)
	vPrime, wPrime, err := pk.VC.Fabricate(0, forged)
	if err != nil {
		t.Fatal(err)
	}
	op, err := pk.SOpenHard(dec, 0)
	if err != nil {
		t.Fatal(err)
	}
	op.V = vPrime
	op.Witness = wPrime
	op.Message = forged
	if pk.VerSOpen(c, op) {
		t.Fatal("tease of a hard commitment with substituted V must not verify")
	}
}

func TestSoftCommitmentCannotHardOpen(t *testing.T) {
	pk := testKey(t)
	c, dec := pk.SCom()
	// Best effort forgery: fabricate V and reuse the soft randomness as if it
	// were hard randomness.
	v, w, err := pk.VC.Fabricate(0, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	forged := HardOpening{
		Slot:    0,
		Message: big.NewInt(7),
		V:       v,
		Witness: w,
	}
	forged.MCOpen.M = pk.hashV(v)
	forged.MCOpen.R0 = dec.MCDec.R0
	forged.MCOpen.R1 = dec.MCDec.R1
	if pk.VerHOpen(c, forged) {
		t.Fatal("soft q-commitment must not hard-open")
	}
}

func TestOpeningsRejectMalformed(t *testing.T) {
	pk := testKey(t)
	ms := testVector(pk, "malformed")
	c, dec, err := pk.HCom(ms)
	if err != nil {
		t.Fatal(err)
	}
	if pk.VerHOpen(c, HardOpening{}) {
		t.Fatal("empty hard opening must be rejected")
	}
	if pk.VerSOpen(c, SoftOpening{}) {
		t.Fatal("empty soft opening must be rejected")
	}
	if _, err := pk.HOpen(dec, -1); err == nil {
		t.Fatal("negative slot must be rejected")
	}
	if _, err := pk.HOpen(dec, pk.Q()); err == nil {
		t.Fatal("slot == q must be rejected")
	}
	if _, err := pk.SOpenHard(dec, pk.Q()); err == nil {
		t.Fatal("tease at slot == q must be rejected")
	}
	_, sdec := pk.SCom()
	if _, err := pk.SOpenSoft(sdec, pk.Q(), big.NewInt(1)); err == nil {
		t.Fatal("soft open at slot == q must be rejected")
	}
	if _, _, err := pk.HCom(ms[:2]); err == nil {
		t.Fatal("short vector must be rejected")
	}
}

func TestRehydrate(t *testing.T) {
	pk := testKey(t)
	clone := &PublicKey{VC: pk.VC}
	if err := clone.Rehydrate(); err != nil {
		t.Fatal(err)
	}
	ms := testVector(pk, "wire")
	c, dec, err := pk.HCom(ms)
	if err != nil {
		t.Fatal(err)
	}
	op, err := pk.HOpen(dec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !clone.VerHOpen(c, op) {
		t.Fatal("rehydrated key must verify openings from the original")
	}
	var empty PublicKey
	if err := empty.Rehydrate(); err == nil {
		t.Fatal("rehydrating empty key must fail")
	}
}

func TestCommitmentConstantSize(t *testing.T) {
	pk := testKey(t)
	ms := testVector(pk, "size")
	hc, _, err := pk.HCom(ms)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := pk.SCom()
	if len(hc.Bytes()) != len(sc.Bytes()) {
		t.Fatal("hard and soft commitments must be indistinguishable in size")
	}
}

// TestMemoizedOpeningsReuseWitness pins the witness memo: a memoized
// decommitment opens every slot, hard and soft, with exactly the witness a
// plain one computes; once a slot has been opened, later openings of it
// through any copy of the decommitment compute nothing (they allocate
// nothing, where rsavc.Open allocates), while a decommitment straight from
// HCom keeps computing every opening.
func TestMemoizedOpeningsReuseWitness(t *testing.T) {
	pk := testKey(t)
	c, plain, err := pk.HCom(testVector(pk, "memo"))
	if err != nil {
		t.Fatal(err)
	}
	memo := plain.Memoized()
	for i := 0; i < pk.Q(); i++ {
		want, err := pk.HOpen(plain, i)
		if err != nil {
			t.Fatal(err)
		}
		hard, err := pk.HOpen(memo, i)
		if err != nil {
			t.Fatal(err)
		}
		if hard.Witness.Lambda.Cmp(want.Witness.Lambda) != 0 {
			t.Fatalf("slot %d: memoized witness differs from a recomputed one", i)
		}
		cp := memo
		soft, err := pk.SOpenHard(cp, i)
		if err != nil {
			t.Fatal(err)
		}
		if soft.Witness.Lambda != hard.Witness.Lambda {
			t.Fatalf("slot %d: a copy of the decommitment does not share its memo", i)
		}
		if !pk.VerHOpen(c, hard) || !pk.VerSOpen(c, soft) {
			t.Fatalf("slot %d: memoized openings must verify", i)
		}
		if n := testing.AllocsPerRun(5, func() { _, _ = pk.HOpen(memo, i) }); n != 0 {
			t.Errorf("slot %d: repeat HOpen allocates %v times, want 0 (no rsavc.Open)", i, n)
		}
		if n := testing.AllocsPerRun(5, func() { _, _ = pk.SOpenHard(memo, i) }); n != 0 {
			t.Errorf("slot %d: repeat SOpenHard allocates %v times, want 0 (no rsavc.Open)", i, n)
		}
	}
	if n := testing.AllocsPerRun(5, func() { _, _ = pk.HOpen(plain, 0) }); n == 0 {
		t.Error("an HOpen of a decommitment from HCom must compute its witness")
	}
}
