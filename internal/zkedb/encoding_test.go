package zkedb

import (
	"bytes"
	"context"
	"math/big"
	"testing"
)

// TestProofBinaryRefusesUnfaithfulShapes pins that MarshalBinary is
// faithful: a proof shape whose bytes would decode to a different proof is
// an error, never a silent change, while honest proofs keep encoding to
// bytes that decode and re-encode to themselves.
func TestProofBinaryRefusesUnfaithfulShapes(t *testing.T) {
	crs := testCRS(t)
	_, dec, err := crs.Commit(testDB(4), CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prove := func(key string) *Proof {
		t.Helper()
		p, err := dec.Prove(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	own, nonOwn := prove("product-001"), prove("missing-key")

	encode := func(p *Proof) []byte {
		t.Helper()
		b, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("honest %v proof: %v", p.Kind, err)
		}
		return b
	}
	// clone copies a proof through its encoding, so a mutation never
	// reaches the honest original.
	clone := func(p *Proof) *Proof {
		t.Helper()
		var c Proof
		if err := c.UnmarshalBinary(encode(p)); err != nil {
			t.Fatal(err)
		}
		return &c
	}
	for _, p := range []*Proof{own, nonOwn} {
		b := encode(p)
		if re := encode(clone(p)); !bytes.Equal(b, re) {
			t.Fatalf("honest %v proof does not re-encode to its own bytes", p.Kind)
		}
	}

	negate := func(x *big.Int) { x.Neg(x) }
	cases := []struct {
		name   string
		base   *Proof
		mutate func(*Proof)
	}{
		// byte(257) == 1 would read back as an ownership proof.
		{"kind past one byte", own, func(p *Proof) { p.Kind = 257 }},
		{"unknown kind", own, func(p *Proof) { p.Kind = 0 }},
		{"negative level message", own, func(p *Proof) { negate(p.Levels[0].Hard.Message) }},
		{"negative witness", own, func(p *Proof) { negate(p.Levels[3].Hard.Witness.Lambda) }},
		{"negative soft tau", nonOwn, func(p *Proof) { negate(p.Levels[2].Soft.MCTease.Tau) }},
		{"negative leaf opening", own, func(p *Proof) { negate(p.LeafHard.R0) }},
		{"negative leaf tease", nonOwn, func(p *Proof) { negate(p.LeafTease.M) }},
		{"nil level v", own, func(p *Proof) { p.Levels[1].Hard.V = nil }},
		{"nil mercurial opening", own, func(p *Proof) { p.Levels[2].Hard.MCOpen.R1 = nil }},
		{"nil soft message", nonOwn, func(p *Proof) { p.Levels[0].Soft.Message = nil }},
		{"nil soft witness", nonOwn, func(p *Proof) { p.Levels[4].Soft.Witness.Lambda = nil }},
		{"nil leaf opening", own, func(p *Proof) { p.LeafHard.M = nil }},
		{"nil leaf tease", nonOwn, func(p *Proof) { p.LeafTease.Tau = nil }},
		{"level with both openings", own, func(p *Proof) { p.Levels[5].Soft = clone(nonOwn).Levels[5].Soft }},
		{"leaf with both openings", own, func(p *Proof) { p.LeafTease = clone(nonOwn).LeafTease }},
		{"level with no opening", nonOwn, func(p *Proof) { p.Levels[6].Soft = nil }},
		{"missing leaf", own, func(p *Proof) { p.LeafHard = nil }},
	}
	for _, c := range cases {
		p := clone(c.base)
		c.mutate(p)
		if b, err := p.MarshalBinary(); err == nil {
			t.Errorf("%s: encoded to %d bytes, want an error", c.name, len(b))
		}
	}
}
