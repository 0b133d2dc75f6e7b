package poc

import (
	"bytes"
	"context"
	"testing"
)

// FuzzVerifyMemo feeds the verified-proof memo raw received bytes — mutated
// encodings of valid ownership and non-ownership proofs, or anything else —
// under either proof kind and either product id, the way the wire delivers
// them: bytes that fail to decode are proofs too. The memoized verify runs
// twice, so the second call can hit; both must agree with a fresh Verify on
// the verdict and on the recovered trace.
func FuzzVerifyMemo(f *testing.F) {
	fx := newMemoFixture(f)
	ids := []ProductID{fx.ownID, fx.absent}
	for i, p := range []*Proof{fx.own, fx.nonOwn} {
		data, err := p.Encoding()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(p.Kind), uint8(i))
		f.Add(data, uint8(p.Kind), uint8(1-i))
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 1
		f.Add(flipped, uint8(p.Kind), uint8(i))
		f.Add(data[:len(data)-1], uint8(p.Kind), uint8(i))
	}
	memo := NewVerifyMemo(fx.ps, 64)
	ctx := context.Background()

	f.Fuzz(func(t *testing.T, data []byte, kind, which uint8) {
		id := ids[int(which)%len(ids)]
		want, wantErr := Verify(ctx, fx.ps, fx.credential, id, ProofFromBytes(ProofKind(kind), bytes.Clone(data)))
		for call := 0; call < 2; call++ {
			got, err := memo.Verify(ctx, fx.credential, id, ProofFromBytes(ProofKind(kind), bytes.Clone(data)))
			sameVerdict(t, "memoized verify", got, err, want, wantErr)
		}
	})
}
