package poc

import (
	"context"
	"testing"

	"desword/internal/zkedb"
)

// FuzzVerifyMemo feeds the verified-proof memo mutated bytes of valid
// ownership and non-ownership proofs, decoded the way the wire decodes
// them, under either proof kind and either product id. The memoized verify
// runs twice, so the second call can hit; both must agree with a fresh
// Verify on the verdict and on the recovered trace.
func FuzzVerifyMemo(f *testing.F) {
	fx := newMemoFixture(f)
	ids := []ProductID{fx.ownID, fx.absent}
	for i, p := range []*Proof{fx.own, fx.nonOwn} {
		data, err := p.ZK.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, uint8(p.Kind), uint8(i))
		f.Add(data, uint8(p.Kind), uint8(1-i))
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 1
		f.Add(flipped, uint8(p.Kind), uint8(i))
	}
	memo := NewVerifyMemo(fx.ps, 64)
	ctx := context.Background()

	f.Fuzz(func(t *testing.T, data []byte, kind, which uint8) {
		var zk zkedb.Proof
		if err := zk.UnmarshalBinary(data); err != nil {
			return
		}
		proof := &Proof{Kind: ProofKind(kind), ZK: &zk}
		id := ids[int(which)%len(ids)]
		want, wantErr := Verify(ctx, fx.ps, fx.credential, id, proof)
		for call := 0; call < 2; call++ {
			got, err := memo.Verify(ctx, fx.credential, id, proof)
			sameVerdict(t, "memoized verify", got, err, want, wantErr)
		}
	})
}
