package poc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"desword/internal/obs"
	"desword/internal/supplychain"
	"desword/internal/trace"
)

// memoFixture is one participant's POC with an honest ownership proof
// (id-00) and an honest non-ownership proof (id-absent), plus a second
// participant's POC to replay them under.
type memoFixture struct {
	ps            *PublicParams
	credential    POC
	other         POC
	own, nonOwn   *Proof
	ownID, absent ProductID
}

func newMemoFixture(t testing.TB) *memoFixture {
	t.Helper()
	ps := testPS(t)
	credential, dpoc, err := Agg(ps, "v1", sampleTraces("v1", 4), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := Agg(ps, "v2", sampleTraces("v2", 4), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fx := &memoFixture{ps: ps, credential: credential, other: other, ownID: "id-00", absent: "id-absent"}
	if fx.own, err = dpoc.Prove(context.Background(), fx.ownID); err != nil {
		t.Fatal(err)
	}
	if fx.nonOwn, err = dpoc.Prove(context.Background(), fx.absent); err != nil {
		t.Fatal(err)
	}
	if fx.own.Kind != Ownership || fx.nonOwn.Kind != NonOwnership {
		t.Fatalf("fixture proofs are %v and %v", fx.own.Kind, fx.nonOwn.Kind)
	}
	return fx
}

// provenProof is a proof together with the product it speaks for.
type provenProof struct {
	id    ProductID
	proof *Proof
}

// honest lists the fixture's two honest proofs.
func (fx *memoFixture) honest() []provenProof {
	return []provenProof{{fx.ownID, fx.own}, {fx.absent, fx.nonOwn}}
}

// received copies a proof into the form the wire delivers: its bytes only.
func received(t testing.TB, p *Proof) *Proof {
	t.Helper()
	data, err := p.Encoding()
	if err != nil {
		t.Fatal(err)
	}
	return ProofFromBytes(p.Kind, bytes.Clone(data))
}

// cloneProof deep-copies a proof's content through its encoding, for a
// test to edit.
func cloneProof(t testing.TB, p *Proof) *Proof {
	t.Helper()
	zk, err := received(t, p).content()
	if err != nil {
		t.Fatal(err)
	}
	return &Proof{Kind: p.Kind, ZK: zk}
}

// memoCounts reads the process-wide memo counters by their exported names;
// tests compare deltas.
func memoCounts() (hits, misses uint64) {
	return obs.Default.Counter("desword_verifymemo_hits", "").Value(),
		obs.Default.Counter("desword_verifymemo_misses", "").Value()
}

// sameVerdict fails unless the memo's answer is exactly Verify's.
func sameVerdict(t testing.TB, what string, got *Trace, gotErr error, want *Trace, wantErr error) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: memo returned trace %+v, Verify %+v", what, got, want)
	}
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: memo returned error %v, Verify %v", what, gotErr, wantErr)
	}
}

// TestVerifyMemoHitReturnsVerdict pins the memo's contract on honest proofs:
// the first verify misses, the repeat hits, and both return exactly what
// Verify does — the committed trace for ownership, nothing for
// non-ownership.
func TestVerifyMemoHitReturnsVerdict(t *testing.T) {
	fx := newMemoFixture(t)
	memo := NewVerifyMemo(fx.ps, 16)
	ctx := context.Background()
	for _, c := range fx.honest() {
		want, wantErr := Verify(ctx, fx.ps, fx.credential, c.id, c.proof)
		if wantErr != nil {
			t.Fatalf("honest %v proof rejected: %v", c.proof.Kind, wantErr)
		}
		hits0, misses0 := memoCounts()
		got, err := memo.Verify(ctx, fx.credential, c.id, c.proof)
		sameVerdict(t, "cold "+c.proof.Kind.String(), got, err, want, wantErr)
		// The wire hands the proxy a fresh copy of the same bytes.
		got, err = memo.Verify(ctx, fx.credential, c.id, received(t, c.proof))
		sameVerdict(t, "warm "+c.proof.Kind.String(), got, err, want, wantErr)
		hits, misses := memoCounts()
		if hits-hits0 != 1 || misses-misses0 != 1 {
			t.Fatalf("%v: %d hits, %d misses, want 1 and 1", c.proof.Kind, hits-hits0, misses-misses0)
		}
	}
	if n := memo.lru.len(); n != 2 {
		t.Fatalf("memo holds %d keys, want 2", n)
	}
}

// TestVerifyMemoHitSpan pins the trace view of the memo: every call is one
// "poc.verify" span, the miss tagged memo=miss with the "zkedb.verify" span
// of the verification it ran below it, the hit tagged memo=hit with nothing
// below it.
func TestVerifyMemoHitSpan(t *testing.T) {
	fx := newMemoFixture(t)
	memo := NewVerifyMemo(fx.ps, 4)
	trace.Default.SetSampleRate(1)
	t.Cleanup(func() { trace.Default.SetSampleRate(0) })
	ctx, root := trace.Default.Start(context.Background(), "test.verify")
	for i := 0; i < 2; i++ {
		if _, err := memo.Verify(ctx, fx.credential, fx.ownID, fx.own); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	td, ok := trace.Default.Recorder().Get(root.TraceID())
	if !ok {
		t.Fatal("trace missing from the recorder")
	}
	var tags []string
	for _, n := range td.Tree()[0].Children {
		if n.Name != "poc.verify" {
			t.Fatalf("unexpected span %q below the root", n.Name)
		}
		var tag string
		for _, a := range n.Attrs {
			if a.Key == "memo" {
				tag = a.Value
			}
		}
		var below []string
		for _, c := range n.Children {
			below = append(below, c.Name)
		}
		tags = append(tags, tag+":"+strings.Join(below, ","))
	}
	sort.Strings(tags)
	if want := []string{"hit:", "miss:zkedb.verify"}; !reflect.DeepEqual(tags, want) {
		t.Fatalf("poc.verify spans (memo tag: children) = %q, want %q", tags, want)
	}
}

// TestVerifyMemoKeyBinding pins that a memoized verdict is bound to its POC
// and product id: the same proof bytes replayed under another POC or for
// another product miss, and are rejected exactly as Verify rejects them.
func TestVerifyMemoKeyBinding(t *testing.T) {
	fx := newMemoFixture(t)
	memo := NewVerifyMemo(fx.ps, 16)
	ctx := context.Background()
	for _, c := range fx.honest() {
		if _, err := memo.Verify(ctx, fx.credential, c.id, c.proof); err != nil {
			t.Fatal(err)
		}
	}
	replays := []struct {
		name       string
		credential POC
		id         ProductID
		proof      *Proof
	}{
		{"ownership under another POC", fx.other, fx.ownID, fx.own},
		{"ownership for another product", fx.credential, "id-01", fx.own},
		{"non-ownership under another POC", fx.other, fx.absent, fx.nonOwn},
		{"non-ownership for another product", fx.credential, "id-02", fx.nonOwn},
		{"non-ownership for a committed product", fx.credential, fx.ownID, fx.nonOwn},
	}
	for _, r := range replays {
		hits0, misses0 := memoCounts()
		got, err := memo.Verify(ctx, r.credential, r.id, r.proof)
		want, wantErr := Verify(ctx, fx.ps, r.credential, r.id, r.proof)
		if wantErr == nil {
			t.Fatalf("%s: Verify accepted a replayed proof", r.name)
		}
		sameVerdict(t, r.name, got, err, want, wantErr)
		if hits, misses := memoCounts(); hits != hits0 || misses-misses0 != 1 {
			t.Fatalf("%s: %d hits, %d misses, want a single miss", r.name, hits-hits0, misses-misses0)
		}
	}
	if n := memo.lru.len(); n != 2 {
		t.Fatalf("rejections changed the memo: %d keys, want 2", n)
	}
}

// TestVerifyMemoRejectsFramingFirst pins that malformed framing — the
// adversary's kind relabel, an unknown kind, a missing proof — is rejected
// before the memo is consulted, even when the relabelled content is
// memoized.
func TestVerifyMemoRejectsFramingFirst(t *testing.T) {
	fx := newMemoFixture(t)
	memo := NewVerifyMemo(fx.ps, 16)
	ctx := context.Background()
	for _, c := range fx.honest() {
		if _, err := memo.Verify(ctx, fx.credential, c.id, c.proof); err != nil {
			t.Fatal(err)
		}
	}
	relabel := func(p *Proof, kind ProofKind) *Proof { return &Proof{Kind: kind, ZK: p.ZK} }
	cases := []struct {
		name  string
		id    ProductID
		proof *Proof
		want  error
	}{
		{"ownership relabelled non-ownership", fx.ownID, relabel(fx.own, NonOwnership), ErrKindMismatch},
		{"non-ownership relabelled ownership", fx.absent, relabel(fx.nonOwn, Ownership), ErrKindMismatch},
		{"unknown kind", fx.ownID, relabel(fx.own, 7), ErrBadProof},
		{"nil proof", fx.ownID, nil, ErrBadProof},
		{"nil content", fx.ownID, &Proof{Kind: Ownership}, ErrBadProof},
	}
	hits0, misses0 := memoCounts()
	for _, c := range cases {
		got, err := memo.Verify(ctx, fx.credential, c.id, c.proof)
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: error %v, want %v", c.name, err, c.want)
		}
		want, wantErr := Verify(ctx, fx.ps, fx.credential, c.id, c.proof)
		sameVerdict(t, c.name, got, err, want, wantErr)
	}
	if hits, misses := memoCounts(); hits != hits0 || misses != misses0 {
		t.Fatalf("framing rejections consulted the memo: %d hits, %d misses", hits-hits0, misses-misses0)
	}
}

// TestVerifyMemoRemembersOnlyAcceptance pins the insertion rule: a rejected
// proof misses every time, and a proof the encoding cannot carry bypasses
// the memo entirely, with Verify's own verdict.
func TestVerifyMemoRemembersOnlyAcceptance(t *testing.T) {
	fx := newMemoFixture(t)
	memo := NewVerifyMemo(fx.ps, 16)
	ctx := context.Background()
	forged := cloneProof(t, fx.own)
	forged.ZK.Value = []byte("laundered production record")
	want, wantErr := Verify(ctx, fx.ps, fx.credential, fx.ownID, forged)
	if wantErr == nil {
		t.Fatal("Verify accepted a substituted trace")
	}
	for i := 0; i < 2; i++ {
		hits0, misses0 := memoCounts()
		got, err := memo.Verify(ctx, fx.credential, fx.ownID, forged)
		sameVerdict(t, "forged trace", got, err, want, wantErr)
		if hits, misses := memoCounts(); hits != hits0 || misses-misses0 != 1 {
			t.Fatalf("call %d: %d hits, %d misses, want a single miss", i, hits-hits0, misses-misses0)
		}
	}
	if n := memo.lru.len(); n != 0 {
		t.Fatalf("a rejected proof left %d keys", n)
	}

	// A negative integer has no faithful encoding, so the proof bypasses
	// the memo: no key, no counter, Verify's verdict.
	unencodable := cloneProof(t, fx.own)
	unencodable.ZK.LeafHard.R0.Neg(unencodable.ZK.LeafHard.R0)
	want, wantErr = Verify(ctx, fx.ps, fx.credential, fx.ownID, unencodable)
	hits0, misses0 := memoCounts()
	got, err := memo.Verify(ctx, fx.credential, fx.ownID, unencodable)
	sameVerdict(t, "unencodable", got, err, want, wantErr)
	if hits, misses := memoCounts(); hits != hits0 || misses != misses0 || memo.lru.len() != 0 {
		t.Fatalf("unencodable proof touched the memo: %d hits, %d misses, %d keys",
			hits-hits0, misses-misses0, memo.lru.len())
	}
}

// TestVerifyMemoEviction pins the LRU bound: a one-key memo alternating
// between two proofs re-verifies every time.
func TestVerifyMemoEviction(t *testing.T) {
	fx := newMemoFixture(t)
	memo := NewVerifyMemo(fx.ps, 1)
	ctx := context.Background()
	evictions0 := memoEvictions().Value()
	hits0, misses0 := memoCounts()
	for _, c := range append(fx.honest(), fx.honest()[0]) {
		if _, err := memo.Verify(ctx, fx.credential, c.id, c.proof); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := memoCounts(); hits != hits0 || misses-misses0 != 3 {
		t.Fatalf("%d hits, %d misses, want 0 and 3", hits-hits0, misses-misses0)
	}
	if got := memoEvictions().Value() - evictions0; got != 2 {
		t.Fatalf("eviction counter advanced by %d, want 2", got)
	}
	if n := memo.lru.len(); n != 1 {
		t.Fatalf("memo holds %d keys, want 1", n)
	}
}

// TestVerifyMemoConcurrent drives one small memo from many goroutines with
// valid and invalid proofs under several keys, so single-flight, eviction
// and rejection interleave; every answer must be Verify's. make race runs
// it under the race detector.
func TestVerifyMemoConcurrent(t *testing.T) {
	fx := newMemoFixture(t)
	ctx := context.Background()
	forged := cloneProof(t, fx.own)
	forged.ZK.Value = []byte("forged")
	type call struct {
		credential POC
		id         ProductID
		proof      *Proof
		want       *Trace
		wantErr    error
	}
	calls := []call{
		{credential: fx.credential, id: fx.ownID, proof: fx.own},
		{credential: fx.credential, id: fx.absent, proof: fx.nonOwn},
		{credential: fx.other, id: fx.ownID, proof: fx.own},
		{credential: fx.credential, id: fx.ownID, proof: forged},
		{credential: fx.credential, id: fx.ownID, proof: &Proof{Kind: NonOwnership, ZK: fx.own.ZK}},
	}
	for i := range calls {
		calls[i].want, calls[i].wantErr = Verify(ctx, fx.ps, calls[i].credential, calls[i].id, calls[i].proof)
	}
	memo := NewVerifyMemo(fx.ps, 2)
	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := calls[(g+r)%len(calls)]
				got, err := memo.Verify(ctx, c.credential, c.id, c.proof)
				if !reflect.DeepEqual(got, c.want) || (err == nil) != (c.wantErr == nil) ||
					(err != nil && err.Error() != c.wantErr.Error()) {
					t.Errorf("goroutine %d round %d: got (%v, %v), want (%v, %v)", g, r, got, err, c.want, c.wantErr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := memo.lru.len(); n > 2 {
		t.Fatalf("memo grew to %d keys past its bound of 2", n)
	}
}

// TestVerifyMemoFootprint measures what the proxy's memo costs when full:
// 4 096 keys (the proxy-wide bound in core), each holding the trace value
// an ownership proof recovers, must stay under 2 MiB.
func TestVerifyMemoFootprint(t *testing.T) {
	const keys = 4096
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	memo := newLRU[memoKey, []byte](keys, memoEvictions())
	for i := 0; i < keys; i++ {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(i))
		ent, _ := memo.getOrLead(sha256.Sum256(n[:]))
		memo.finish(ent, supplychain.DefaultTraceData("p1", ProductID(fmt.Sprintf("lot-%d-product-%d", i/16, i))), nil)
	}
	grown := heap() - before
	runtime.KeepAlive(memo)
	t.Logf("%d keys: %d bytes resident, %d per key", keys, grown, grown/keys)
	if grown > 2<<20 {
		t.Fatalf("a full memo holds %d bytes, want at most 2 MiB", grown)
	}
}

// TestVerifyMemoHitDoesNotDecode pins that a hit on a received proof costs
// a handful of allocations — the key's hashing and the returned trace —
// where decoding a proof costs hundreds: a hit neither encodes nor decodes.
func TestVerifyMemoHitDoesNotDecode(t *testing.T) {
	fx := newMemoFixture(t)
	memo := NewVerifyMemo(fx.ps, 16)
	ctx := context.Background()
	proof := received(t, fx.own)
	if _, err := memo.Verify(ctx, fx.credential, fx.ownID, proof); err != nil {
		t.Fatal(err)
	}
	hits0, _ := memoCounts()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := memo.Verify(ctx, fx.credential, fx.ownID, proof); err != nil {
			t.Fatal(err)
		}
	})
	if hits, _ := memoCounts(); hits-hits0 != 101 {
		t.Fatalf("%d hits in 101 calls", hits-hits0)
	}
	decodes := testing.AllocsPerRun(10, func() {
		if _, err := proof.content(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("memo hit: %v allocations; decoding the proof: %v", allocs, decodes)
	if allocs > memoHitAllocs {
		t.Fatalf("a memo hit on a received proof made %v allocations, want at most %d", allocs, memoHitAllocs)
	}
}

// memoHitAllocs is the allocation count of a memo hit on a received proof,
// as measured: hashing the key (the digest state, the length prefixes, the
// POC, product and kind bytes) and the returned trace with its copied value.
const memoHitAllocs = 13

// TestProofEncodingFollowsZK pins the encode-once invariant: a proof's
// stored encoding stands for it only while ZK is the value it was computed
// from. A copy with an edited ZK swapped in — the adversary's wrong-trace
// forgery — ships and is memo-keyed by its own bytes, so a memoized honest
// proof cannot vouch for it; and verifying a received proof never writes to
// it.
func TestProofEncodingFollowsZK(t *testing.T) {
	fx := newMemoFixture(t)
	memo := NewVerifyMemo(fx.ps, 16)
	ctx := context.Background()
	if _, err := memo.Verify(ctx, fx.credential, fx.ownID, fx.own); err != nil {
		t.Fatal(err)
	}
	forged := *fx.own
	forgedZK := *forged.ZK
	forgedZK.Value = []byte("laundered production record")
	forged.ZK = &forgedZK
	data, err := forged.Encoding()
	if err != nil {
		t.Fatal(err)
	}
	want, err := forgedZK.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatal("a copy with a swapped ZK kept the original's encoding")
	}
	for _, p := range []*Proof{&forged, received(t, &forged)} {
		if _, err := memo.Verify(ctx, fx.credential, fx.ownID, p); !errors.Is(err, ErrBadProof) {
			t.Fatalf("forged trace accepted through the memo: %v", err)
		}
	}
	in := received(t, fx.own)
	if _, err := Verify(ctx, fx.ps, fx.credential, fx.ownID, in); err != nil {
		t.Fatal(err)
	}
	if _, err := NewVerifyMemo(fx.ps, 4).Verify(ctx, fx.credential, fx.ownID, in); err != nil {
		t.Fatal(err)
	}
	if in.ZK != nil {
		t.Fatal("verifying a received proof wrote its decoding into the proof")
	}
}
