package poc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"desword/internal/zkedb"
	"desword/internal/zkedb/store"
)

var _testPS *PublicParams

func testPS(t testing.TB) *PublicParams {
	t.Helper()
	if _testPS == nil {
		ps, err := PSGen(zkedb.TestParams())
		if err != nil {
			t.Fatalf("PSGen: %v", err)
		}
		_testPS = ps
	}
	return _testPS
}

func sampleTraces(v ParticipantID, n int) []Trace {
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Trace{
			Product: ProductID(fmt.Sprintf("id-%02d", i)),
			Data:    []byte(fmt.Sprintf("%s processed id-%02d at station 7", v, i)),
		})
	}
	return out
}

func TestAggProveVerifyOwnership(t *testing.T) {
	ps := testPS(t)
	traces := sampleTraces("v1", 5)
	credential, dpoc, err := Agg(ps, "v1", traces, AggOptions{})
	if err != nil {
		t.Fatalf("Agg: %v", err)
	}
	if credential.Participant != "v1" {
		t.Fatal("POC must carry the participant identity")
	}
	for _, tr := range traces {
		proof, err := dpoc.Prove(context.Background(), tr.Product)
		if err != nil {
			t.Fatalf("Prove(%s): %v", tr.Product, err)
		}
		if proof.Kind != Ownership {
			t.Fatalf("expected ownership proof for %s", tr.Product)
		}
		got, err := Verify(context.Background(), ps, credential, tr.Product, proof)
		if err != nil {
			t.Fatalf("Verify(%s): %v", tr.Product, err)
		}
		if got == nil || got.Product != tr.Product || string(got.Data) != string(tr.Data) {
			t.Fatalf("Verify(%s) recovered wrong trace %+v", tr.Product, got)
		}
	}
}

func TestAggProveVerifyNonOwnership(t *testing.T) {
	ps := testPS(t)
	credential, dpoc, err := Agg(ps, "v1", sampleTraces("v1", 3), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := dpoc.Prove(context.Background(), "unprocessed-product")
	if err != nil {
		t.Fatal(err)
	}
	if proof.Kind != NonOwnership {
		t.Fatal("expected non-ownership proof")
	}
	got, err := Verify(context.Background(), ps, credential, "unprocessed-product", proof)
	if err != nil {
		t.Fatalf("valid non-ownership proof must verify: %v", err)
	}
	if got != nil {
		t.Fatal("non-ownership verification must not return a trace")
	}
}

func TestEmptyTraceSet(t *testing.T) {
	ps := testPS(t)
	credential, dpoc, err := Agg(ps, "leafless", nil, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := dpoc.Prove(context.Background(), "anything")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(context.Background(), ps, credential, "anything", proof); err != nil {
		t.Fatalf("empty POC must prove non-ownership of everything: %v", err)
	}
}

func TestDuplicateTraceRejected(t *testing.T) {
	ps := testPS(t)
	traces := []Trace{
		{Product: "dup", Data: []byte("a")},
		{Product: "dup", Data: []byte("b")},
	}
	if _, _, err := Agg(ps, "v1", traces, AggOptions{}); err == nil {
		t.Fatal("duplicate product ids must be rejected")
	}
}

func TestVerifyRejectsKindMismatch(t *testing.T) {
	ps := testPS(t)
	credential, dpoc, err := Agg(ps, "v1", sampleTraces("v1", 2), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := dpoc.Prove(context.Background(), "id-00")
	if err != nil {
		t.Fatal(err)
	}
	proof.Kind = NonOwnership // lie about the kind
	if _, err := Verify(context.Background(), ps, credential, "id-00", proof); err == nil {
		t.Fatal("relabeled proof kind must be rejected")
	}
	if _, err := Verify(context.Background(), ps, credential, "id-00", nil); err == nil {
		t.Fatal("nil proof must be rejected")
	}
	if _, err := Verify(context.Background(), ps, credential, "id-00", &Proof{Kind: ProofKind(5), ZK: proof.ZK}); err == nil {
		t.Fatal("unknown proof kind must be rejected")
	}
}

func TestVerifyRejectsCrossParticipantProof(t *testing.T) {
	// Claim 2 in action at the POC layer: v2 cannot answer a query with v1's
	// proof because the POC commits to the participant's own database.
	ps := testPS(t)
	_, dpoc1, err := Agg(ps, "v1", sampleTraces("v1", 2), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	poc2, _, err := Agg(ps, "v2", sampleTraces("v2", 2), AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := dpoc1.Prove(context.Background(), "id-00")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(context.Background(), ps, poc2, "id-00", proof); err == nil {
		t.Fatal("a proof against v1's POC must not verify against v2's")
	}
}

func TestProofKindString(t *testing.T) {
	if Ownership.String() != "Ow-proof" || NonOwnership.String() != "Now-proof" {
		t.Fatal("proof kind strings must match the paper's prefixes")
	}
	if ProofKind(9).String() == "" {
		t.Fatal("unknown kinds must render non-empty")
	}
}

func TestListAddAndLookup(t *testing.T) {
	ps := testPS(t)
	list := NewList()
	for _, v := range []ParticipantID{"v0", "v2", "v5"} {
		credential, _, err := Agg(ps, v, sampleTraces(v, 1), AggOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := list.AddPOC(credential); err != nil {
			t.Fatal(err)
		}
	}
	list.AddPair("v0", "v2")
	list.AddPair("v2", "v5")
	if err := list.Validate(); err != nil {
		t.Fatalf("valid list must validate: %v", err)
	}
	if !list.HasPair("v0", "v2") || list.HasPair("v2", "v0") {
		t.Fatal("HasPair must respect direction")
	}
	if got := list.Children("v0"); len(got) != 1 || got[0] != "v2" {
		t.Fatalf("Children(v0) = %v", got)
	}
	if got := list.Parents("v5"); len(got) != 1 || got[0] != "v2" {
		t.Fatalf("Parents(v5) = %v", got)
	}
	if got := list.Initials(); len(got) != 1 || got[0] != "v0" {
		t.Fatalf("Initials() = %v", got)
	}
	if got := list.Participants(); len(got) != 3 {
		t.Fatalf("Participants() = %v", got)
	}
	if _, err := list.POC("v2"); err != nil {
		t.Fatal(err)
	}
	if _, err := list.POC("missing"); err == nil {
		t.Fatal("missing participant must error")
	}
}

func TestListRejectsDuplicatesAndDangling(t *testing.T) {
	ps := testPS(t)
	list := NewList()
	credential, _, err := Agg(ps, "v0", nil, AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := list.AddPOC(credential); err != nil {
		t.Fatal(err)
	}
	if err := list.AddPOC(credential); err == nil {
		t.Fatal("duplicate POC must be rejected")
	}
	list.AddPair("v0", "ghost")
	if err := list.Validate(); err == nil {
		t.Fatal("dangling pair must fail validation")
	}
	list.Pairs = []Pair{{Parent: "v0", Child: "v0"}}
	if err := list.Validate(); err == nil {
		t.Fatal("self-loop must fail validation")
	}
}

// TestDPOCPersistence pins the restart path of a DPOC: aggregate on a file
// store, close it, and reopen through OpenDPOC. The reopened POC equals the
// aggregated one, and its proofs verify against it.
func TestDPOCPersistence(t *testing.T) {
	ps := testPS(t)
	path := filepath.Join(t.TempDir(), "dpoc.kv")
	kv, err := store.OpenFile(path, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	traces := sampleTraces("v1", 3)
	credential, _, err := Agg(ps, "v1", traces, AggOptions{Commit: zkedb.CommitOptions{Store: kv}})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := store.OpenFile(path, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got, restored, err := OpenDPOC(ps, "v1", reopened, 0, 0)
	if err != nil {
		t.Fatalf("OpenDPOC: %v", err)
	}
	if !got.Equal(credential) {
		t.Fatal("reopened POC differs from the aggregated one")
	}
	if restored.Participant != "v1" {
		t.Fatalf("restored participant = %s", restored.Participant)
	}
	proof, err := restored.Prove(context.Background(), "id-01")
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := Verify(context.Background(), ps, got, "id-01", proof); err != nil || tr == nil {
		t.Fatalf("restored ownership proof failed: %v", err)
	}
	absent, err := restored.Prove(context.Background(), "never-processed")
	if err != nil {
		t.Fatal(err)
	}
	if tr, err := Verify(context.Background(), ps, got, "never-processed", absent); err != nil || tr != nil {
		t.Fatalf("restored non-ownership proof failed: trace=%v err=%v", tr, err)
	}
}

func TestOpenDPOCRejectsEmptyStore(t *testing.T) {
	if _, _, err := OpenDPOC(testPS(t), "x", store.NewMem(), 0, 0); !errors.Is(err, zkedb.ErrBadState) {
		t.Fatalf("OpenDPOC on an empty store = %v, want ErrBadState", err)
	}
}
