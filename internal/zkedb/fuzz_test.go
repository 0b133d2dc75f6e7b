package zkedb

import (
	"bytes"
	"context"
	"testing"
)

// FuzzProofUnmarshal hammers the compact binary proof decoder — the one
// parser in the system that consumes bytes from untrusted participants
// before any cryptographic check runs. It must never panic, and any input it
// accepts must re-encode losslessly: the re-encoding decodes, and encodes
// again to the very same bytes.
func FuzzProofUnmarshal(f *testing.F) {
	crs, err := CRSGen(TestParams())
	if err != nil {
		f.Fatal(err)
	}
	db := map[string][]byte{"seed-key": []byte("seed-value")}
	_, dec, err := crs.Commit(db, CommitOptions{})
	if err != nil {
		f.Fatal(err)
	}
	own, err := dec.Prove(context.Background(), "seed-key")
	if err != nil {
		f.Fatal(err)
	}
	ownBytes, err := own.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	nOwn, err := dec.Prove(context.Background(), "seed-missing")
	if err != nil {
		f.Fatal(err)
	}
	nOwnBytes, err := nOwn.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ownBytes)
	f.Add(nOwnBytes)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 0})
	f.Add(ownBytes[:len(ownBytes)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		if err := p.UnmarshalBinary(data); err != nil {
			return // rejected is fine; panicking is not
		}
		// Accepted inputs must round-trip to the same bytes.
		re, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted proof failed to re-encode: %v", err)
		}
		var p2 Proof
		if err := p2.UnmarshalBinary(re); err != nil {
			t.Fatalf("re-encoded proof failed to decode: %v", err)
		}
		re2, err := p2.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded re-encoding failed to encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("re-encoding is not stable: %d bytes, then %d different bytes", len(re), len(re2))
		}
	})
}
