package poc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"

	"desword/internal/events"
	"desword/internal/obs"
	"desword/internal/trace"
)

// memoEvictions counts verified-proof memo LRU removals across every memo in
// the process. Hits and misses go through events.Count, like the proof
// cache's.
var memoEvictions = sync.OnceValue(func() *obs.Counter {
	return obs.Default.Counter("desword_verifymemo_evictions",
		"Verified-proof memo LRU evictions.")
})

// memoKey is SHA-256 over the length-prefixed POC commitment, product id,
// outer proof kind and the proof's compact encoding, as received.
type memoKey [sha256.Size]byte

// VerifyMemo remembers proofs that passed POC-Verify, so a verifier shown the
// same proof again — byte for byte, under the same POC and product id —
// accepts it without re-running the openings. It is keyed on the bytes the
// proof arrived as, and each key holds the trace value the verification
// recovered (nothing for non-ownership), so a hit neither encodes nor
// decodes: equal keys mean equal bytes, and equal bytes are one proof.
// Rejections are never remembered. A POC never changes once aggregated (a
// new task is a new commitment, hence new keys), so entries never need
// invalidating; the LRU bound is the only way out. See DESIGN.md §10.
type VerifyMemo struct {
	ps  *PublicParams
	lru *lru[memoKey, []byte]
}

// NewVerifyMemo builds an empty memo of at most size keys (at least one) for
// proofs verified under ps.
func NewVerifyMemo(ps *PublicParams, size int) *VerifyMemo {
	return &VerifyMemo{ps: ps, lru: newLRU[memoKey, []byte](max(size, 1), memoEvictions())}
}

// Verify is POC-Verify (see Verify) through the memo: it returns exactly what
// Verify(ctx, ps, credential, id, proof) would. Malformed framing (a nil
// proof, an unknown or relabelled kind) is rejected before the memo is
// consulted, and a proof assembled around a ZK the encoding cannot carry
// bypasses it. Concurrent calls for one key verify once; the followers of a
// leader whose proof was rejected verify their own. Each call is one
// "poc.verify" stage, tagged memo=hit or memo=miss when the memo was
// consulted; the "zkedb.verify" span nests below it only when verification
// ran.
func (m *VerifyMemo) Verify(ctx context.Context, credential POC, id ProductID, proof *Proof) (*Trace, error) {
	ctx, st := obs.StartStage(ctx, "poc.verify")
	tr, err := m.verify(ctx, st.Span(), credential, id, proof)
	st.End(nil, err)
	return tr, err
}

// verify is Verify's body; span is its stage's span.
func (m *VerifyMemo) verify(ctx context.Context, span *trace.Span, credential POC, id ProductID, proof *Proof) (*Trace, error) {
	if _, err := checkKind(proof); err != nil {
		return nil, err
	}
	data, err := proof.Encoding()
	if err != nil {
		return verifyProof(ctx, m.ps, credential, id, proof)
	}
	key := keyOf(credential, id, proof.Kind, data)
	for {
		ent, leader := m.lru.getOrLead(key)
		if leader {
			events.Count(ctx, events.MemoMiss)
			span.SetAttr(trace.String("memo", "miss"))
			tr, err := verifyProof(ctx, m.ps, credential, id, proof)
			var value []byte
			if tr != nil {
				value = bytes.Clone(tr.Data)
			}
			m.lru.finish(ent, value, err)
			return tr, err
		}
		// No ctx select: the leader always finishes, and verification
		// ignores ctx too.
		<-ent.ready
		if ent.err != nil {
			continue // the failed entry is gone: verify as the next leader
		}
		events.Count(ctx, events.MemoHit)
		span.SetAttr(trace.String("memo", "hit"))
		if proof.Kind == Ownership {
			return &Trace{Product: id, Data: bytes.Clone(ent.val)}, nil
		}
		return nil, nil
	}
}

// keyOf derives the memo key from the proof's encoding.
func keyOf(credential POC, id ProductID, kind ProofKind, data []byte) memoKey {
	h := sha256.New()
	writeField(h, credential.Com.Bytes())
	writeField(h, []byte(id))
	writeField(h, []byte{byte(kind)})
	writeField(h, data)
	var key memoKey
	h.Sum(key[:0])
	return key
}

// writeField hashes b behind its 8-byte length, so field boundaries cannot
// shift between keys.
func writeField(h hash.Hash, b []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(b)))
	h.Write(n[:])
	h.Write(b)
}
