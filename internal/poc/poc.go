// Package poc implements DE-Sword's Product Ownership Credential (POC)
// scheme, the four-algorithm wrapper around a zero-knowledge elementary
// database defined in Table I of the paper:
//
//	PS-Gen(λ) → ps                                  = PSGen
//	POC-Agg(D_vi, vi, ps) → (POC_vi, DPOC_vi)       = Agg
//	POC-Proof(ps, POC, DPOC, D, id) → oπ_id/noπ_id  = (*DPOC).Prove
//	POC-Verify(ps, POC, id, π) → t_vi^id/valid/bad  = Verify
//
// Prove and Verify are ctx-first: cancellation, deadlines and the
// distributed trace ride on the caller's context end to end (enforced by the
// desword/ctxfirst analyzer). Prove results are memoized per DPOC in a
// bounded single-flight cache; see DESIGN.md §10.
//
// A POC is a participant's compact commitment to its set of RFID-traces.
// With it, the participant can later produce an ownership proof (oπ) for any
// product it processed — from which the verifier recovers the exact committed
// RFID-trace — or a non-ownership proof (noπ) for any product it did not,
// revealing nothing about the rest of its database.
package poc

import (
	"context"
	"errors"
	"fmt"

	"desword/internal/events"
	"desword/internal/obs"
	"desword/internal/supplychain"
	"desword/internal/trace"
	"desword/internal/zkedb"
	"desword/internal/zkedb/store"
)

// The domain types live in the supplychain package; they are aliased here so
// the POC API reads exactly like the paper's Table I.
type (
	// ParticipantID names a supply-chain participant.
	ParticipantID = supplychain.ParticipantID
	// ProductID is the unique identifier carried in a product's RFID tag.
	ProductID = supplychain.ProductID
	// Trace is an RFID-trace t_v^id = (id, da_v^id).
	Trace = supplychain.Trace
)

// Errors reported by this package.
var (
	ErrDuplicateTrace = errors.New("poc: duplicate trace for product")
	ErrBadProof       = errors.New("poc: proof rejected")
	ErrKindMismatch   = errors.New("poc: proof kind does not match its content")
)

// PublicParams is the public parameter ps generated by a trusted party (the
// proxy) and broadcast to all participants by the initial participant.
type PublicParams struct {
	CRS *zkedb.CRS `json:"crs"`
}

// PSGen generates the public parameter ps (the paper's PS-Gen).
func PSGen(params zkedb.Params) (*PublicParams, error) {
	crs, err := zkedb.CRSGen(params)
	if err != nil {
		return nil, fmt.Errorf("poc: %w", err)
	}
	return &PublicParams{CRS: crs}, nil
}

// Rehydrate restores derived key material after JSON decoding.
func (ps *PublicParams) Rehydrate() error {
	if ps.CRS == nil {
		return errors.New("poc: missing CRS")
	}
	return ps.CRS.Rehydrate()
}

// POC is a product ownership credential: the participant's identity bound to
// a ZK-EDB commitment over its RFID-traces (the paper's vi‖Com).
type POC struct {
	Participant ParticipantID    `json:"participant"`
	Com         zkedb.Commitment `json:"com"`
}

// Equal reports whether two POCs are identical.
func (p POC) Equal(o POC) bool {
	return p.Participant == o.Participant && p.Com.Equal(o.Com)
}

// DPOC is the participant's secret de-commitment state, stored in its own
// database to answer later queries. Its committed tree never changes (a new
// distribution task gets a fresh POC-Agg), so a cached proof can never go
// stale.
type DPOC struct {
	Participant ParticipantID
	dec         *zkedb.Decommitment
	cache       *proofCache

	// proveHook, when set, runs once per underlying proof computation; tests
	// use it to pin the single-flight guarantee.
	proveHook func()
}

// newDPOC wires a DPOC with an empty DefaultProofCacheSize proof cache.
func newDPOC(participant ParticipantID, dec *zkedb.Decommitment) *DPOC {
	return &DPOC{
		Participant: participant,
		dec:         dec,
		cache:       newLRU[ProductID, *Proof](DefaultProofCacheSize, cacheEvictions()),
	}
}

// OpenDPOC reopens a DPOC whose decommitment tree lives in a durable node
// store (typically a *store.File across a process restart). Only the tree
// root is loaded eagerly — everything else hydrates lazily during proofs —
// so reopening is O(1) in the tree size. The returned POC is recomputed
// from the stored root and must equal the one the proxy already holds.
// cacheNodes bounds the resident hydrated-node cache
// (zkedb.CommitOptions.CacheNodes). The proof cache starts empty, so the
// first proof of each product is computed: a reopened DPOC proves as a
// restarted participant does.
func OpenDPOC(ps *PublicParams, participant ParticipantID, kv store.KV, cacheNodes int) (POC, *DPOC, error) {
	dec, err := zkedb.OpenDecommitment(ps.CRS, kv, cacheNodes)
	if err != nil {
		return POC{}, nil, fmt.Errorf("poc: opening DPOC: %w", err)
	}
	dp := newDPOC(participant, dec)
	return POC{Participant: participant, Com: dec.Commitment()}, dp, nil
}

// ProofKind distinguishes ownership (oπ) from non-ownership (noπ) proofs.
type ProofKind int

// Proof kinds start at 1 so the zero value is invalid.
const (
	Ownership ProofKind = iota + 1
	NonOwnership
)

// String implements fmt.Stringer with the paper's prefixes.
func (k ProofKind) String() string {
	switch k {
	case Ownership:
		return "Ow-proof"
	case NonOwnership:
		return "Now-proof"
	default:
		return fmt.Sprintf("ProofKind(%d)", int(k))
	}
}

// Proof is an ownership or non-ownership proof: the paper's
// "Ow-proof‖ZK-π" / "Now-proof‖ZK-π" framing. Its ZK-EDB content travels
// in one form only, the compact encoding of zkedb.Proof.MarshalBinary, and
// a proof keeps that encoding beside it: Prove encodes a proof once, so a
// proof-cache hit encodes nothing, and a proof received from the wire
// (ProofFromBytes) is only its bytes, which each verification decodes into
// a value of its own. See DESIGN.md §10.
type Proof struct {
	Kind ProofKind    `json:"kind"`
	ZK   *zkedb.Proof `json:"zk"`

	// enc is the encoding of encOf, and stands for the proof only while ZK
	// is encOf: a copy of the proof with another ZK swapped in (a forged
	// value, say) is encoded afresh. A received proof has no ZK, and enc is
	// all it is.
	enc   []byte
	encOf *zkedb.Proof
}

// ProofFromBytes wraps a proof received in its compact encoding, without
// decoding or copying the bytes: malformed bytes make an invalid proof,
// which Verify rejects like any other.
func ProofFromBytes(kind ProofKind, data []byte) *Proof {
	return &Proof{Kind: kind, enc: data}
}

// Encoding returns the compact encoding of the proof's ZK-EDB content: the
// bytes it was received as, or those computed when it was proven. Only a
// proof assembled around a ZK of its own is encoded here. Callers must not
// modify the returned bytes.
func (p *Proof) Encoding() ([]byte, error) {
	if p.ZK == nil || p.ZK == p.encOf {
		return p.enc, nil
	}
	return p.ZK.MarshalBinary()
}

// content returns the proof's ZK-EDB content, decoding a received proof
// into a fresh value so the shared proof is never written.
func (p *Proof) content() (*zkedb.Proof, error) {
	if p.ZK != nil {
		return p.ZK, nil
	}
	zk := new(zkedb.Proof)
	if err := zk.UnmarshalBinary(p.enc); err != nil {
		return nil, err
	}
	return zk, nil
}

// AggOptions configures Agg. The zero value selects the defaults. Every
// DPOC keeps a DefaultProofCacheSize proof cache.
type AggOptions struct {
	// Commit configures the ZK-EDB tree build (seeded randomness, node
	// store, resident-node bound).
	Commit zkedb.CommitOptions
}

// Agg aggregates a participant's RFID-traces into its POC (the paper's
// POC-Agg). Trace product ids must be unique: an elementary database maps
// each key to at most one value. Pass AggOptions{} for the defaults.
func Agg(ps *PublicParams, participant ParticipantID, traces []Trace, opts AggOptions) (POC, *DPOC, error) {
	db := make(map[string][]byte, len(traces))
	for _, tr := range traces {
		if _, dup := db[string(tr.Product)]; dup {
			return POC{}, nil, fmt.Errorf("%w: %s", ErrDuplicateTrace, tr.Product)
		}
		db[string(tr.Product)] = tr.Data
	}
	com, dec, err := ps.CRS.Commit(db, opts.Commit)
	if err != nil {
		return POC{}, nil, fmt.Errorf("poc: aggregating traces: %w", err)
	}
	return POC{Participant: participant, Com: com},
		newDPOC(participant, dec), nil
}

// Prove generates an ownership proof if the participant committed a trace
// for id, and a non-ownership proof otherwise (the paper's POC-Proof).
//
// Results are memoized in the DPOC's bounded single-flight cache: repeated
// demands for a hot product return the cached proof without recomputing the
// mercurial openings, and N concurrent calls for one id compute at most
// once. Each call is one "poc.prove" stage, tagged cache=hit or
// cache=miss; the "zkedb.prove" span nests below it only when the proof was
// computed.
func (dp *DPOC) Prove(ctx context.Context, id ProductID) (*Proof, error) {
	ctx, st := obs.StartStage(ctx, "poc.prove")
	proof, err := dp.prove(ctx, st.Span(), id)
	st.End(nil, err)
	return proof, err
}

// prove is Prove's body; span is its stage's span.
func (dp *DPOC) prove(ctx context.Context, span *trace.Span, id ProductID) (*Proof, error) {
	for {
		ent, leader := dp.cache.getOrLead(id)
		if leader {
			events.Count(ctx, events.CacheMiss)
			span.SetAttr(trace.String("cache", "miss"))
			proof, err := dp.computeProof(ctx, id)
			dp.cache.finish(ent, proof, err)
			return proof, err
		}
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, fmt.Errorf("poc: proving %s: %w", id, ctx.Err())
		}
		if ent.err == nil {
			events.Count(ctx, events.CacheHit)
			span.SetAttr(trace.String("cache", "hit"))
			return ent.val, nil
		}
		// The leader failed. A ctx-cancellation error says nothing about this
		// caller's deadline — retry as the new leader; any other error is the
		// proof's own and is shared.
		if errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded) {
			continue
		}
		return nil, ent.err
	}
}

// computeProof runs the underlying ZK-EDB proof generation.
func (dp *DPOC) computeProof(ctx context.Context, id ProductID) (*Proof, error) {
	if dp.proveHook != nil {
		dp.proveHook()
	}
	zk, err := dp.dec.Prove(ctx, string(id))
	if err != nil {
		return nil, fmt.Errorf("poc: proving %s: %w", id, err)
	}
	kind := NonOwnership
	if zk.Kind == zkedb.ProofOwnership {
		kind = Ownership
	}
	enc, err := zk.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("poc: encoding proof of %s: %w", id, err)
	}
	return &Proof{Kind: kind, ZK: zk, enc: enc, encOf: zk}, nil
}

// Verify checks a proof against a POC (the paper's POC-Verify). When ctx
// carries an active trace span, the underlying ZK-EDB verification records a
// child span.
//
//   - For an ownership proof it returns the recovered RFID-trace t_v^id.
//   - For a valid non-ownership proof it returns (nil, nil).
//   - Any invalid proof, malformed bytes included, yields an error wrapping
//     ErrBadProof ("bad"), or ErrKindMismatch when its outer kind relabels
//     the other kind's content.
func Verify(ctx context.Context, ps *PublicParams, credential POC, id ProductID, proof *Proof) (*Trace, error) {
	if _, err := checkKind(proof); err != nil {
		return nil, err
	}
	return verifyProof(ctx, ps, credential, id, proof)
}

// checkKind rejects a proof whose framing is malformed before any
// cryptography runs: a missing proof, an unknown kind, or an outer kind that
// relabels the other kind's content. It returns the content's kind, read
// from the first byte of a received proof.
func checkKind(proof *Proof) (zkedb.ProofKind, error) {
	var inner zkedb.ProofKind
	switch {
	case proof == nil:
		return 0, fmt.Errorf("%w: empty proof", ErrBadProof)
	case proof.ZK != nil:
		inner = proof.ZK.Kind
	case len(proof.enc) > 0:
		inner = zkedb.ProofKind(proof.enc[0])
	default:
		return 0, fmt.Errorf("%w: empty proof", ErrBadProof)
	}
	switch proof.Kind {
	case Ownership:
		if inner != zkedb.ProofOwnership {
			return 0, fmt.Errorf("%w: %v carries %v content", ErrKindMismatch, proof.Kind, inner)
		}
	case NonOwnership:
		if inner != zkedb.ProofNonOwnership {
			return 0, fmt.Errorf("%w: %v carries %v content", ErrKindMismatch, proof.Kind, inner)
		}
	default:
		return 0, fmt.Errorf("%w: unknown kind %d", ErrBadProof, proof.Kind)
	}
	return inner, nil
}

// verifyProof runs the ZK-EDB verification of a proof that passed
// checkKind.
func verifyProof(ctx context.Context, ps *PublicParams, credential POC, id ProductID, proof *Proof) (*Trace, error) {
	zk, err := proof.content()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadProof, err)
	}
	value, present, err := ps.CRS.VerifyCtx(ctx, credential.Com, string(id), zk)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadProof, err)
	}
	if proof.Kind == Ownership {
		if !present {
			return nil, fmt.Errorf("%w: ownership proof proved absence", ErrBadProof)
		}
		return &Trace{Product: id, Data: value}, nil
	}
	if present {
		return nil, fmt.Errorf("%w: non-ownership proof proved presence", ErrBadProof)
	}
	return nil, nil
}
