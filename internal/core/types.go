// Package core implements DE-Sword itself — the incentivized verifiable
// product path query system of the paper (§II, §IV). It glues the POC scheme
// onto the supply-chain substrate and drives both phases:
//
//   - the distribution phase, in which the involved participants commit their
//     RFID-traces into POCs, link them into a POC list mirroring the
//     distribution sub-digraph, and submit the list to the trusted proxy; and
//   - the query phase, in which the proxy walks a product's path hop by hop,
//     verifying ownership / non-ownership proofs against the POC list and
//     assigning double-edged reputation scores to the identified
//     participants.
//
// Participants are reached through the Responder interface, so the same
// protocol logic drives in-process members (package core) and TCP nodes
// (package node).
package core

import (
	"context"
	"errors"
	"fmt"

	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/reputation"
)

// Quality re-exports the product quality type used by the award strategy.
type Quality = reputation.Quality

// Re-exported quality values, so core callers need not import reputation.
const (
	Good = reputation.Good
	Bad  = reputation.Bad
)

// Errors reported by the core protocol.
var (
	ErrUnknownTask       = errors.New("core: unknown distribution task")
	ErrNotCommitted      = errors.New("core: participant has not committed this task")
	ErrNoResponder       = errors.New("core: no responder for participant")
	ErrNoStart           = errors.New("core: no initial participant admits processing the product")
	ErrAlreadyRegistered = errors.New("core: task already registered")
)

// Claim is a participant's self-declaration during a query interaction.
type Claim int

// Claim values start at 1 so the zero value is invalid.
const (
	// ClaimProcessed means the participant claims it processed the product.
	ClaimProcessed Claim = iota + 1
	// ClaimNotProcessed means the participant claims it did not.
	ClaimNotProcessed
)

// String implements fmt.Stringer.
func (c Claim) String() string {
	switch c {
	case ClaimProcessed:
		return "processed"
	case ClaimNotProcessed:
		return "not-processed"
	default:
		return fmt.Sprintf("Claim(%d)", int(c))
	}
}

// Response is a participant's answer to one query interaction: its claim,
// the supporting proof, and — when it admits processing — the identity of
// the next participant that processed the product ("" for none).
type Response struct {
	Claim Claim             `json:"claim"`
	Proof *poc.Proof        `json:"proof,omitempty"`
	Next  poc.ParticipantID `json:"next,omitempty"`
}

// Responder is a reachable participant endpoint. Implementations: Member
// (in-process, honest), the adversary wrappers, and node.ResponderClient
// (TCP). The context carries cancellation and the active trace span, so one
// distributed trace follows a query across process boundaries.
type Responder interface {
	// Query asks for the participant's response for product id within a
	// distribution task. The quality tells the participant which proof the
	// proxy expects first (ownership for good products, non-ownership for
	// bad ones).
	Query(ctx context.Context, taskID string, id poc.ProductID, quality Quality) (*Response, error)
	// DemandOwnership is the proxy's follow-up in the bad-product case when
	// a claimed non-ownership proof fails to verify: reveal a valid
	// ownership proof (§IV.C bad case, step 2).
	DemandOwnership(ctx context.Context, taskID string, id poc.ProductID) (*Response, error)
}

// Resolver maps a participant identity to a reachable endpoint.
type Resolver func(poc.ParticipantID) (Responder, error)

// ViolationType enumerates the query-phase dishonest behaviours of §III.B as
// the proxy detects them.
type ViolationType int

// Violation types start at 1 so the zero value is invalid.
const (
	// ViolationClaimProcessing: claimed to have processed the product but
	// could not produce a valid ownership proof (good-product case).
	ViolationClaimProcessing ViolationType = iota + 1
	// ViolationClaimNonProcessing: claimed not to have processed the product
	// but could not produce a valid non-ownership proof, and a subsequent
	// ownership demand succeeded (bad-product case).
	ViolationClaimNonProcessing
	// ViolationNoValidProof: produced neither a valid ownership nor a valid
	// non-ownership proof — impossible for an honest holder of a correct POC.
	ViolationNoValidProof
	// ViolationWrongNextHop: named a next participant that either is not a
	// recorded child in the POC list (case 2 of §III.B) or provably did not
	// process the product (case 1), or omitted a next hop that exists.
	ViolationWrongNextHop
	// ViolationUnreachable: the participant failed to respond at all.
	ViolationUnreachable
)

// String implements fmt.Stringer.
func (t ViolationType) String() string {
	switch t {
	case ViolationClaimProcessing:
		return "claim-processing"
	case ViolationClaimNonProcessing:
		return "claim-non-processing"
	case ViolationNoValidProof:
		return "no-valid-proof"
	case ViolationWrongNextHop:
		return "wrong-next-hop"
	case ViolationUnreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("ViolationType(%d)", int(t))
	}
}

// Violation records one detected dishonest behaviour.
type Violation struct {
	Participant poc.ParticipantID `json:"participant"`
	Type        ViolationType     `json:"type"`
	Detail      string            `json:"detail"`
}

// Result is the outcome of one product path information query.
type Result struct {
	// Product is the queried product.
	Product poc.ProductID
	// Quality is the checked quality that selected the query flavour.
	Quality Quality
	// TaskID is the distribution task whose POC list anchored the query
	// ("" when no starting participant was identified).
	TaskID string
	// Path lists the identified participants in path order.
	Path []poc.ParticipantID
	// Traces maps identified participants to the recovered RFID-traces.
	// Participants identified only through a violation have no entry.
	Traces map[poc.ParticipantID]poc.Trace
	// Violations lists every dishonest behaviour detected during the query.
	Violations []Violation
	// Complete reports whether the walk ended at a leaf of the POC list.
	Complete bool
	// TraceID names the distributed trace recorded for this query ("" when
	// the query was not sampled). The full span timeline is retrievable
	// from the proxy's /debug/traces/<id> admin endpoint.
	TraceID string
	// Event is the canonical wide event the proxy assembled for this query:
	// outcome, per-hop timings, resource counters, violations, reputation
	// deltas. Always populated by Proxy.QueryPath (whether or not a sink is
	// configured), and carried across the wire to remote queriers.
	Event *events.Event

	// hops accumulates the committed query interactions in walk order;
	// queryEvent copies them onto Event.
	hops []events.Hop
	// repDeltas is filled by settle: the net score change per affected
	// participant.
	repDeltas map[string]float64
}

// PathInfo assembles the ordered trace list — the product's path information
// as defined in §II.A.
func (r *Result) PathInfo() []poc.Trace {
	out := make([]poc.Trace, 0, len(r.Path))
	for _, v := range r.Path {
		if tr, ok := r.Traces[v]; ok {
			out = append(out, tr)
		}
	}
	return out
}

// Violated reports whether any violation of the given type was detected.
func (r *Result) Violated(t ViolationType) bool {
	for _, v := range r.Violations {
		if v.Type == t {
			return true
		}
	}
	return false
}
