// Package wire defines the message framing and payload types of DE-Sword's
// multi-party deployment: length-prefixed JSON envelopes over TCP, carrying
// query interactions between the proxy and participants, POC-list
// submissions, and public-parameter distribution. ZK-EDB proofs travel in
// their compact binary encoding inside the JSON envelope.
package wire

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/trace"
	"desword/internal/zkedb"
)

// MaxMessageSize bounds a single frame; anything larger is rejected before
// allocation, so a malicious peer cannot force huge buffers.
const MaxMessageSize = 16 << 20

// Message types exchanged between nodes.
const (
	// TypeQuery is a proxy→participant query interaction request.
	TypeQuery = "query"
	// TypeDemandOwnership is the proxy's follow-up ownership demand.
	TypeDemandOwnership = "demand_ownership"
	// TypeResponse is a participant's answer to either of the above.
	TypeResponse = "response"
	// TypeGetParams asks the proxy for the public parameter ps.
	TypeGetParams = "get_params"
	// TypeParams carries the public parameter ps.
	TypeParams = "params"
	// TypeRegisterList submits a POC list to the proxy.
	TypeRegisterList = "register_list"
	// TypeQueryPath asks the proxy to run a full path query (application →
	// proxy).
	TypeQueryPath = "query_path"
	// TypePathResult carries the outcome of a path query.
	TypePathResult = "path_result"
	// TypeQueryPathBatch asks the proxy to run one path query per product id
	// with partial-failure semantics (application → proxy).
	TypeQueryPathBatch = "query_path_batch"
	// TypeBatchResult carries the per-id outcomes of a batch path query.
	TypeBatchResult = "batch_result"
	// TypeScores asks the proxy for the public reputation scores.
	TypeScores = "scores"
	// TypeScoreTable carries the public reputation scores.
	TypeScoreTable = "score_table"
	// TypeAuditLog asks the proxy for the tamper-evident score history.
	TypeAuditLog = "audit_log"
	// TypeAuditChain carries the chained score history and its head.
	TypeAuditChain = "audit_chain"
	// TypeTelemetry asks a peer for a telemetry snapshot of its metrics
	// registry. A plain idempotent read: the payload is empty and answering
	// it changes no state, so clients may retry it freely.
	TypeTelemetry = "telemetry"
	// TypeTelemetrySnapshot carries a telemetry.Snapshot back.
	TypeTelemetrySnapshot = "telemetry_snapshot"
	// TypeAck acknowledges a request with no payload.
	TypeAck = "ack"
	// TypeError reports a failure.
	TypeError = "error"
)

// Errors reported by this package.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxMessageSize")
	ErrBadEnvelope   = errors.New("wire: malformed envelope")
)

// Envelope is the framed unit: a type tag plus a JSON payload. The trace
// fields are optional headers: requests carry the caller's trace context
// (TraceID/SpanID) so the peer continues the same distributed trace, and
// responses carry the server's completed span fragment (Spans) so the caller
// can graft the remote timeline into its own trace. ReqID is an optional
// request-correlation header: a client stamps one id per logical request
// (kept stable across retries of that request), and a server echoes it on
// the response so a client multiplexing requests over a pooled, reused
// connection can detect a desynchronized peer. Old peers ignore the fields;
// envelopes without them decode unchanged.
type Envelope struct {
	Type    string           `json:"type"`
	ReqID   string           `json:"req_id,omitempty"`
	TraceID string           `json:"trace_id,omitempty"`
	SpanID  string           `json:"span_id,omitempty"`
	Spans   []trace.SpanData `json:"spans,omitempty"`
	Payload json.RawMessage  `json:"payload,omitempty"`
}

// TraceContext returns the envelope's trace headers when both are
// well-formed ids, and empty strings otherwise — a peer cannot inject
// arbitrary strings into logs or the trace explorer.
func (e *Envelope) TraceContext() (traceID, spanID string) {
	if trace.ValidTraceID(e.TraceID) && trace.ValidSpanID(e.SpanID) {
		return e.TraceID, e.SpanID
	}
	return "", ""
}

// RequestID returns the envelope's request-correlation header when it is a
// well-formed id, and "" otherwise. Servers echo only validated ids, so a
// peer cannot reflect arbitrary strings through a response.
func (e *Envelope) RequestID() string {
	if ValidRequestID(e.ReqID) {
		return e.ReqID
	}
	return ""
}

// NewRequestID returns a fresh 8-byte request-correlation id in hex.
// Request ids only need to be unique among the requests a single client
// connection could confuse, so a process-local PRNG is plenty.
func NewRequestID() string {
	return fmt.Sprintf("%016x", rand.Uint64())
}

// ValidRequestID reports whether s looks like a request id this package
// generated: 16 lowercase hex characters.
func ValidRequestID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewEnvelope builds an envelope around an encoded payload.
func NewEnvelope(msgType string, payload any) (*Envelope, error) {
	env := &Envelope{Type: msgType}
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			return nil, fmt.Errorf("wire: encoding %s payload: %w", msgType, err)
		}
		env.Payload = data
	}
	return env, nil
}

// WriteMessage frames and writes one message without trace context.
func WriteMessage(w io.Writer, msgType string, payload any) error {
	env, err := NewEnvelope(msgType, payload)
	if err != nil {
		return err
	}
	return WriteEnvelope(w, env)
}

// WriteEnvelope frames and writes one fully-formed envelope, trace headers
// included.
func WriteEnvelope(w io.Writer, env *Envelope) error {
	frame, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("wire: encoding envelope: %w", err)
	}
	if len(frame) > MaxMessageSize {
		return ErrFrameTooLarge
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(frame)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return fmt.Errorf("wire: writing frame length: %w", err)
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	countFrame(writeCounters, "write", env.Type, len(frame))
	return nil
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (*Envelope, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("wire: reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxMessageSize {
		return nil, ErrFrameTooLarge
	}
	frame := make([]byte, n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, fmt.Errorf("wire: reading frame: %w", err)
	}
	var env Envelope
	if err := json.Unmarshal(frame, &env); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadEnvelope, err)
	}
	if env.Type == "" {
		return nil, fmt.Errorf("%w: missing type", ErrBadEnvelope)
	}
	countFrame(readCounters, "read", env.Type, int(n))
	return &env, nil
}

// Decode unmarshals the envelope payload into v.
func (e *Envelope) Decode(v any) error {
	if len(e.Payload) == 0 {
		return fmt.Errorf("%w: empty %s payload", ErrBadEnvelope, e.Type)
	}
	if err := json.Unmarshal(e.Payload, v); err != nil {
		return fmt.Errorf("wire: decoding %s payload: %w", e.Type, err)
	}
	return nil
}

// QueryRequest is the proxy's (query request, id, POC_v) message; the POC is
// implied by the task id, which both sides resolve against the registered
// list.
type QueryRequest struct {
	TaskID  string        `json:"task_id"`
	Product poc.ProductID `json:"product"`
	Quality int           `json:"quality"`
}

// DemandRequest is the proxy's ownership demand.
type DemandRequest struct {
	TaskID  string        `json:"task_id"`
	Product poc.ProductID `json:"product"`
}

// Proof is the wire form of a poc.Proof: the kind tag plus the compact
// binary ZK-EDB proof, base64-encoded for JSON transport.
type Proof struct {
	Kind int    `json:"kind"`
	ZK   string `json:"zk"`
}

// EncodeProof converts a poc.Proof to its wire form.
func EncodeProof(p *poc.Proof) (*Proof, error) {
	if p == nil {
		return nil, nil
	}
	data, err := p.ZK.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("wire: encoding proof: %w", err)
	}
	return &Proof{Kind: int(p.Kind), ZK: base64.StdEncoding.EncodeToString(data)}, nil
}

// DecodeProof converts a wire proof back to a poc.Proof.
func DecodeProof(p *Proof) (*poc.Proof, error) {
	if p == nil {
		return nil, nil
	}
	data, err := base64.StdEncoding.DecodeString(p.ZK)
	if err != nil {
		return nil, fmt.Errorf("wire: decoding proof base64: %w", err)
	}
	var zk zkedb.Proof
	if err := zk.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("wire: decoding proof: %w", err)
	}
	return &poc.Proof{Kind: poc.ProofKind(p.Kind), ZK: &zk}, nil
}

// QueryResponse is a participant's wire answer to a query or demand.
type QueryResponse struct {
	Claim int               `json:"claim"`
	Proof *Proof            `json:"proof,omitempty"`
	Next  poc.ParticipantID `json:"next,omitempty"`
}

// EncodeResponse converts a core.Response to its wire form.
func EncodeResponse(r *core.Response) (*QueryResponse, error) {
	proof, err := EncodeProof(r.Proof)
	if err != nil {
		return nil, err
	}
	return &QueryResponse{Claim: int(r.Claim), Proof: proof, Next: r.Next}, nil
}

// DecodeResponse converts a wire response back to a core.Response.
func DecodeResponse(r *QueryResponse) (*core.Response, error) {
	proof, err := DecodeProof(r.Proof)
	if err != nil {
		return nil, err
	}
	return &core.Response{Claim: core.Claim(r.Claim), Proof: proof, Next: r.Next}, nil
}

// RegisterListRequest submits a POC list for a finished distribution task.
type RegisterListRequest struct {
	TaskID string    `json:"task_id"`
	List   *poc.List `json:"list"`
}

// QueryPathRequest asks the proxy to run a full product path query.
type QueryPathRequest struct {
	Product poc.ProductID `json:"product"`
	Quality int           `json:"quality"`
}

// BatchSchemaVersion stamps batch requests and results. A server rejects a
// request whose schema is newer than it understands — loudly, instead of
// silently ignoring fields it never heard of. Adding omitempty fields is
// compatible and needs no bump.
const BatchSchemaVersion = 1

// QueryPathBatchRequest asks the proxy to run one path query per product id
// with partial-failure semantics: each id succeeds, fails, or is shed on its
// own. Quality applies to the whole batch.
type QueryPathBatchRequest struct {
	Schema   int             `json:"schema"`
	Products []poc.ProductID `json:"products"`
	Quality  int             `json:"quality"`
}

// BatchItemResult is the wire outcome for one product id of a batch: Result
// on success, Error otherwise, with Shed marking admission-control rejection
// (overload, not failure).
type BatchItemResult struct {
	Product poc.ProductID `json:"product"`
	Result  *PathResult   `json:"result,omitempty"`
	Error   string        `json:"error,omitempty"`
	Shed    bool          `json:"shed,omitempty"`
}

// BatchResult carries a whole batch back: per-id items in request order
// under the batch's trace id.
type BatchResult struct {
	Schema  int               `json:"schema"`
	TraceID string            `json:"trace_id,omitempty"`
	Items   []BatchItemResult `json:"items"`
}

// EncodeBatchResult converts a core.BatchResult to its wire form.
func EncodeBatchResult(r *core.BatchResult) *BatchResult {
	out := &BatchResult{Schema: BatchSchemaVersion, TraceID: r.TraceID,
		Items: make([]BatchItemResult, len(r.Items))}
	for i, item := range r.Items {
		w := BatchItemResult{Product: item.Product, Shed: item.Shed}
		switch {
		case item.Err != nil:
			w.Error = item.Err.Error()
		case item.Result != nil:
			w.Result = EncodePathResult(item.Result)
		}
		out.Items[i] = w
	}
	return out
}

// DecodeBatchResult converts a wire batch result back to its core form.
// Per-item errors come back as remote error values (string messages; shed
// items additionally carry Shed=true).
func DecodeBatchResult(r *BatchResult) *core.BatchResult {
	out := &core.BatchResult{TraceID: r.TraceID,
		Items: make([]core.BatchItem, len(r.Items))}
	for i, item := range r.Items {
		c := core.BatchItem{Product: item.Product, Shed: item.Shed}
		switch {
		case item.Error != "":
			c.Err = errors.New(item.Error)
		case item.Result != nil:
			c.Result = DecodePathResult(item.Result)
		}
		out.Items[i] = c
	}
	return out
}

// PathResult is the wire form of a core.Result. Event is the canonical wide
// event the proxy assembled for the query, so remote queriers
// (desword-query -json) see the same flight-recorder record the proxy kept.
type PathResult struct {
	Product    poc.ProductID                   `json:"product"`
	Quality    int                             `json:"quality"`
	TaskID     string                          `json:"task_id"`
	Path       []poc.ParticipantID             `json:"path"`
	Traces     map[poc.ParticipantID]poc.Trace `json:"traces"`
	Violations []core.Violation                `json:"violations"`
	Complete   bool                            `json:"complete"`
	TraceID    string                          `json:"trace_id,omitempty"`
	Event      *events.Event                   `json:"event,omitempty"`
}

// EncodePathResult converts a core.Result to its wire form.
func EncodePathResult(r *core.Result) *PathResult {
	return &PathResult{
		Product:    r.Product,
		Quality:    int(r.Quality),
		TaskID:     r.TaskID,
		Path:       r.Path,
		Traces:     r.Traces,
		Violations: r.Violations,
		Complete:   r.Complete,
		TraceID:    r.TraceID,
		Event:      r.Event,
	}
}

// DecodePathResult converts a wire path result back to a core.Result.
func DecodePathResult(r *PathResult) *core.Result {
	return &core.Result{
		Product:    r.Product,
		Quality:    core.Quality(r.Quality),
		TaskID:     r.TaskID,
		Path:       r.Path,
		Traces:     r.Traces,
		Violations: r.Violations,
		Complete:   r.Complete,
		TraceID:    r.TraceID,
		Event:      r.Event,
	}
}

// ErrorResponse carries a remote failure.
type ErrorResponse struct {
	Message string `json:"message"`
}

// ScoreTable carries the public reputation scores.
type ScoreTable struct {
	Scores map[poc.ParticipantID]float64 `json:"scores"`
}

// AuditChain carries the proxy's chained score history: customers verify it
// with reputation.VerifyAuditChain against the pinned head. A reply in the
// former multi-chain form (per-partition chains under "shards", empty
// top-level entries, zero head, the summed count) fails that check loudly
// instead of verifying as an empty history.
type AuditChain struct {
	Entries []reputation.AuditEntry `json:"entries"`
	Head    []byte                  `json:"head"`
	Count   uint64                  `json:"count"`
}
