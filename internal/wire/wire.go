// Package wire defines the message framing and payload types of DE-Sword's
// multi-party deployment: length-prefixed frames over TCP, each a JSON
// envelope plus an optional raw attachment, carrying query interactions
// between the proxy and participants, POC-list submissions, and
// public-parameter distribution. A ZK-EDB proof travels as its response
// frame's attachment, in the compact binary encoding Table II measures.
package wire

import (
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
)

// MaxMessageSize bounds a single frame, header and attachment together;
// anything larger is rejected before allocation, so a malicious peer cannot
// force huge buffers.
const MaxMessageSize = 16 << 20

// frameVersion is the first byte of every frame after its length prefix.
// A frame is
//
//	u32 length | u8 version | uvarint header length | JSON envelope | attachment
//
// where the length counts everything after itself. The bare-JSON frames of
// earlier releases start with '{' instead, so neither side reads the other's
// frames: both fail with ErrBadEnvelope. There is no fallback.
const frameVersion byte = 2

// frameChunk is the most a frame read allocates before its bytes arrive; a
// larger frame's buffer doubles as it fills. It holds a paper-geometry proof
// response (about 16 KB) in one allocation.
const frameChunk = 64 << 10

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
	// TypeScores asks the proxy for the public reputation scores.
	TypeScores = "scores"
	// TypeScoreTable carries the public reputation scores.
	TypeScoreTable = "score_table"
	// TypeAuditLog asks the proxy for the tamper-evident score history.
	TypeAuditLog = "audit_log"
	// TypeAuditChain carries the chained score history and its head.
	TypeAuditChain = "audit_chain"
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
//
// The frame's raw tail after the JSON is the envelope's attachment: only a
// response fills it, with its proof's bytes (see NewEnvelope and Decode).
// A received attachment aliases the frame's buffer, so frame buffers are
// never reused.
type Envelope struct {
	Type    string           `json:"type"`
	ReqID   string           `json:"req_id,omitempty"`
	TraceID string           `json:"trace_id,omitempty"`
	SpanID  string           `json:"span_id,omitempty"`
	Spans   []trace.SpanData `json:"spans,omitempty"`
	Payload json.RawMessage  `json:"payload,omitempty"`

	attachment []byte
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

// NewEnvelope builds an envelope around an encoded payload. A
// *QueryResponse's proof bytes become the envelope's attachment.
func NewEnvelope(msgType string, payload any) (*Envelope, error) {
	env := &Envelope{Type: msgType}
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			return nil, fmt.Errorf("wire: encoding %s payload: %w", msgType, err)
		}
		env.Payload = data
		if r, ok := payload.(*QueryResponse); ok && r != nil && r.Proof != nil {
			env.attachment = r.Proof.ZK
		}
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
// and attachment included, in a single write.
func WriteEnvelope(w io.Writer, env *Envelope) error {
	if len(env.attachment) > 0 && env.Type != TypeResponse {
		return fmt.Errorf("%w: attachment on a %s frame", ErrBadEnvelope, env.Type)
	}
	header, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("wire: encoding envelope: %w", err)
	}
	var hl [binary.MaxVarintLen64]byte
	hlLen := binary.PutUvarint(hl[:], uint64(len(header)))
	n := 1 + hlLen + len(header) + len(env.attachment)
	if n > MaxMessageSize {
		return ErrFrameTooLarge
	}
	frame := make([]byte, 4, 4+n)
	binary.BigEndian.PutUint32(frame, uint32(n))
	frame = append(frame, frameVersion)
	frame = append(frame, hl[:hlLen]...)
	frame = append(frame, header...)
	frame = append(frame, env.attachment...)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	countFrame(writeCounters, env.Type, n)
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
	frame, err := readFrame(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("wire: reading frame: %w", err)
	}
	env, err := parseFrame(frame)
	if err != nil {
		return nil, err
	}
	countFrame(readCounters, env.Type, int(n))
	return env, nil
}

// readFrame reads an n-byte frame, allocating for the bytes that arrive
// rather than the bytes the length prefix claims: the buffer starts at
// frameChunk and doubles as it fills, so a peer that claims MaxMessageSize
// and stalls pins one chunk, not 16 MiB.
func readFrame(r io.Reader, n int) ([]byte, error) {
	frame := make([]byte, min(n, frameChunk))
	off := 0
	for {
		m, err := io.ReadFull(r, frame[off:])
		off += m
		if err != nil {
			return nil, err
		}
		if off == n {
			return frame, nil
		}
		grown := make([]byte, min(n, 2*len(frame)))
		copy(grown, frame)
		frame = grown
	}
}

// parseFrame splits a frame into its envelope and attachment.
func parseFrame(frame []byte) (*Envelope, error) {
	if len(frame) == 0 || frame[0] != frameVersion {
		return nil, fmt.Errorf("%w: not a version %d frame", ErrBadEnvelope, frameVersion)
	}
	hl, k := binary.Uvarint(frame[1:])
	if k <= 0 || hl > uint64(len(frame)-1-k) {
		return nil, fmt.Errorf("%w: header length past the end of the frame", ErrBadEnvelope)
	}
	end := 1 + k + int(hl)
	var env Envelope
	if err := json.Unmarshal(frame[1+k:end], &env); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadEnvelope, err)
	}
	if env.Type == "" {
		return nil, fmt.Errorf("%w: missing type", ErrBadEnvelope)
	}
	if attachment := frame[end:]; len(attachment) > 0 {
		if env.Type != TypeResponse {
			return nil, fmt.Errorf("%w: attachment on a %s frame", ErrBadEnvelope, env.Type)
		}
		env.attachment = attachment
	}
	return &env, nil
}

// Decode unmarshals the envelope payload into v. Decoding into a
// *QueryResponse hands its proof the envelope's attachment.
func (e *Envelope) Decode(v any) error {
	if len(e.Payload) == 0 {
		return fmt.Errorf("%w: empty %s payload", ErrBadEnvelope, e.Type)
	}
	if err := json.Unmarshal(e.Payload, v); err != nil {
		return fmt.Errorf("wire: decoding %s payload: %w", e.Type, err)
	}
	if r, ok := v.(*QueryResponse); ok && r.Proof != nil {
		r.Proof.ZK = e.attachment
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

// Proof is the wire form of a poc.Proof: the kind tag rides in the JSON
// envelope, and the compact binary ZK-EDB proof is the response frame's
// attachment.
type Proof struct {
	Kind int    `json:"kind"`
	ZK   []byte `json:"-"`
}

// EncodeProof converts a poc.Proof to its wire form. A proof carries its
// encoding, so this encodes nothing for a proof Prove made.
func EncodeProof(p *poc.Proof) (*Proof, error) {
	if p == nil {
		return nil, nil
	}
	data, err := p.Encoding()
	if err != nil {
		return nil, fmt.Errorf("wire: encoding proof: %w", err)
	}
	return &Proof{Kind: int(p.Kind), ZK: data}, nil
}

// DecodeProof converts a wire proof back to a poc.Proof. It only wraps the
// received bytes, and never fails: verification decodes them, so bytes
// that do not decode make an invalid proof, not a failed exchange.
func DecodeProof(p *Proof) (*poc.Proof, error) {
	if p == nil {
		return nil, nil
	}
	return poc.ProofFromBytes(poc.ProofKind(p.Kind), p.ZK), nil
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
