// Package events is DE-Sword's query flight recorder: one canonical wide
// event per completed product path query (and per node request), durable
// beyond the trace ring. Where package trace answers "what did this one
// sampled request do, span by span", an event is the always-on, flat,
// append-friendly record of what a query saw — outcome, path length, per-hop
// identify/prove/verify timings, proof-cache and pool counters, violations,
// and the reputation deltas the proxy applied — so a dispute can be
// reconstructed after the fact, which is the paper's whole point.
//
// Events land in a bounded in-memory ring (served by /debug/events on the
// admin listener, deep-linking each event to /debug/traces/<id>) and,
// optionally, in an append-only JSONL journal with size-based rotation and a
// configurable fsync policy. The journal is crash-safe on reopen: a torn
// tail line from an interrupted write is truncated and counted, never
// parsed. desword-events scans journals offline for aggregates, top-N slow
// queries, and two-journal regression diffs.
//
// The package follows the repository's observability conventions: stdlib
// only, obs for metrics, nil-safe handles so disabled recording costs one
// branch.
package events

import (
	"encoding/json"
	"fmt"
	"time"
)

// SchemaVersion stamps every event so offline scanners can gate on the
// fields they understand. Bump it when a field changes meaning; adding
// omitempty fields is compatible and needs no bump.
const SchemaVersion = 1

// Kind discriminates the event flavours sharing the canonical schema.
type Kind string

// Event kinds.
const (
	// KindQuery is one completed product path query at the proxy.
	KindQuery Kind = "query"
	// KindNodeRequest is one request handled by a node server (participant
	// or proxy), as seen from the serving side.
	KindNodeRequest Kind = "node_request"
	// KindCampaign is one simulation-campaign cell (desword-sim): durable
	// evidence for incentive and adversary campaigns.
	KindCampaign Kind = "campaign"
)

// Outcome is the event's one-word verdict.
type Outcome string

// Outcomes. Query events use complete, incomplete and no_origin, plus error
// for a walk whose caller cancelled it (nothing settled). Node requests and
// campaigns use ok/error, and a node request the server's admission gate
// rejected is load_shed: a shed query never reaches the proxy, so it leaves
// no query event.
const (
	// OutcomeComplete: the walk reached a leaf of the POC list.
	OutcomeComplete Outcome = "complete"
	// OutcomeIncomplete: a path was found but the walk stalled before a leaf.
	OutcomeIncomplete Outcome = "incomplete"
	// OutcomeNoOrigin: no initial participant admitted processing the product.
	OutcomeNoOrigin Outcome = "no_origin"
	// OutcomeOK: the request was handled without error.
	OutcomeOK Outcome = "ok"
	// OutcomeError: the request failed.
	OutcomeError Outcome = "error"
	// OutcomeLoadShed: admission control rejected the work before it ran —
	// the queue was full or the deadline could not be met. Distinct from
	// OutcomeError so overload shows up as shedding, not as failures.
	OutcomeLoadShed Outcome = "load_shed"
)

// Hop is one committed proxy↔participant query interaction. Timings are
// microseconds of proxy-side wall clock: IdentifyUS covers the whole
// interaction, ProveUS the query round trip (dominated by the participant's
// proof generation), VerifyUS the proxy-side proof verification, and
// DemandUS the ownership-demand round trip of the bad-product case.
// Speculative child probes whose outcome was discarded (probe fan-out) do
// not appear — the hop list matches the serial walk exactly.
type Hop struct {
	Participant string `json:"participant"`
	Identified  bool   `json:"identified"`
	IdentifyUS  int64  `json:"identify_us"`
	ProveUS     int64  `json:"prove_us,omitempty"`
	VerifyUS    int64  `json:"verify_us,omitempty"`
	DemandUS    int64  `json:"demand_us,omitempty"`
	Violations  int    `json:"violations,omitempty"`
}

// Violation is the event form of a detected dishonest behaviour; the type
// travels as its string name so journals stay self-describing.
type Violation struct {
	Participant string `json:"participant"`
	Type        string `json:"type"`
	Detail      string `json:"detail"`
}

// MaxHops bounds the per-event hop list so one pathological walk cannot
// balloon a journal line; overflow is counted in HopsTruncated.
const MaxHops = 1024

// Event is the canonical wide event. One event carries everything known
// about one unit of work — queries fill the query section, node requests
// the request section, campaigns the extensible Fields map — so offline
// analysis never joins across files. An event is frozen once emitted:
// sinks, rings and explorers share the pointer and never mutate it.
type Event struct {
	Schema     int       `json:"schema"`
	Kind       Kind      `json:"kind"`
	Time       time.Time `json:"time"`
	Service    string    `json:"service,omitempty"`
	DurationUS int64     `json:"duration_us"`
	TraceID    string    `json:"trace_id,omitempty"`
	Outcome    Outcome   `json:"outcome"`
	Error      string    `json:"error,omitempty"`

	// Query section.
	Product       string             `json:"product,omitempty"`
	Quality       string             `json:"quality,omitempty"`
	TaskID        string             `json:"task_id,omitempty"`
	PathLen       int                `json:"path_len,omitempty"`
	Complete      bool               `json:"complete,omitempty"`
	Hops          []Hop              `json:"hops,omitempty"`
	HopsTruncated int                `json:"hops_truncated,omitempty"`
	Violations    []Violation        `json:"violations,omitempty"`
	RepDeltas     map[string]float64 `json:"rep_deltas,omitempty"`

	// Per-request resource counters, accumulated by the innermost Scope the
	// request context carried (see scope.go).
	CacheHits   uint64 `json:"cache_hits,omitempty"`
	CacheMisses uint64 `json:"cache_misses,omitempty"`
	PoolReused  uint64 `json:"pool_reused,omitempty"`
	PoolRetries uint64 `json:"pool_retries,omitempty"`
	// Proxy-side verified-proof memo: proofs accepted without re-verifying,
	// and proofs verified by a memo leader.
	VerifyMemoHits   uint64 `json:"verify_memo_hits,omitempty"`
	VerifyMemoMisses uint64 `json:"verify_memo_misses,omitempty"`

	// Node-request section.
	MsgType string `json:"msg_type,omitempty"`
	Peer    string `json:"peer,omitempty"`

	// Fields holds ad-hoc wide-event fields (campaign parameters and
	// results, mostly). Keys must be compile-time constants matching
	// ^[a-z_]+$ — enforced at vet time by the desword/eventfield analyzer —
	// so journals keep a closed, greppable vocabulary. encoding/json sorts
	// map keys, so serialized events stay byte-deterministic.
	Fields map[string]any `json:"fields,omitempty"`
}

// New builds an event of a kind with the schema version and start time
// stamped. The caller fills the sections it knows and emits via a Sink.
func New(kind Kind, start time.Time) *Event {
	return &Event{Schema: SchemaVersion, Kind: kind, Time: start}
}

// SetField sets one ad-hoc wide-event field. The name must be a
// compile-time constant matching ^[a-z_]+$ (desword/eventfield); values are
// anything encoding/json accepts.
func (e *Event) SetField(name string, value any) {
	if e.Fields == nil {
		e.Fields = make(map[string]any)
	}
	e.Fields[name] = value
}

// AddHop appends one committed interaction, honoring MaxHops.
func (e *Event) AddHop(h Hop) {
	if len(e.Hops) >= MaxHops {
		e.HopsTruncated++
		return
	}
	e.Hops = append(e.Hops, h)
}

// Encode renders the event as one JSONL line (no trailing newline).
func (e *Event) Encode() ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("events: encoding %s event: %w", e.Kind, err)
	}
	return b, nil
}

// Decode parses one journal line back into an event.
func Decode(line []byte) (*Event, error) {
	var ev Event
	if err := json.Unmarshal(line, &ev); err != nil {
		return nil, fmt.Errorf("events: decoding journal line: %w", err)
	}
	return &ev, nil
}
