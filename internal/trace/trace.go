// Package trace is DE-Sword's zero-dependency distributed tracing layer:
// trace and span identifiers, parent links, wall-clock timestamps, typed
// attributes, head-based sampling, and a bounded in-memory ring of recent
// completed traces with JSON export.
//
// The design follows the repository's observability conventions (package
// obs): stdlib only, a process-wide Default tracer the instrumented packages
// share, and an allocation-free fast path — when a request is not sampled,
// Start/StartChild return a nil *Span whose methods are all no-op, so the
// query hot path pays one context lookup and one atomic load per call site.
//
// A trace follows one product path query end to end: the proxy roots a span
// per query, each hop's query interaction becomes a child span, wire round
// trips and ZK-EDB proof generation/verification nest below that, and remote
// peers continue the same trace via the trace_id/span_id envelope headers
// (package wire). Completed participant-side spans travel back to the caller
// on the response envelope, so the proxy's trace holds the full cross-process
// timeline.
package trace

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one typed span attribute. Values are kept as strings in the
// exported form; the constructors (String, Int, Bool, Duration) perform the
// conversion once, at record time.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, Value: strconv.Itoa(value)} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: strconv.FormatBool(value)} }

// Duration builds a duration attribute.
func Duration(key string, value time.Duration) Attr {
	return Attr{Key: key, Value: value.String()}
}

// SpanData is the exported, JSON-ready form of one completed span. It is
// what the recorder stores, what /debug/traces serves, and what travels on
// response envelopes between processes.
type SpanData struct {
	TraceID  string    `json:"trace_id"`
	SpanID   string    `json:"span_id"`
	ParentID string    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Service  string    `json:"service,omitempty"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Attrs    []Attr    `json:"attrs,omitempty"`
	Error    string    `json:"error,omitempty"`
	// Remote marks a span adopted from a peer's response envelope rather
	// than recorded locally.
	Remote bool `json:"remote,omitempty"`
}

// collector accumulates the completed spans of one locally-rooted trace.
type collector struct {
	tracer *Tracer

	mu      sync.Mutex
	traceID string
	spans   []SpanData // guarded by mu
}

func (c *collector) add(data SpanData) {
	c.mu.Lock()
	c.spans = append(c.spans, data)
	c.mu.Unlock()
}

// snapshot copies the spans collected so far.
func (c *collector) snapshot() []SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]SpanData(nil), c.spans...)
}

// Span is one live span. A nil *Span is valid and inert — every method is
// nil-safe — which is how unsampled requests stay allocation-free.
type Span struct {
	col  *collector
	root bool

	mu    sync.Mutex
	ended bool
	data  SpanData
}

// TraceID returns the span's trace identifier ("" for a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SpanID returns the span's own identifier ("" for a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, attrs...)
	s.mu.Unlock()
}

// SetError records a non-nil error on the span.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.data.Error = err.Error()
	s.mu.Unlock()
}

// Adopt merges completed spans received from a peer (a response envelope's
// spans field) into this span's trace. Spans whose trace id does not match
// are dropped — a peer cannot graft foreign data into the timeline.
func (s *Span) Adopt(spans []SpanData) {
	if s == nil || len(spans) == 0 {
		return
	}
	for _, sd := range spans {
		if sd.TraceID != s.data.TraceID {
			continue
		}
		sd.Remote = true
		s.col.add(sd)
	}
}

// End completes the span: it stamps the end time and moves the span into the
// trace's collector. Ending the root span hands the completed trace to the
// tracer's recorder. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = time.Now()
	data := s.data
	s.mu.Unlock()
	s.col.add(data)
	if s.root {
		s.col.tracer.recorder.record(s.col.traceID, data.Name, s.col.snapshot())
	}
}

// Drain returns a copy of every span collected in this span's trace so far.
// Servers call it after End to attach their fragment of a remote trace to
// the response envelope.
func (s *Span) Drain() []SpanData {
	if s == nil {
		return nil
	}
	return s.col.snapshot()
}

// spanKey is the context key the active span lives under.
type spanKey struct{}

// FromContext returns the active span, or nil when the context carries none.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Tracer creates spans and hands completed traces to its recorder. All
// methods are safe for concurrent use.
type Tracer struct {
	service  atomic.Pointer[string]
	rate     atomic.Uint64 // math.Float64bits of the head-sampling rate
	recorder *Recorder
}

// New builds a tracer recording up to capacity completed traces. A rate of 0
// disables locally-rooted traces; remote-parented spans are always honored,
// so the sampling decision made at the edge of the system wins.
func New(service string, rate float64, capacity int) *Tracer {
	t := &Tracer{recorder: NewRecorder(capacity)}
	t.SetService(service)
	t.SetSampleRate(rate)
	return t
}

// Default is the process-wide tracer the instrumented packages (core, node,
// poc, zkedb) record into. It starts disabled (rate 0); binaries enable it
// via -trace-sample.
var Default = New("", 0, 256)

// SetService names the process in every span this tracer records (e.g.
// "proxy", "participant:v2").
func (t *Tracer) SetService(service string) { t.service.Store(&service) }

// Service returns the configured service name.
func (t *Tracer) Service() string { return *t.service.Load() }

// SetSampleRate sets the head-based sampling rate in [0, 1]. Out-of-range
// values are clamped.
func (t *Tracer) SetSampleRate(rate float64) {
	t.rate.Store(math.Float64bits(math.Min(1, math.Max(0, rate))))
}

// SampleRate returns the current head-sampling rate.
func (t *Tracer) SampleRate() float64 { return math.Float64frombits(t.rate.Load()) }

// Recorder returns the ring of recent completed traces.
func (t *Tracer) Recorder() *Recorder { return t.recorder }

// sample makes one head-based sampling decision.
func (t *Tracer) sample() bool {
	rate := t.SampleRate()
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	// 53 random mantissa bits → uniform in [0, 1).
	return float64(nextRand()>>11)/(1<<53) < rate
}

// Start begins a span: a child of the context's active span when one exists,
// otherwise a new locally-rooted span subject to the sampling rate. The
// returned context carries the span; the returned *Span is nil (and the
// context unchanged) when the request is not sampled.
func (t *Tracer) Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		s := t.child(parent, name, attrs)
		return context.WithValue(ctx, spanKey{}, s), s
	}
	if !t.sample() {
		return ctx, nil
	}
	s := t.newSpan(nil, true, newTraceID(), "", name, attrs)
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartChild begins a span only when the context already carries one — it
// never roots a new trace. Wire round trips and proof operations use it so
// incidental calls outside a traced request record nothing.
func (t *Tracer) StartChild(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := t.child(parent, name, attrs)
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartRemote continues a trace whose context arrived over the wire: the new
// span becomes a local root (its completed fragment lands in this process's
// recorder and can be drained onto the response) parented to the remote span
// id. Remote-parented spans bypass the sampling rate — the edge that rooted
// the trace already decided. With an empty traceID it falls back to Start.
func (t *Tracer) StartRemote(ctx context.Context, name, traceID, parentID string, attrs ...Attr) (context.Context, *Span) {
	if traceID == "" {
		return t.Start(ctx, name, attrs...)
	}
	s := t.newSpan(nil, true, traceID, parentID, name, attrs)
	return context.WithValue(ctx, spanKey{}, s), s
}

// child builds a span under parent, sharing its collector.
func (t *Tracer) child(parent *Span, name string, attrs []Attr) *Span {
	return t.newSpan(parent.col, false, parent.data.TraceID, parent.data.SpanID, name, attrs)
}

// newSpan builds a live span; a nil col allocates a fresh collector (root).
// It copies attrs, so a caller's variadic attribute list never escapes and
// an unsampled call site allocates nothing for it.
func (t *Tracer) newSpan(col *collector, root bool, traceID, parentID, name string, attrs []Attr) *Span {
	if col == nil {
		col = &collector{tracer: t, traceID: traceID}
	}
	return &Span{
		col:  col,
		root: root,
		data: SpanData{
			TraceID:  traceID,
			SpanID:   newSpanID(),
			ParentID: parentID,
			Name:     name,
			Service:  t.Service(),
			Start:    time.Now(),
			Attrs:    append([]Attr(nil), attrs...),
		},
	}
}

// randState is the lock-free splitmix64 state behind trace/span ids and
// sampling decisions, seeded once from crypto/rand.
var randState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a fixed seed rather than crashing an observability layer.
		binary.BigEndian.PutUint64(seed[:], 0x9e3779b97f4a7c15)
	}
	randState.Store(binary.BigEndian.Uint64(seed[:]))
}

// nextRand advances the splitmix64 generator one step.
func nextRand() uint64 {
	z := randState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newTraceID returns a 16-byte random trace id in hex.
func newTraceID() string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], nextRand())
	binary.BigEndian.PutUint64(b[8:], nextRand())
	return hex.EncodeToString(b[:])
}

// newSpanID returns an 8-byte random span id in hex.
func newSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], nextRand())
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s looks like a trace id this package
// generated: 32 lowercase hex characters. Wire headers are checked with it
// so a malicious peer cannot inject arbitrary strings into logs and the
// trace explorer.
func ValidTraceID(s string) bool { return validHex(s, 32) }

// ValidSpanID reports whether s looks like a span id: 16 lowercase hex
// characters.
func ValidSpanID(s string) bool { return validHex(s, 16) }

func validHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < n; i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
