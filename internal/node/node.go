// Package node deploys DE-Sword over TCP: a proxy server, participant
// servers, and pooled persistent clients. The same protocol logic as the
// in-process engine runs here — node.ResponderClient implements
// core.Responder, so a core.Proxy can drive remote participants, and
// node.ProxyServer exposes the proxy to applications and initial
// participants. Clients draw connections from a per-endpoint Pool (reuse,
// retry with backoff, endpoint health fast-fail); see pool.go.
package node

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/trace"
	"desword/internal/wire"
)

// DefaultTimeout bounds each dial and each request/response exchange.
const DefaultTimeout = 10 * time.Second

// DefaultDrainGrace bounds how long Close waits for in-flight connections to
// finish before force-closing them.
const DefaultDrainGrace = 5 * time.Second

// ErrServerClosed reports use of a closed server.
var ErrServerClosed = errors.New("node: server closed")

// options collects the tunables shared by clients and servers.
type options struct {
	timeout    time.Duration
	drainGrace time.Duration
	eventSink  *events.Sink

	// Admission control (servers only); see WithAdmission.
	admissionWorkers int
	admissionQueue   int

	// Pooled-transport tunables (clients only).
	poolSize int
	retries  int
}

// Option configures a client or server.
type Option func(*options)

// WithTimeout sets the per-attempt dial/IO timeout (clients) and the
// per-request read/write deadline (servers). Non-positive values keep the
// default.
func WithTimeout(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.timeout = d
		}
	}
}

// WithDrainGrace sets how long a server's Close waits for in-flight
// connections before force-closing them. Non-positive values keep the
// default.
func WithDrainGrace(d time.Duration) Option {
	return func(o *options) {
		if d > 0 {
			o.drainGrace = d
		}
	}
}

// WithEventSink makes a server emit one node_request wide event per handled
// request into the flight recorder (servers only; clients ignore it).
func WithEventSink(s *events.Sink) Option {
	return func(o *options) { o.eventSink = s }
}

// WithAdmission puts a bounded admission gate in front of a server's request
// handling: at most workers requests run at once, at most queue more wait
// (negative queue = no waiting room, 0 = 2×workers), and requests that
// provably cannot meet their deadline are shed immediately with a load_shed
// outcome instead of queueing into a timeout. Servers only; the default (no
// call) admits everything, the historical behaviour.
func WithAdmission(workers, queue int) Option {
	return func(o *options) {
		if workers <= 0 {
			workers = DefaultAdmissionWorkers
		}
		o.admissionWorkers = workers
		o.admissionQueue = queue
	}
}

// WithPoolSize bounds the open connections a client keeps per endpoint.
// Non-positive values keep the default.
func WithPoolSize(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.poolSize = n
		}
	}
}

// WithRetries sets how many times a failed exchange is retried after the
// first attempt (0 disables retries). Negative values keep the default.
func WithRetries(n int) Option {
	return func(o *options) {
		if n >= 0 {
			o.retries = n
		}
	}
}

func applyOptions(opts []Option) options {
	o := options{
		timeout:    DefaultTimeout,
		drainGrace: DefaultDrainGrace,
		poolSize:   DefaultPoolSize,
		retries:    DefaultRetries,
	}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// server is the shared accept-loop machinery.
type server struct {
	ln      net.Listener
	opts    options
	role    string
	metrics *serverMetrics
	gate    *Gate // nil unless WithAdmission: nil admits everything

	// baseCtx is the root of every request handler's context, derived from
	// the ctx the caller handed to ServeParticipant/ServeProxy and canceled
	// by Close. Minting context.Background() per request would detach
	// handlers from the process lifetime (desword/ctxfirst).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]*connState
}

// connState tracks whether a connection is mid-request. Close cuts idle
// connections immediately — persistent clients park idle keep-alive
// connections here, and waiting out the drain grace for them would stall
// every shutdown — while busy ones get the grace to finish.
type connState struct {
	busy bool
}

func (s *server) start(ctx context.Context, ln net.Listener, role string, o options, handle func(context.Context, *wire.Envelope) (string, any)) {
	s.ln = ln
	s.opts = o
	s.role = role
	s.baseCtx, s.baseCancel = context.WithCancel(ctx)
	s.metrics = newServerMetrics(role)
	if o.admissionWorkers > 0 {
		s.gate = NewGate("node_"+role, o.admissionWorkers, o.admissionQueue)
	}
	s.conns = make(map[net.Conn]*connState)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			if !s.track(conn) {
				// Close raced the accept: drop the connection.
				_ = conn.Close()
				return
			}
			s.metrics.conns.Inc()
			s.metrics.inflight.Inc()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.metrics.inflight.Dec()
				defer s.untrack(conn)
				s.serveConn(conn, handle)
			}()
		}
	}()
}

// track registers a live connection; it reports false when the server is
// already closed.
func (s *server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = &connState{}
	return true
}

// markBusy flags a connection as mid-request; it reports false when the
// server already cut the connection (Close raced the read), in which case the
// request is dropped — the framing guarantees the peer sees a broken
// connection, and idempotent clients retry elsewhere.
func (s *server) markBusy(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.conns[conn]
	if !ok {
		return false
	}
	st.busy = true
	return true
}

// markIdle flags a connection as between requests; it reports whether the
// server is closing, in which case the serve loop should exit instead of
// waiting for another request that would stall the drain.
func (s *server) markIdle(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.conns[conn]; ok {
		st.busy = false
	}
	return s.closed
}

// untrack closes and forgets a connection.
func (s *server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	if cerr := conn.Close(); cerr != nil {
		_ = cerr // already answering or tearing down
	}
}

// serveConn answers framed requests on one connection until the peer hangs
// up or sends garbage. A request envelope carrying trace context continues
// the caller's distributed trace: the handler runs under a local root span,
// the completed local fragment (handler, proof generation, …) rides back to
// the caller on the response envelope, and the request is logged with the
// trace id via the context-aware slog handler.
func (s *server) serveConn(conn net.Conn, handle func(context.Context, *wire.Envelope) (string, any)) {
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.opts.timeout)); err != nil {
			return
		}
		env, err := wire.ReadMessage(conn)
		if err != nil {
			// A clean hang-up between requests, the idle-reap read deadline,
			// and a shutdown cutting the idle connection are the normal ends
			// of a keep-alive exchange, not errors.
			var nerr net.Error
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
				!(errors.As(err, &nerr) && nerr.Timeout()) {
				s.metrics.errRead.Inc()
			}
			return
		}
		if !s.markBusy(conn) {
			return // Close cut this connection as the request arrived
		}
		start := time.Now()
		ctx := s.baseCtx
		var span *trace.Span
		if traceID, spanID := env.TraceContext(); traceID != "" {
			ctx, span = trace.Default.StartRemote(ctx, "server."+env.Type, traceID, spanID,
				trace.String("role", s.role), trace.String("peer", conn.RemoteAddr().String()))
		}
		// With a flight recorder attached, a per-request scope attributes
		// handler-side resource counters (participant proof-cache hits, …) to
		// this request's node_request event. A proxy's query_path handler
		// installs its own, innermost scope for the query event.
		var reqScope *events.Scope
		if s.opts.eventSink != nil {
			reqScope = events.NewScope()
			ctx = events.WithScope(ctx, reqScope)
		}
		// Admission: with a gate configured, the handler runs under a real
		// deadline (the server's request timeout) so the gate's
		// deadline-aware drop has something to predict against, and overload
		// is answered with a cheap load_shed error instead of a queued
		// timeout. Without a gate this is one nil check.
		var respType string
		var payload any
		var shed bool
		handlerCtx, cancel := ctx, context.CancelFunc(nil)
		if s.gate != nil {
			handlerCtx, cancel = context.WithTimeout(ctx, s.opts.timeout)
		}
		if release, aerr := s.gate.Acquire(handlerCtx); aerr != nil {
			shed = true
			respType, payload = wire.TypeError, wire.ErrorResponse{Message: aerr.Error()}
			span.SetAttr(trace.Bool("load_shed", true))
		} else {
			respType, payload = handle(handlerCtx, env)
			release()
			if respType == wire.TypeError {
				s.metrics.errHandle.Inc()
				span.SetAttr(trace.Bool("error", true))
			}
		}
		if cancel != nil {
			cancel()
		}
		// One clock reading, before the response is written, feeds the
		// latency histogram, the request event and the log line.
		elapsed := time.Since(start)
		s.metrics.requestLatency(env.Type).Observe(elapsed.Seconds())
		if s.opts.eventSink != nil {
			s.emitRequestEvent(env, conn, span, respType, payload, reqScope, start, elapsed, shed)
		}
		if span != nil {
			slog.InfoContext(ctx, "traced request handled",
				"role", s.role, "type", env.Type, "resp", respType,
				"elapsed", elapsed)
		}
		if err := conn.SetWriteDeadline(time.Now().Add(s.opts.timeout)); err != nil {
			span.End()
			return
		}
		respEnv, err := wire.NewEnvelope(respType, payload)
		if err != nil {
			span.End()
			s.metrics.errWrite.Inc()
			return
		}
		// Echo the request id so pooled clients can verify the response
		// belongs to their request; a request without a valid one gets none
		// back, and its client refuses the response.
		respEnv.ReqID = env.RequestID()
		// End the handler span before draining so the fragment shipped to
		// the caller includes it; the local recorder keeps a copy too.
		span.End()
		if span != nil {
			respEnv.TraceID = span.TraceID()
			respEnv.SpanID = span.SpanID()
			respEnv.Spans = span.Drain()
		}
		if err := wire.WriteEnvelope(conn, respEnv); err != nil {
			s.metrics.errWrite.Inc()
			return
		}
		if s.markIdle(conn) {
			return // server closing: deliver the response, then hang up
		}
	}
}

// emitRequestEvent records one handled request as a node_request wide event:
// message type, peer, outcome, duration, and whatever resource counters the
// handler accumulated in the request scope.
func (s *server) emitRequestEvent(env *wire.Envelope, conn net.Conn, span *trace.Span, respType string, payload any, scope *events.Scope, start time.Time, elapsed time.Duration, shed bool) {
	ev := events.New(events.KindNodeRequest, start)
	ev.DurationUS = elapsed.Microseconds()
	ev.MsgType = env.Type
	ev.Peer = conn.RemoteAddr().String()
	ev.TraceID = span.TraceID()
	switch {
	case shed:
		// Admission control rejected the request before it ran: overload,
		// not failure — dashboards must tell the two apart.
		ev.Outcome = events.OutcomeLoadShed
		if er, ok := payload.(wire.ErrorResponse); ok {
			ev.Error = er.Message
		}
	case respType == wire.TypeError:
		ev.Outcome = events.OutcomeError
		if er, ok := payload.(wire.ErrorResponse); ok {
			ev.Error = er.Message
		}
	default:
		ev.Outcome = events.OutcomeOK
	}
	scope.Fill(ev)
	s.opts.eventSink.Emit(ev)
}

// Addr returns the server's listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and drains in-flight connections, waiting up to the
// drain grace before force-closing whatever is still open. It is idempotent:
// every call (including concurrent ones) waits for the drain and returns
// without error.
func (s *server) Close() error {
	if s.baseCancel != nil {
		// Cancel the handler root context once the drain completes: in-flight
		// requests get the full drain grace, but anything still holding the
		// context afterwards observes cancellation.
		defer s.baseCancel()
	}
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	// Cut idle connections immediately: pooled clients park keep-alive
	// connections between requests, and only in-flight work deserves the
	// drain grace. Forgetting them here makes markBusy drop a request whose
	// read raced the cut.
	for conn, st := range s.conns {
		if !st.busy {
			_ = conn.Close()
			delete(s.conns, conn)
		}
	}
	s.mu.Unlock()
	var err error
	if !alreadyClosed {
		err = s.ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.opts.drainGrace):
		// Grace expired: cut the remaining connections so their serve
		// goroutines unblock, then wait for them to exit.
		s.mu.Lock()
		for conn := range s.conns {
			_ = conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// ParticipantServer exposes one participant endpoint (honest member or
// adversary wrapper) over TCP.
type ParticipantServer struct {
	server
	responder core.Responder
}

// ServeParticipant listens on addr (use "127.0.0.1:0" for an ephemeral port)
// and serves query interactions against the responder. ctx is the root of
// every request handler's context: cancel it (or Close the server) to tear
// the endpoint down.
func ServeParticipant(ctx context.Context, addr string, responder core.Responder, opts ...Option) (*ParticipantServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: listening on %s: %w", addr, err)
	}
	s := &ParticipantServer{responder: responder}
	s.start(ctx, ln, "participant", applyOptions(opts), s.handle)
	return s, nil
}

func (s *ParticipantServer) handle(ctx context.Context, env *wire.Envelope) (string, any) {
	switch env.Type {
	case wire.TypeQuery:
		var req wire.QueryRequest
		if err := env.Decode(&req); err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		resp, err := s.responder.Query(ctx, req.TaskID, req.Product, core.Quality(req.Quality))
		if err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		encoded, err := wire.EncodeResponse(resp)
		if err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		return wire.TypeResponse, encoded
	case wire.TypeDemandOwnership:
		var req wire.DemandRequest
		if err := env.Decode(&req); err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		resp, err := s.responder.DemandOwnership(ctx, req.TaskID, req.Product)
		if err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		encoded, err := wire.EncodeResponse(resp)
		if err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		return wire.TypeResponse, encoded
	default:
		return wire.TypeError, wire.ErrorResponse{Message: "unknown message type " + env.Type}
	}
}

// ResponderClient reaches a remote participant; it implements
// core.Responder, so the proxy's resolver can hand it straight to the
// protocol engine. It draws connections from a persistent per-endpoint pool;
// see Pool for the reuse, retry, and health semantics.
type ResponderClient struct {
	pool *Pool
}

// NewResponderClient creates a client for one participant address.
func NewResponderClient(addr string, opts ...Option) *ResponderClient {
	return &ResponderClient{pool: NewPool(addr, opts...)}
}

var _ core.Responder = (*ResponderClient)(nil)

// Pool exposes the client's transport pool for stats and tuning.
func (c *ResponderClient) Pool() *Pool { return c.pool }

// Close releases the client's pooled connections.
func (c *ResponderClient) Close() error { return c.pool.Close() }

// Query implements core.Responder over TCP.
func (c *ResponderClient) Query(ctx context.Context, taskID string, id poc.ProductID, quality core.Quality) (*core.Response, error) {
	return c.roundTrip(ctx, wire.TypeQuery, wire.QueryRequest{
		TaskID: taskID, Product: id, Quality: int(quality),
	})
}

// DemandOwnership implements core.Responder over TCP.
func (c *ResponderClient) DemandOwnership(ctx context.Context, taskID string, id poc.ProductID) (*core.Response, error) {
	return c.roundTrip(ctx, wire.TypeDemandOwnership, wire.DemandRequest{
		TaskID: taskID, Product: id,
	})
}

func (c *ResponderClient) roundTrip(ctx context.Context, msgType string, payload any) (*core.Response, error) {
	env, err := c.pool.Exchange(ctx, msgType, payload)
	if err != nil {
		return nil, err
	}
	if env.Type != wire.TypeResponse {
		return nil, remoteError(env)
	}
	var resp wire.QueryResponse
	if err := env.Decode(&resp); err != nil {
		return nil, err
	}
	return wire.DecodeResponse(&resp)
}

// DirectoryResolver builds a core.Resolver from a participant→address map.
// Options (e.g. WithTimeout, WithPoolSize) apply to every client it creates.
// One client — and therefore one connection pool — is cached per address, so
// repeated resolutions of the same participant across queries reuse its live
// connections instead of redialing. Call Close on the returned Directory to
// release the pools.
func DirectoryResolver(dir map[poc.ParticipantID]string, opts ...Option) *Directory {
	d := &Directory{
		dir:     dir,
		opts:    opts,
		clients: make(map[string]*ResponderClient),
	}
	return d
}

// Directory is an address-book resolver that caches one pooled client per
// participant address. Safe for concurrent use.
type Directory struct {
	dir  map[poc.ParticipantID]string
	opts []Option

	mu      sync.Mutex
	clients map[string]*ResponderClient
}

// Resolve returns the cached client for a participant, creating it on first
// use. It satisfies core.Resolver via Directory.Resolver.
func (d *Directory) Resolve(v poc.ParticipantID) (core.Responder, error) {
	addr, ok := d.dir[v]
	if !ok {
		return nil, fmt.Errorf("node: no address for participant %s", v)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.clients[addr]
	if !ok {
		c = NewResponderClient(addr, d.opts...)
		d.clients[addr] = c
	}
	return c, nil
}

// Resolver adapts the directory to the core.Resolver function type.
func (d *Directory) Resolver() core.Resolver { return d.Resolve }

// Client returns the cached pooled client for an address, if one exists —
// handy for inspecting Pool.Stats in tests and benches.
func (d *Directory) Client(addr string) *ResponderClient {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clients[addr]
}

// Close releases every cached client's pooled connections.
func (d *Directory) Close() error {
	d.mu.Lock()
	clients := make([]*ResponderClient, 0, len(d.clients))
	for _, c := range d.clients {
		clients = append(clients, c)
	}
	d.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
	return nil
}

// ProxyServer exposes a core.Proxy over TCP to applications and initial
// participants.
type ProxyServer struct {
	server
	proxy *core.Proxy
}

// ServeProxy listens on addr and serves the proxy protocol. ctx is the
// root of every request handler's context: cancel it (or Close the server)
// to tear the endpoint down.
func ServeProxy(ctx context.Context, addr string, proxy *core.Proxy, opts ...Option) (*ProxyServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node: listening on %s: %w", addr, err)
	}
	s := &ProxyServer{proxy: proxy}
	s.start(ctx, ln, "proxy", applyOptions(opts), s.handle)
	return s, nil
}

func (s *ProxyServer) handle(ctx context.Context, env *wire.Envelope) (string, any) {
	switch env.Type {
	case wire.TypeGetParams:
		return wire.TypeParams, s.proxy.PublicParams()
	case wire.TypeRegisterList:
		var req wire.RegisterListRequest
		if err := env.Decode(&req); err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		if req.List == nil {
			return wire.TypeError, wire.ErrorResponse{Message: "missing POC list"}
		}
		if err := s.proxy.RegisterList(req.TaskID, req.List); err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		return wire.TypeAck, nil
	case wire.TypeQueryPath:
		var req wire.QueryPathRequest
		if err := env.Decode(&req); err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		result, err := s.proxy.QueryPath(ctx, req.Product, core.Quality(req.Quality))
		if err != nil {
			return wire.TypeError, wire.ErrorResponse{Message: err.Error()}
		}
		return wire.TypePathResult, wire.EncodePathResult(result)
	case wire.TypeScores:
		return wire.TypeScoreTable, wire.ScoreTable{Scores: s.proxy.Scores()}
	case wire.TypeAuditLog:
		// Head and count come from the same snapshot as the entries, so a
		// settlement landing mid-request cannot make the reply inconsistent.
		chain := wire.AuditChain{Entries: s.proxy.Ledger().AuditLog(), Head: make([]byte, 32)}
		if n := len(chain.Entries); n > 0 {
			chain.Head, chain.Count = chain.Entries[n-1].Digest[:], uint64(n)
		}
		return wire.TypeAuditChain, chain
	default:
		return wire.TypeError, wire.ErrorResponse{Message: "unknown message type " + env.Type}
	}
}

// ProxyClient reaches a remote proxy through a persistent connection pool;
// see Pool for the reuse, retry, and health semantics.
type ProxyClient struct {
	pool *Pool
}

// NewProxyClient creates a client for a proxy address.
func NewProxyClient(addr string, opts ...Option) *ProxyClient {
	return &ProxyClient{pool: NewPool(addr, opts...)}
}

// Pool exposes the client's transport pool for stats and tuning.
func (c *ProxyClient) Pool() *Pool { return c.pool }

// Close releases the client's pooled connections.
func (c *ProxyClient) Close() error { return c.pool.Close() }

// GetParams fetches and rehydrates the public parameter ps.
func (c *ProxyClient) GetParams(ctx context.Context) (*poc.PublicParams, error) {
	env, err := c.pool.Exchange(ctx, wire.TypeGetParams, struct{}{})
	if err != nil {
		return nil, err
	}
	if env.Type != wire.TypeParams {
		return nil, remoteError(env)
	}
	var ps poc.PublicParams
	if err := env.Decode(&ps); err != nil {
		return nil, err
	}
	if err := ps.Rehydrate(); err != nil {
		return nil, fmt.Errorf("node: rehydrating params: %w", err)
	}
	return &ps, nil
}

// RegisterList submits a POC list on behalf of an initial participant.
func (c *ProxyClient) RegisterList(ctx context.Context, taskID string, list *poc.List) error {
	env, err := c.pool.Exchange(ctx, wire.TypeRegisterList,
		wire.RegisterListRequest{TaskID: taskID, List: list})
	if err != nil {
		return err
	}
	if env.Type != wire.TypeAck {
		return remoteError(env)
	}
	return nil
}

// QueryPath runs a full product path query at the proxy. When ctx carries an
// active trace span, the proxy continues the same trace; either way, the
// returned result names the proxy-side trace id when the query was sampled.
func (c *ProxyClient) QueryPath(ctx context.Context, id poc.ProductID, quality core.Quality) (*core.Result, error) {
	env, err := c.pool.Exchange(ctx, wire.TypeQueryPath,
		wire.QueryPathRequest{Product: id, Quality: int(quality)})
	if err != nil {
		return nil, err
	}
	if env.Type != wire.TypePathResult {
		return nil, remoteError(env)
	}
	var result wire.PathResult
	if err := env.Decode(&result); err != nil {
		return nil, err
	}
	return wire.DecodePathResult(&result), nil
}

// Scores fetches the public reputation table.
func (c *ProxyClient) Scores(ctx context.Context) (map[poc.ParticipantID]float64, error) {
	env, err := c.pool.Exchange(ctx, wire.TypeScores, struct{}{})
	if err != nil {
		return nil, err
	}
	if env.Type != wire.TypeScoreTable {
		return nil, remoteError(env)
	}
	var table wire.ScoreTable
	if err := env.Decode(&table); err != nil {
		return nil, err
	}
	return table.Scores, nil
}

// AuditLog fetches the proxy's chained score history and verifies it
// end-to-end before returning it — a customer-side audit in one call.
func (c *ProxyClient) AuditLog(ctx context.Context) ([]reputation.AuditEntry, error) {
	env, err := c.pool.Exchange(ctx, wire.TypeAuditLog, struct{}{})
	if err != nil {
		return nil, err
	}
	if env.Type != wire.TypeAuditChain {
		return nil, remoteError(env)
	}
	var chain wire.AuditChain
	if err := env.Decode(&chain); err != nil {
		return nil, err
	}
	head, err := auditHead(chain.Head)
	if err != nil {
		return nil, err
	}
	if err := reputation.VerifyAuditChain(chain.Entries, head, chain.Count); err != nil {
		return nil, fmt.Errorf("node: proxy published a broken audit chain: %w", err)
	}
	return chain.Entries, nil
}

// auditHead parses a wire audit head into its fixed-size form.
func auditHead(b []byte) ([32]byte, error) {
	var head [32]byte
	if len(b) != len(head) {
		return head, fmt.Errorf("node: malformed audit head (%d bytes)", len(b))
	}
	copy(head[:], b)
	return head, nil
}

// remoteError converts an unexpected envelope into an error.
func remoteError(env *wire.Envelope) error {
	if env.Type == wire.TypeError {
		var er wire.ErrorResponse
		if err := env.Decode(&er); err == nil {
			return fmt.Errorf("node: remote error: %s", er.Message)
		}
	}
	return fmt.Errorf("node: unexpected response type %q", env.Type)
}
