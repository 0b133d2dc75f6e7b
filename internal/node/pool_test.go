package node

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/obs"
	"desword/internal/supplychain"
	"desword/internal/wire"
)

// startWireServer runs a minimal framed-message server: every connection is
// answered by fn until the peer hangs up. It stands in for participants with
// arbitrary (including deliberately wrong) wire behaviour.
func startWireServer(t *testing.T, fn func(env *wire.Envelope) *wire.Envelope) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for c := range conns {
			_ = c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns[conn] = struct{}{}
			mu.Unlock()
			go func() {
				defer conn.Close()
				for {
					env, err := wire.ReadMessage(conn)
					if err != nil {
						return
					}
					resp := fn(env)
					if resp == nil {
						return // hang up without answering
					}
					if err := wire.WriteEnvelope(conn, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// ackServer answers every request with an ack, echoing the request id the way
// a current server does.
func ackServer(t *testing.T) string {
	t.Helper()
	return startWireServer(t, func(env *wire.Envelope) *wire.Envelope {
		resp, err := wire.NewEnvelope(wire.TypeAck, nil)
		if err != nil {
			t.Errorf("building ack: %v", err)
			return nil
		}
		resp.ReqID = env.RequestID()
		return resp
	})
}

func TestPoolReusesConnections(t *testing.T) {
	addr := ackServer(t)
	p := NewPool(addr, WithPoolSize(2))
	defer p.Close()

	reuses := obs.Default.Counter("desword_pool_reuses_total", "")
	reusesBefore := reuses.Value()
	for i := 0; i < 5; i++ {
		env, err := p.Exchange(context.Background(), wire.TypeGetParams, struct{}{})
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		if env.Type != wire.TypeAck {
			t.Fatalf("exchange %d answered %q", i, env.Type)
		}
	}
	st := p.Stats()
	if st.Dials != 1 {
		t.Fatalf("5 sequential exchanges must dial once, dialed %d", st.Dials)
	}
	if st.Reuses != 4 {
		t.Fatalf("reuses = %d, want 4", st.Reuses)
	}
	if st.Open != 1 || st.Idle != 1 {
		t.Fatalf("pool must hold the connection idle: open=%d idle=%d", st.Open, st.Idle)
	}
	// The acceptance signal the /metrics endpoint exposes: reuse ratio > 0.
	if got := reuses.Value(); got <= reusesBefore {
		t.Fatalf("desword_pool_reuses_total did not advance: %d -> %d", reusesBefore, got)
	}
}

func TestPoolCloseReleasesConnections(t *testing.T) {
	addr := ackServer(t)
	p := NewPool(addr)
	if _, err := p.Exchange(context.Background(), wire.TypeGetParams, struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal("second close must be a no-op")
	}
	st := p.Stats()
	if st.Open != 0 || st.Idle != 0 {
		t.Fatalf("closed pool must hold nothing: open=%d idle=%d", st.Open, st.Idle)
	}
	if _, err := p.Exchange(context.Background(), wire.TypeGetParams, struct{}{}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("exchange on closed pool = %v, want ErrPoolClosed", err)
	}
}

// TestPoolExhaustionQueues drives more concurrent exchanges than the pool
// bound allows: everything must still complete, over a single connection,
// with the overflow visibly queueing.
func TestPoolExhaustionQueues(t *testing.T) {
	addr := startWireServer(t, func(env *wire.Envelope) *wire.Envelope {
		time.Sleep(20 * time.Millisecond) // hold the connection long enough to collide
		resp, _ := wire.NewEnvelope(wire.TypeAck, nil)
		resp.ReqID = env.RequestID()
		return resp
	})
	p := NewPool(addr, WithPoolSize(1))
	defer p.Close()

	const workers = 4
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Exchange(context.Background(), wire.TypeGetParams, struct{}{})
			errCh <- err
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Dials != 1 {
		t.Fatalf("bounded pool must serialize onto one connection, dialed %d", st.Dials)
	}
	if st.Reuses != workers-1 {
		t.Fatalf("reuses = %d, want %d", st.Reuses, workers-1)
	}
	if st.Waits == 0 {
		t.Fatal("overflow exchanges must register as waits")
	}
}

// TestRetryAfterServerDrain kills the server a pooled connection points at
// and brings a fresh one up on the same address: the next exchange must
// recover transparently by retrying on a fresh dial. The recovering query
// runs under a wide-event scope, which must count the stale connection's
// reuse and the retry exactly as the pool and the process-wide series do.
func TestRetryAfterServerDrain(t *testing.T) {
	m := core.NewMember(mustPS(t), supplychain.NewParticipant("drain-retry"))
	if _, err := m.CommitTask("t"); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeParticipant(context.Background(), "127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	c := NewResponderClient(addr, WithRetryBackoff(time.Millisecond))
	defer c.Close()
	if _, err := c.Query(context.Background(), "t", "x", core.Good); err != nil {
		t.Fatalf("first query: %v", err)
	}
	if st := c.Pool().Stats(); st.Idle != 1 {
		t.Fatalf("connection must be pooled after the first query: %+v", st)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := ServeParticipant(context.Background(), addr, m)
	if err != nil {
		t.Fatalf("rebinding %s: %v", addr, err)
	}
	t.Cleanup(func() {
		if cerr := srv2.Close(); cerr != nil {
			t.Errorf("closing server: %v", cerr)
		}
	})

	reuses := obs.Default.Counter("desword_pool_reuses_total", "")
	retries := obs.Default.Counter("desword_pool_retries_total", "")
	before, reuses0, retries0 := c.Pool().Stats(), reuses.Value(), retries.Value()
	scope := events.NewScope()
	if _, err := c.Query(events.WithScope(context.Background(), scope), "t", "x", core.Good); err != nil {
		t.Fatalf("query after server drain must recover by retrying: %v", err)
	}
	after := c.Pool().Stats()
	if after.Retries == 0 && after.Dials < 2 {
		t.Fatalf("recovery must have redialed or retried: %+v", after)
	}
	var ev events.Event
	scope.Fill(&ev)
	if ev.PoolReused == 0 {
		t.Fatalf("the stale pooled connection was not counted as reused: pool %+v -> %+v", before, after)
	}
	if ev.PoolReused != after.Reuses-before.Reuses || ev.PoolReused != reuses.Value()-reuses0 {
		t.Fatalf("event pool_reused=%d, pool Reuses +%d, desword_pool_reuses_total +%d",
			ev.PoolReused, after.Reuses-before.Reuses, reuses.Value()-reuses0)
	}
	if ev.PoolRetries != after.Retries-before.Retries || ev.PoolRetries != retries.Value()-retries0 {
		t.Fatalf("event pool_retries=%d, pool Retries +%d, desword_pool_retries_total +%d",
			ev.PoolRetries, after.Retries-before.Retries, retries.Value()-retries0)
	}
}

// TestEndpointDownFastFail pins the health tracking: once an endpoint crosses
// the failure threshold, callers get an immediate ErrEndpointDown instead of
// burning a dial timeout each.
func TestEndpointDownFastFail(t *testing.T) {
	p := NewPool("127.0.0.1:1", // nothing listening
		WithRetries(0), WithFailThreshold(1), WithCooldown(time.Minute))
	defer p.Close()

	if _, err := p.Exchange(context.Background(), wire.TypeQuery, struct{}{}); err == nil {
		t.Fatal("dialing a dead endpoint must fail")
	}
	start := time.Now()
	_, err := p.Exchange(context.Background(), wire.TypeQuery, struct{}{})
	if !errors.Is(err, ErrEndpointDown) {
		t.Fatalf("second exchange = %v, want ErrEndpointDown", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("fast-fail took %v", elapsed)
	}
	if st := p.Stats(); st.FastFails == 0 {
		t.Fatalf("fast-fail must be counted: %+v", st)
	}
}

// TestRequestIDMismatchPoisonsConnection serves a wrong (but well-formed)
// request-id echo: the exchange must fail rather than hand the caller some
// other request's response, and the desynchronized connection must not
// return to the pool.
func TestRequestIDMismatchPoisonsConnection(t *testing.T) {
	addr := startWireServer(t, func(env *wire.Envelope) *wire.Envelope {
		resp, _ := wire.NewEnvelope(wire.TypeAck, nil)
		resp.ReqID = "0000000000000000"
		return resp
	})
	p := NewPool(addr, WithRetries(0))
	defer p.Close()

	_, err := p.Exchange(context.Background(), wire.TypeGetParams, struct{}{})
	if err == nil {
		t.Fatal("mismatched req_id echo must fail the exchange")
	}
	if !strings.Contains(err.Error(), "req_id") {
		t.Fatalf("error must name the req_id mismatch: %v", err)
	}
	if st := p.Stats(); st.Idle != 0 || st.Open != 0 {
		t.Fatalf("poisoned connection must not be pooled: %+v", st)
	}
}

// TestOldServerWithoutRequestIDInteroperates answers without echoing the
// request id, the way a pre-req_id peer does: the pooled client must accept
// the response and keep reusing the connection.
func TestOldServerWithoutRequestIDInteroperates(t *testing.T) {
	addr := startWireServer(t, func(env *wire.Envelope) *wire.Envelope {
		resp, _ := wire.NewEnvelope(wire.TypeAck, nil)
		return resp // no ReqID: an old peer drops unknown headers
	})
	p := NewPool(addr)
	defer p.Close()

	for i := 0; i < 3; i++ {
		env, err := p.Exchange(context.Background(), wire.TypeGetParams, struct{}{})
		if err != nil {
			t.Fatalf("exchange %d against old peer: %v", i, err)
		}
		if env.Type != wire.TypeAck {
			t.Fatalf("exchange %d answered %q", i, env.Type)
		}
	}
	if st := p.Stats(); st.Reuses != 2 {
		t.Fatalf("old peers must still get connection reuse: %+v", st)
	}
}

// TestExchangeRespectsContextDeadline sets a ctx deadline far below the flat
// timeout against a server that never answers: the earlier deadline must win
// on the attempt.
func TestExchangeRespectsContextDeadline(t *testing.T) {
	addr := startWireServer(t, func(env *wire.Envelope) *wire.Envelope {
		time.Sleep(10 * time.Second)
		return nil
	})
	p := NewPool(addr, WithTimeout(30*time.Second), WithRetries(0))
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.Exchange(ctx, wire.TypeGetParams, struct{}{})
	if err == nil {
		t.Fatal("exchange must fail when the ctx deadline passes")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ctx deadline of 100ms took %v; the flat timeout won", elapsed)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error, got %v", err)
	}
}

// TestParticipantUnreachableMidWalk takes one participant server down between
// registration and query: the walk must degrade to an unreachable violation
// for that hop instead of failing the whole query.
func TestParticipantUnreachableMidWalk(t *testing.T) {
	d := deploy(t, 3, nil)
	// Find p1's server through the directory the deployment built and cut it.
	if err := d.stop("p1"); err != nil {
		t.Fatal(err)
	}
	result, err := d.client.QueryPath(context.Background(), d.product, core.Good)
	if err != nil {
		t.Fatalf("query with a dead hop must still answer: %v", err)
	}
	if !result.Violated(core.ViolationUnreachable) {
		t.Fatalf("dead participant must surface as unreachable: %+v", result.Violations)
	}
	if len(result.Path) != 1 {
		t.Fatalf("walk must stop at the dead hop: path=%v", result.Path)
	}
}

// TestSharedPoolConcurrentQueries hammers one shared proxy client (one pool)
// with concurrent full path queries — the race-detector workout for the
// pooled transport end to end.
func TestSharedPoolConcurrentQueries(t *testing.T) {
	d := deploy(t, 3, nil)
	const workers = 12
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			result, err := d.client.QueryPath(context.Background(), d.product, core.Good)
			if err == nil && len(result.Path) != 3 {
				err = errors.New("short path")
			}
			errCh <- err
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st := d.client.Pool().Stats(); st.Open > DefaultPoolSize {
		t.Fatalf("pool bound violated: %+v", st)
	}
}

// BenchmarkPoolExchange times one pooled round trip of a small message
// against an ack-only server.
func BenchmarkPoolExchange(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					env, err := wire.ReadMessage(conn)
					if err != nil {
						return
					}
					resp, _ := wire.NewEnvelope(wire.TypeAck, nil)
					resp.ReqID = env.RequestID()
					if err := wire.WriteEnvelope(conn, resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	p := NewPool(ln.Addr().String())
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Exchange(context.Background(), wire.TypeGetParams, struct{}{}); err != nil {
			b.Fatal(err)
		}
	}
}
