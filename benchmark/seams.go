package main

import (
	"context"
	"sync/atomic"
	"time"

	"desword/internal/core"
	"desword/internal/poc"
)

// seams times, in traced runs, the calls crossing the layer boundaries the
// benchmark owns: the application's ProxyClient.QueryPath, the proxy's round
// trips to participants (a core.Resolver wrapper around the directory's
// clients), and each member's handling (a core.Responder wrapper around the
// member a participant server serves). Layers are accounted in aggregate —
// the time summed over a window and the number of calls — so a layer's self
// time is its seam's sum minus the sums of the seams nested inside it. A nil
// *seams records nothing and wraps nothing: timed runs measure the
// unwrapped system.
type seams struct {
	client, hop, member timer

	// The proofs the proxy verifies, as seen in the responses it gets: an
	// ownership proof behind every processing claim, and in the bad-product
	// case a non-ownership proof behind every denial.
	ownVerifies, nonOwnVerifies atomic.Int64

	// hook, set only by tests, runs after each member call with its
	// duration, so a test can slow the member layer down.
	hook func(time.Duration)
}

// timer sums the durations of the calls through one seam.
type timer struct{ calls, ns atomic.Int64 }

func (t *timer) add(d time.Duration) {
	t.calls.Add(1)
	t.ns.Add(int64(d))
}

func (s *seams) clientQuery(d time.Duration) {
	if s != nil {
		s.client.add(d)
	}
}

// wrapMember wraps the responder a participant server is handed.
func (s *seams) wrapMember(r core.Responder) core.Responder {
	if s == nil {
		return r
	}
	return memberSeam{Responder: r, s: s}
}

// wrapResolver wraps the proxy's resolver so every responder it hands out is
// timed.
func (s *seams) wrapResolver(base core.Resolver) core.Resolver {
	if s == nil {
		return base
	}
	return func(v poc.ParticipantID) (core.Responder, error) {
		r, err := base(v)
		if err != nil {
			return nil, err
		}
		return hopSeam{Responder: r, s: s}, nil
	}
}

type memberSeam struct {
	core.Responder
	s *seams
}

func (m memberSeam) Query(ctx context.Context, taskID string, id poc.ProductID, q core.Quality) (*core.Response, error) {
	start := time.Now()
	resp, err := m.Responder.Query(ctx, taskID, id, q)
	m.s.memberDone(start)
	return resp, err
}

func (m memberSeam) DemandOwnership(ctx context.Context, taskID string, id poc.ProductID) (*core.Response, error) {
	start := time.Now()
	resp, err := m.Responder.DemandOwnership(ctx, taskID, id)
	m.s.memberDone(start)
	return resp, err
}

func (s *seams) memberDone(start time.Time) {
	if s.hook != nil {
		s.hook(time.Since(start))
	}
	s.member.add(time.Since(start))
}

type hopSeam struct {
	core.Responder
	s *seams
}

func (h hopSeam) Query(ctx context.Context, taskID string, id poc.ProductID, q core.Quality) (*core.Response, error) {
	start := time.Now()
	resp, err := h.Responder.Query(ctx, taskID, id, q)
	h.s.hop.add(time.Since(start))
	if err == nil && resp.Proof != nil {
		switch {
		case resp.Claim == core.ClaimProcessed && resp.Proof.Kind == poc.Ownership:
			h.s.ownVerifies.Add(1)
		case q == core.Bad && resp.Claim == core.ClaimNotProcessed && resp.Proof.Kind == poc.NonOwnership:
			h.s.nonOwnVerifies.Add(1)
		}
	}
	return resp, err
}

func (h hopSeam) DemandOwnership(ctx context.Context, taskID string, id poc.ProductID) (*core.Response, error) {
	start := time.Now()
	resp, err := h.Responder.DemandOwnership(ctx, taskID, id)
	h.s.hop.add(time.Since(start))
	if err == nil && resp.Proof != nil && resp.Proof.Kind == poc.Ownership {
		h.s.ownVerifies.Add(1)
	}
	return resp, err
}
