package core

import (
	"context"
	"fmt"
	"sync"

	"desword/internal/poc"
	"desword/internal/rfid"
	"desword/internal/supplychain"
	"desword/internal/trace"
	"desword/internal/zkedb/store"
)

// Member is a DE-Sword participant runtime: a supply-chain participant plus
// its cryptographic state — one DPOC and next-hop table per distribution
// task. A Member answers queries honestly; the adversary package wraps it to
// implement the threat model.
type Member struct {
	ps     *poc.PublicParams
	part   *supplychain.Participant
	agg    poc.AggOptions
	stores StoreFactory

	mu    sync.RWMutex
	tasks map[string]*memberTask
}

// StoreFactory opens the node store backing one task's commitment tree.
// CommitTask calls it once per task; the returned store must be empty (a
// factory re-committing a task is expected to discard the task's previous
// store first).
type StoreFactory func(taskID string) (store.KV, error)

// memberTask is the per-distribution-task state a member keeps.
type memberTask struct {
	credential poc.POC
	dpoc       *poc.DPOC
	next       map[poc.ProductID]poc.ParticipantID
}

// MemberOption customizes a Member at construction time.
type MemberOption func(*Member)

// WithAggOptions sets the POC aggregation options every CommitTask uses:
// the commit worker-pool width and the proof-cache size. The zero value of
// poc.AggOptions (the default) selects a GOMAXPROCS-wide pool and a
// default-sized cache.
func WithAggOptions(opts poc.AggOptions) MemberOption {
	return func(m *Member) { m.agg = opts }
}

// WithTaskStores makes CommitTask back each task's commitment tree with a
// store from the factory instead of the default in-memory map — the
// file-backed path that keeps a trace database larger than RAM provable
// (DESIGN.md §13). nil restores the default.
func WithTaskStores(f StoreFactory) MemberOption {
	return func(m *Member) { m.stores = f }
}

// NewMember wraps a supply-chain participant with DE-Sword state.
func NewMember(ps *poc.PublicParams, part *supplychain.Participant, opts ...MemberOption) *Member {
	m := &Member{ps: ps, part: part, tasks: make(map[string]*memberTask)}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// ID returns the member's participant identity.
func (m *Member) ID() poc.ParticipantID { return m.part.ID() }

// Participant exposes the underlying supply-chain participant.
func (m *Member) Participant() *supplychain.Participant { return m.part }

// CommitTask aggregates the member's current trace database into a POC for
// the given task and stores the DPOC (distribution phase, §IV.B). The traces
// snapshot is taken at call time, so any dishonest database mutation must
// happen before this call — exactly the paper's threat window.
func (m *Member) CommitTask(taskID string) (poc.POC, error) {
	agg := m.agg
	if m.stores != nil {
		kv, err := m.stores(taskID)
		if err != nil {
			return poc.POC{}, fmt.Errorf("core: %s opening store for task %s: %w", m.part.ID(), taskID, err)
		}
		agg.Commit.Store = kv
	}
	credential, dpoc, err := poc.Agg(m.ps, m.part.ID(), m.part.Traces(), agg)
	if err != nil {
		if agg.Commit.Store != nil {
			agg.Commit.Store.Close()
		}
		return poc.POC{}, fmt.Errorf("core: %s committing task %s: %w", m.part.ID(), taskID, err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tasks[taskID] = &memberTask{
		credential: credential,
		dpoc:       dpoc,
		next:       make(map[poc.ProductID]poc.ParticipantID),
	}
	return credential, nil
}

// SetNextHop records which child received the product after this member in
// the given task — the knowledge a real participant has from its own
// shipping manifests.
func (m *Member) SetNextHop(taskID string, id poc.ProductID, next poc.ParticipantID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, ok := m.tasks[taskID]
	if !ok {
		return fmt.Errorf("%w: %s at %s", ErrNotCommitted, taskID, m.part.ID())
	}
	entry.next[id] = next
	return nil
}

// POC returns the member's credential for a task.
func (m *Member) POC(taskID string) (poc.POC, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	entry, ok := m.tasks[taskID]
	if !ok {
		return poc.POC{}, fmt.Errorf("%w: %s at %s", ErrNotCommitted, taskID, m.part.ID())
	}
	return entry.credential, nil
}

func (m *Member) task(taskID string) (*memberTask, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	entry, ok := m.tasks[taskID]
	if !ok {
		return nil, fmt.Errorf("%w: %s at %s", ErrNotCommitted, taskID, m.part.ID())
	}
	return entry, nil
}

// Query implements Responder honestly: it proves ownership when it holds a
// committed trace for the product and non-ownership when it does not, and
// names the recorded next hop.
func (m *Member) Query(ctx context.Context, taskID string, id poc.ProductID, quality Quality) (*Response, error) {
	ctx, span := trace.Default.StartChild(ctx, "member.query",
		trace.String("participant", string(m.part.ID())))
	defer span.End()
	entry, err := m.task(taskID)
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	proof, err := entry.dpoc.Prove(ctx, id)
	if err != nil {
		span.SetError(err)
		return nil, fmt.Errorf("core: %s proving %s: %w", m.part.ID(), id, err)
	}
	resp := &Response{Proof: proof}
	if proof.Kind == poc.Ownership {
		resp.Claim = ClaimProcessed
		m.mu.RLock()
		resp.Next = entry.next[id]
		m.mu.RUnlock()
	} else {
		resp.Claim = ClaimNotProcessed
	}
	return resp, nil
}

// DemandOwnership implements Responder honestly.
func (m *Member) DemandOwnership(ctx context.Context, taskID string, id poc.ProductID) (*Response, error) {
	ctx, span := trace.Default.StartChild(ctx, "member.demand_ownership",
		trace.String("participant", string(m.part.ID())))
	defer span.End()
	entry, err := m.task(taskID)
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	proof, err := entry.dpoc.Prove(ctx, id)
	if err != nil {
		span.SetError(err)
		return nil, fmt.Errorf("core: %s proving %s: %w", m.part.ID(), id, err)
	}
	if proof.Kind != poc.Ownership {
		// An honest member that holds no trace answers truthfully.
		return &Response{Claim: ClaimNotProcessed, Proof: proof}, nil
	}
	m.mu.RLock()
	next := entry.next[id]
	m.mu.RUnlock()
	return &Response{Claim: ClaimProcessed, Proof: proof, Next: next}, nil
}

var _ Responder = (*Member)(nil)

// DistributionResult bundles everything the distribution phase produces.
type DistributionResult struct {
	// TaskID names the distribution task.
	TaskID string
	// List is the POC list the initial participant submits to the proxy.
	List *poc.List
	// Ground is the ground-truth task outcome, used by tests and experiments
	// (the deployed system has no global observer).
	Ground *supplychain.TaskResult
}

// RunDistribution executes a full honest distribution phase: the products
// flow through the supply chain (each participant processing and recording
// traces), then every involved member commits its POC and the POC list is
// assembled (§IV.B).
func RunDistribution(
	ps *poc.PublicParams,
	g *supplychain.Graph,
	members map[poc.ParticipantID]*Member,
	initial poc.ParticipantID,
	tags []*rfid.Tag,
	data supplychain.TraceData,
	split supplychain.Splitter,
	taskID string,
) (*DistributionResult, error) {
	parts := make(map[supplychain.ParticipantID]*supplychain.Participant, len(members))
	for id, m := range members {
		parts[id] = m.Participant()
	}
	ground, err := supplychain.RunTask(g, parts, initial, tags, data, split)
	if err != nil {
		return nil, fmt.Errorf("core: distribution task %s: %w", taskID, err)
	}
	list, err := BuildPOCList(members, ground, taskID)
	if err != nil {
		return nil, err
	}
	return &DistributionResult{TaskID: taskID, List: list, Ground: ground}, nil
}

// BuildPOCList runs the commitment half of the distribution phase for an
// already-executed task: each involved member aggregates its traces into a
// POC, records its per-product next hops, and the POC pairs are assembled
// into the list the initial participant submits. It is split from
// RunDistribution so adversaries can mutate trace databases in between —
// the deletion/addition/modification window of §III.A.
func BuildPOCList(
	members map[poc.ParticipantID]*Member,
	ground *supplychain.TaskResult,
	taskID string,
) (*poc.List, error) {
	list := poc.NewList()
	for _, v := range ground.Involved {
		m, ok := members[v]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoResponder, v)
		}
		credential, err := m.CommitTask(taskID)
		if err != nil {
			return nil, err
		}
		if err := list.AddPOC(credential); err != nil {
			return nil, err
		}
	}
	for _, e := range ground.UsedEdges {
		list.AddPair(e.From, e.To)
	}
	for id, path := range ground.Paths {
		for i := 0; i+1 < len(path); i++ {
			if err := members[path[i]].SetNextHop(taskID, id, path[i+1]); err != nil {
				return nil, err
			}
		}
	}
	if err := list.Validate(); err != nil {
		return nil, fmt.Errorf("core: assembling POC list for %s: %w", taskID, err)
	}
	return list, nil
}
