package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/reputation"
	"desword/internal/trace"
)

// Proxy is DE-Sword's trustworthy query proxy (e.g. the FDA): it generates
// the public parameter, stores submitted POC lists, maintains one POC-queue
// per initial participant (§IV.D), answers product path information queries,
// and maintains the public reputation ledger.
//
// Concurrent queries for the same product coalesce onto one walk, and an
// optional admission gate sheds excess load at the front door instead of
// queueing it into timeouts.
type Proxy struct {
	cfg      ProxyConfig
	ps       *poc.PublicParams
	strategy reputation.Strategy
	resolve  Resolver
	events   *events.Sink
	gate     *Gate

	mu     sync.RWMutex
	lists  map[string]*poc.List               // task id → POC list; guarded by mu
	queues map[poc.ParticipantID][]queueEntry // guarded by mu

	// Path-level single-flight table (flight.go). Entries live only while
	// the leader runs.
	fmu        sync.Mutex
	flights    map[flightKey]*pathFlight // guarded by fmu
	nCoalesced atomic.Uint64

	ledger *reputation.Ledger
	// memo remembers proofs that already passed POC-Verify.
	memo *poc.VerifyMemo

	counters statsCounter
}

// verifyMemoKeys bounds the proxy's verified-proof memo. A key costs about
// 310 bytes resident, so a full memo holds about 1.2 MiB (DESIGN §10).
const verifyMemoKeys = 4096

// DefaultProbeFanout bounds how many children are probed concurrently when a
// walk loses the named next hop.
const DefaultProbeFanout = 4

// queueEntry is one element of an initial participant's POC-queue: the pair
// (ps, POC_v̄) of §IV.D, tagged with the task whose list contains it.
type queueEntry struct {
	taskID     string
	credential poc.POC
}

// NewProxyWithConfig creates a proxy from one options struct. The resolver
// supplies reachable endpoints for participants; the strategy configures the
// double-edged award. The zero ProxyConfig gives an ungated proxy.
func NewProxyWithConfig(ps *poc.PublicParams, strategy reputation.Strategy, resolve Resolver, cfg ProxyConfig) *Proxy {
	resolved := cfg.withDefaults()
	px := &Proxy{
		cfg:      resolved,
		ps:       ps,
		strategy: strategy,
		resolve:  resolve,
		events:   resolved.EventSink,
		lists:    make(map[string]*poc.List),
		queues:   make(map[poc.ParticipantID][]queueEntry),
		flights:  make(map[flightKey]*pathFlight),
		ledger:   reputation.NewLedger(),
		memo:     poc.NewVerifyMemo(ps, verifyMemoKeys),
	}
	if resolved.gated() {
		px.gate = NewGate("proxy", resolved.AdmissionWorkers, resolved.AdmissionQueue)
	}
	return px
}

// PublicParams returns the public parameter ps that participants use to
// build POCs.
func (px *Proxy) PublicParams() *poc.PublicParams { return px.ps }

// Ledger returns the proxy's public reputation ledger.
func (px *Proxy) Ledger() *reputation.Ledger { return px.ledger }

// Scores returns the public reputation table.
func (px *Proxy) Scores() map[poc.ParticipantID]float64 { return px.ledger.Scores() }

// AuditShards returns the ledger's tamper-evident score history alongside
// its pinned head as a one-element slice, the shape the benchmark module
// verifies with reputation.VerifyShardChains.
func (px *Proxy) AuditShards() []reputation.ShardChain {
	head, count := px.ledger.Head()
	return []reputation.ShardChain{{Entries: px.ledger.AuditLog(), Head: head, Count: count}}
}

// RegisterList stores a POC list submitted by an initial participant at the
// end of a distribution task, and inserts (ps, POC_v̄) into the POC-queue of
// each of the list's initial participants (§IV.D).
func (px *Proxy) RegisterList(taskID string, list *poc.List) error {
	if err := list.Validate(); err != nil {
		return fmt.Errorf("core: rejecting POC list for %s: %w", taskID, err)
	}
	// Resolve the initials' credentials before taking the lock, so a bad
	// list cannot leave the queues half-updated.
	initials := list.Initials()
	credentials := make([]poc.POC, len(initials))
	for i, initial := range initials {
		credential, err := list.POC(initial)
		if err != nil {
			return err
		}
		credentials[i] = credential
	}
	px.mu.Lock()
	if _, dup := px.lists[taskID]; dup {
		px.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrAlreadyRegistered, taskID)
	}
	px.lists[taskID] = list
	for i, initial := range initials {
		px.queues[initial] = append(px.queues[initial], queueEntry{taskID: taskID, credential: credentials[i]})
	}
	px.mu.Unlock()
	px.counters.addTask()
	mTasksRegistered.Inc()
	return nil
}

// Tasks returns the registered task ids, sorted.
func (px *Proxy) Tasks() []string {
	px.mu.RLock()
	defer px.mu.RUnlock()
	out := make([]string, 0, len(px.lists))
	for id := range px.lists {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// QueryPath runs a full product path information query (§IV.C/§IV.D): it
// locates the distribution task through the POC-queues of the initial
// participants, walks the path hop by hop verifying proofs against the POC
// list, detects the dishonest behaviours of §III.B, and applies the
// double-edged reputation award to the identified path.
//
// QueryPath is the batch=1 case of the proxy's one query path: admission at
// the front door, single-flight coalescing with concurrent queries for the
// same product, then the walk. Shed queries return an error wrapping
// ErrLoadShed; a query whose context is cancelled mid-walk returns
// context.Canceled and settles nothing.
func (px *Proxy) QueryPath(ctx context.Context, id poc.ProductID, quality Quality) (*Result, error) {
	if quality != Good && quality != Bad {
		return nil, fmt.Errorf("core: invalid quality %v", quality)
	}
	item := px.queryItem(ctx, id, quality)
	return item.Result, item.Err
}

// queryItem is the shared single-product path both QueryPath and
// QueryPathBatch drive: admission gate, coalescing, walk.
func (px *Proxy) queryItem(ctx context.Context, id poc.ProductID, quality Quality) BatchItem {
	item := BatchItem{Product: id}
	release, err := px.gate.Acquire(ctx)
	if err != nil {
		item.Err = err
		item.Shed = true
		px.emitShedEvent(id, quality, err)
		return item
	}
	defer release()
	item.Result, item.Err = px.queryCoalesced(ctx, flightKey{product: id, quality: quality}, func() (*Result, error) {
		return px.runQuery(ctx, id, quality)
	})
	return item
}

// emitShedEvent records a load-shed query in the flight recorder: the query
// never ran, but overload must be visible in the same stream as the work it
// displaced.
func (px *Proxy) emitShedEvent(id poc.ProductID, quality Quality, err error) {
	ev := events.New(events.KindQuery, time.Now())
	ev.Product = string(id)
	ev.Quality = quality.String()
	ev.Outcome = events.OutcomeLoadShed
	ev.Error = err.Error()
	px.events.Emit(ev)
}

// runQuery performs one walk. It is always entered through the
// single-flight table, so at most one walk per (product, quality) runs at a
// time.
//
// A walk whose context was cancelled (the caller went away, or the server
// is closing) returns context.Canceled and settles nothing: its failed hops
// say nothing about the participants, and the followers of the flight retry
// as leader. It still emits a wide event with outcome error, so the journal
// accounts for every query.
func (px *Proxy) runQuery(ctx context.Context, id poc.ProductID, quality Quality) (*Result, error) {
	ctx, span := trace.Default.Start(ctx, "proxy.query_path",
		trace.String("product", string(id)), trace.String("quality", quality.String()))
	defer span.End()
	qStart := time.Now()
	// Sampled queries stamp their trace id on the latency observation, so
	// the slowest path walks are one click from their traces on statusz.
	defer func() {
		queryLatency(quality).ObserveWithExemplar(time.Since(qStart).Seconds(), span.TraceID())
	}()
	px.counters.addQuery(quality)
	countQuery(quality)
	result := &Result{
		Product: id,
		Quality: quality,
		Traces:  make(map[poc.ParticipantID]poc.Trace),
		TraceID: span.TraceID(),
	}
	// The query's scope rides the context into every hop: proof-cache and
	// pool-transport instrumentation attribute their counters to THIS query,
	// and finishEvent copies them onto the wide event. Innermost scope wins,
	// so a node-server scope further out never swallows them.
	scope := events.NewScope()
	ctx = events.WithScope(ctx, scope)

	// An empty start means no initial participant admits processing the
	// product in any task.
	if start, entry, firstNext := px.findStart(ctx, id, quality, result); start != "" {
		result.TaskID = entry.taskID
		px.mu.RLock()
		list := px.lists[entry.taskID]
		px.mu.RUnlock()
		px.walk(ctx, list, entry.taskID, start, firstNext, id, quality, result)
		span.SetAttr(trace.String("task", entry.taskID), trace.Bool("complete", result.Complete))
	}
	span.SetAttr(trace.Int("hops", len(result.Path)), trace.Int("violations", len(result.Violations)))
	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		span.SetError(err)
		px.finishEvent(result, scope, qStart, err)
		return nil, err
	}
	px.settle(result)
	px.finishEvent(result, scope, qStart, nil)
	return result, nil
}

// finishEvent assembles the query's canonical wide event from everything the
// walk accumulated and emits it into the flight recorder when a sink is
// configured. The event is attached to the result either way, so local and
// remote queriers (desword-query -json) see the same record the proxy kept.
// A non-nil err marks a walk that ended without settling.
func (px *Proxy) finishEvent(result *Result, scope *events.Scope, start time.Time, err error) {
	ev := events.New(events.KindQuery, start)
	ev.DurationUS = time.Since(start).Microseconds()
	ev.TraceID = result.TraceID
	ev.Product = string(result.Product)
	ev.Quality = result.Quality.String()
	ev.TaskID = result.TaskID
	ev.PathLen = len(result.Path)
	ev.Complete = result.Complete
	switch {
	case err != nil:
		ev.Outcome = events.OutcomeError
		ev.Error = err.Error()
	case result.TaskID == "":
		ev.Outcome = events.OutcomeNoOrigin
	case result.Complete:
		ev.Outcome = events.OutcomeComplete
	default:
		ev.Outcome = events.OutcomeIncomplete
	}
	for _, h := range result.hops {
		ev.AddHop(h)
	}
	for _, v := range result.Violations {
		ev.Violations = append(ev.Violations, events.Violation{
			Participant: string(v.Participant),
			Type:        v.Type.String(),
			Detail:      v.Detail,
		})
	}
	ev.RepDeltas = result.repDeltas
	scope.Fill(ev)
	result.Event = ev
	px.events.Emit(ev)
}

// recordHop appends one committed query interaction to the result's hop list.
// It is called exactly where the interaction counters are updated — at commit
// time — so discarded speculative probes never appear (see probeChildren).
func recordHop(result *Result, v poc.ParticipantID, o identifyOutcome) {
	result.hops = append(result.hops, events.Hop{
		Participant: string(v),
		Identified:  o.identified,
		IdentifyUS:  o.timing.identifyUS,
		ProveUS:     o.timing.proveUS,
		VerifyUS:    o.timing.verifyUS,
		DemandUS:    o.timing.demandUS,
		Violations:  len(o.violations),
	})
}

// findStart probes each initial participant's POC-queue (§IV.D) and returns
// the first initial identified as having processed the product, along with
// the queue entry that anchored the identification.
func (px *Proxy) findStart(ctx context.Context, id poc.ProductID, quality Quality, result *Result) (poc.ParticipantID, queueEntry, poc.ParticipantID) {
	ctx, span := trace.Default.StartChild(ctx, "poc_queue.find_start")
	defer span.End()
	px.mu.RLock()
	initials := make([]poc.ParticipantID, 0, len(px.queues))
	for v := range px.queues {
		initials = append(initials, v)
	}
	sort.Slice(initials, func(i, j int) bool { return initials[i] < initials[j] })
	queues := make(map[poc.ParticipantID][]queueEntry, len(px.queues))
	for v, q := range px.queues {
		queues[v] = append([]queueEntry(nil), q...)
	}
	px.mu.RUnlock()

	for _, initial := range initials {
		for _, entry := range queues[initial] {
			outcome := px.identify(ctx, entry.taskID, entry.credential, initial, id, quality)
			px.counters.addInteraction(outcome.identified)
			recordHop(result, initial, outcome)
			result.Violations = append(result.Violations, outcome.violations...)
			if outcome.identified {
				if outcome.trace != nil {
					result.Traces[initial] = *outcome.trace
				}
				result.Path = append(result.Path, initial)
				return initial, entry, outcome.next
			}
		}
	}
	return "", queueEntry{}, ""
}

// hopTiming carries the proxy-side wall-clock breakdown of one query
// interaction, in microseconds: the whole interaction (identify), the query
// round trip (prove — dominated by the participant's proof generation), the
// proxy-side proof verifications (verify), and the ownership-demand round
// trip of the bad-product case (demand).
type hopTiming struct {
	identifyUS, proveUS, verifyUS, demandUS int64
}

// identifyOutcome is the result of one query interaction with a participant.
type identifyOutcome struct {
	identified bool
	trace      *poc.Trace
	next       poc.ParticipantID
	violations []Violation
	timing     hopTiming
}

// identify runs one query interaction (§IV.C step 1–2) with participant v
// under its POC for the given task. Proofs are verified through the proxy's
// verified-proof memo.
func (px *Proxy) identify(ctx context.Context, taskID string, credential poc.POC, v poc.ParticipantID, id poc.ProductID, quality Quality) (outcome identifyOutcome) {
	hopStart := time.Now()
	ctx, span := trace.Default.StartChild(ctx, "hop.identify",
		trace.String("participant", string(v)), trace.String("task", taskID))
	defer func() {
		outcome.timing.identifyUS = time.Since(hopStart).Microseconds()
		span.SetAttr(trace.Bool("identified", outcome.identified),
			trace.Int("violations", len(outcome.violations)))
		span.End()
	}()
	// Interaction counters are updated by the callers at commit time, not
	// here: speculative child probes whose outcome is discarded (see
	// probeChildren) must not show up in Stats.
	responder, err := px.resolve(v)
	if err != nil {
		span.SetError(err)
		return identifyOutcome{violations: []Violation{{
			Participant: v, Type: ViolationUnreachable,
			Detail: fmt.Sprintf("resolving endpoint: %v", err),
		}}}
	}
	queryStart := time.Now()
	resp, err := responder.Query(ctx, taskID, id, quality)
	proveUS := time.Since(queryStart).Microseconds()
	if err != nil || resp == nil {
		span.SetError(err)
		outcome = identifyOutcome{violations: []Violation{{
			Participant: v, Type: ViolationUnreachable,
			Detail: fmt.Sprintf("query failed: %v", err),
		}}}
		outcome.timing.proveUS = proveUS
		return outcome
	}

	switch quality {
	case Good:
		outcome = identifyGood(ctx, px.memo, credential, v, id, resp)
	default:
		outcome = identifyBad(ctx, px.memo, taskID, credential, v, id, resp, responder)
	}
	outcome.timing.proveUS = proveUS
	return outcome
}

// identifyGood implements the good-product interaction: only a valid
// ownership proof identifies v (§IV.C good case).
func identifyGood(ctx context.Context, memo *poc.VerifyMemo, credential poc.POC, v poc.ParticipantID, id poc.ProductID, resp *Response) identifyOutcome {
	if resp.Claim != ClaimProcessed {
		// Not identified; in the good case a participant renouncing its
		// positive score needs no proof.
		return identifyOutcome{}
	}
	if resp.Proof == nil || resp.Proof.Kind != poc.Ownership {
		return identifyOutcome{violations: []Violation{{
			Participant: v, Type: ViolationClaimProcessing,
			Detail: "claimed processing without an ownership proof",
		}}}
	}
	verifyStart := time.Now()
	tr, err := memo.Verify(ctx, credential, id, resp.Proof)
	verifyUS := time.Since(verifyStart).Microseconds()
	if err != nil {
		return identifyOutcome{
			violations: []Violation{{
				Participant: v, Type: ViolationClaimProcessing,
				Detail: fmt.Sprintf("ownership proof rejected: %v", err),
			}},
			timing: hopTiming{verifyUS: verifyUS},
		}
	}
	return identifyOutcome{identified: true, trace: tr, next: resp.Next,
		timing: hopTiming{verifyUS: verifyUS}}
}

// identifyBad implements the bad-product interaction: a valid non-ownership
// proof clears v; anything else identifies it, with an ownership demand to
// recover the trace (§IV.C bad case).
func identifyBad(ctx context.Context, memo *poc.VerifyMemo, taskID string, credential poc.POC, v poc.ParticipantID, id poc.ProductID, resp *Response, responder Responder) identifyOutcome {
	var t hopTiming
	// verify wraps the memoized POC-Verify, accumulating verification time
	// for the hop's wide-event breakdown (the bad case can verify up to two
	// proofs).
	verify := func(proof *poc.Proof) (*poc.Trace, error) {
		verifyStart := time.Now()
		tr, err := memo.Verify(ctx, credential, id, proof)
		t.verifyUS += time.Since(verifyStart).Microseconds()
		return tr, err
	}
	if resp.Claim == ClaimNotProcessed {
		if resp.Proof != nil && resp.Proof.Kind == poc.NonOwnership {
			if _, err := verify(resp.Proof); err == nil {
				return identifyOutcome{timing: t} // cleared
			}
		}
		// The non-ownership claim did not hold up: demand an ownership proof.
		demandStart := time.Now()
		demand, err := responder.DemandOwnership(ctx, taskID, id)
		t.demandUS = time.Since(demandStart).Microseconds()
		if err == nil && demand != nil && demand.Proof != nil && demand.Proof.Kind == poc.Ownership {
			if tr, verr := verify(demand.Proof); verr == nil {
				return identifyOutcome{
					identified: true,
					trace:      tr,
					next:       demand.Next,
					violations: []Violation{{
						Participant: v, Type: ViolationClaimNonProcessing,
						Detail: "claimed non-processing but holds a committed trace",
					}},
					timing: t,
				}
			}
		}
		// Neither proof verified: impossible for an honest holder of a
		// correct POC. Identify v as dishonest without a trace.
		return identifyOutcome{
			identified: true,
			violations: []Violation{{
				Participant: v, Type: ViolationNoValidProof,
				Detail: "produced neither a valid ownership nor non-ownership proof",
			}},
			timing: t,
		}
	}
	// Claims processing in the bad case: verify the ownership proof.
	if resp.Proof != nil && resp.Proof.Kind == poc.Ownership {
		if tr, err := verify(resp.Proof); err == nil {
			return identifyOutcome{identified: true, trace: tr, next: resp.Next, timing: t}
		}
	}
	return identifyOutcome{
		identified: true,
		violations: []Violation{{
			Participant: v, Type: ViolationNoValidProof,
			Detail: "claimed processing with an invalid ownership proof",
		}},
		timing: t,
	}
}

// walk continues the query from the identified start down the POC list,
// hop by hop (§IV.C step 3), with the next-hop checks of §III.B.
func (px *Proxy) walk(ctx context.Context, list *poc.List, taskID string, start, firstNext poc.ParticipantID, id poc.ProductID, quality Quality, result *Result) {
	visited := map[poc.ParticipantID]bool{start: true}
	cur := start
	next := firstNext
	for {
		if next == "" {
			// No next hop named. If the POC list records children, the
			// product may still have moved on — probe them.
			child, childNext := px.probeChildren(ctx, list, taskID, cur, id, quality, visited, result)
			if child == "" {
				result.Complete = len(list.Children(cur)) == 0
				return
			}
			result.Violations = append(result.Violations, Violation{
				Participant: cur, Type: ViolationWrongNextHop,
				Detail: fmt.Sprintf("omitted next hop; %s identified among children", child),
			})
			cur = child
			next = childNext
			continue
		}
		if !list.HasPair(cur, next) {
			// §III.B "wrong participant", case 2: the named next is not a
			// recorded child of cur.
			result.Violations = append(result.Violations, Violation{
				Participant: cur, Type: ViolationWrongNextHop,
				Detail: fmt.Sprintf("named %s, which is not a recorded child", next),
			})
			next = ""
			continue
		}
		if visited[next] {
			result.Violations = append(result.Violations, Violation{
				Participant: cur, Type: ViolationWrongNextHop,
				Detail: fmt.Sprintf("named already-visited %s", next),
			})
			next = ""
			continue
		}
		credential, err := list.POC(next)
		if err != nil {
			result.Violations = append(result.Violations, Violation{
				Participant: cur, Type: ViolationWrongNextHop,
				Detail: fmt.Sprintf("named %s, which holds no POC", next),
			})
			next = ""
			continue
		}
		visited[next] = true
		outcome := px.identify(ctx, taskID, credential, next, id, quality)
		px.counters.addInteraction(outcome.identified)
		recordHop(result, next, outcome)
		result.Violations = append(result.Violations, outcome.violations...)
		if !outcome.identified {
			// §III.B "wrong participant", case 1: the named next provably
			// did not process the product.
			result.Violations = append(result.Violations, Violation{
				Participant: cur, Type: ViolationWrongNextHop,
				Detail: fmt.Sprintf("named %s, which did not process the product", next),
			})
			next = ""
			continue
		}
		result.Path = append(result.Path, next)
		if outcome.trace != nil {
			result.Traces[next] = *outcome.trace
		}
		cur = next
		next = outcome.next
	}
}

// probeChildren asks each recorded child of cur (not yet visited) whether it
// processed the product, returning the first identified child and that
// child's claimed next hop.
//
// Probes run speculatively with a bounded fan-out (ProxyConfig.ProbeFanout),
// but the outcome is committed strictly in list order, so the result is
// identical to the serial walk at any fan-out: the first identified child in
// list order wins; violations land in stable order; probes launched past the
// winner are cancelled and their outcomes discarded entirely — not marked
// visited, not counted, not recorded — exactly as if they had never been
// interrogated. Speculation is safe because the probe interaction is
// read-only on the participant side (query and, in the bad case, the
// ownership demand both answer from the committed DPOC).
func (px *Proxy) probeChildren(ctx context.Context, list *poc.List, taskID string, cur poc.ParticipantID, id poc.ProductID, quality Quality, visited map[poc.ParticipantID]bool, result *Result) (poc.ParticipantID, poc.ParticipantID) {
	type candidate struct {
		child      poc.ParticipantID
		credential poc.POC
	}
	var cands []candidate
	for _, child := range list.Children(cur) {
		if visited[child] {
			continue
		}
		credential, err := list.POC(child)
		if err != nil {
			continue
		}
		cands = append(cands, candidate{child: child, credential: credential})
	}

	commit := func(c candidate, outcome identifyOutcome) (poc.ParticipantID, poc.ParticipantID, bool) {
		visited[c.child] = true
		px.counters.addInteraction(outcome.identified)
		recordHop(result, c.child, outcome)
		result.Violations = append(result.Violations, outcome.violations...)
		if !outcome.identified {
			return "", "", false
		}
		result.Path = append(result.Path, c.child)
		if outcome.trace != nil {
			result.Traces[c.child] = *outcome.trace
		}
		return c.child, outcome.next, true
	}

	if px.cfg.ProbeFanout <= 1 || len(cands) <= 1 {
		for _, c := range cands {
			outcome := px.identify(ctx, taskID, c.credential, c.child, id, quality)
			if child, next, ok := commit(c, outcome); ok {
				return child, next
			}
		}
		return "", ""
	}

	probeCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, px.cfg.ProbeFanout)
	outcomes := make([]chan identifyOutcome, len(cands))
	for i := range cands {
		outcomes[i] = make(chan identifyOutcome, 1)
		go func(i int) {
			sem <- struct{}{}
			defer func() { <-sem }()
			outcomes[i] <- px.identify(probeCtx, taskID, cands[i].credential, cands[i].child, id, quality)
		}(i)
	}
	for i, c := range cands {
		outcome := <-outcomes[i]
		if child, next, ok := commit(c, outcome); ok {
			// Later probes are cancelled and never read: their outcomes are
			// discarded, matching the serial walk, which would not have
			// interrogated them.
			return child, next
		}
	}
	return "", ""
}

// settle applies the double-edged award to the identified path and penalizes
// every detected violation (§II.C). It records the net score change of every
// affected participant on the result, so the query's wide event carries the
// reputation consequences alongside the detection that caused them.
func (px *Proxy) settle(result *Result) {
	px.counters.addViolations(result.Violations)
	countOutcome(result)
	affected := make(map[poc.ParticipantID]float64, len(result.Path)+len(result.Violations))
	for _, v := range result.Path {
		affected[v] = px.ledger.Score(v)
	}
	for _, vio := range result.Violations {
		if _, ok := affected[vio.Participant]; !ok {
			affected[vio.Participant] = px.ledger.Score(vio.Participant)
		}
	}
	px.strategy.AwardPath(px.ledger, result.Product, result.Quality, result.Path)
	for _, v := range result.Violations {
		px.strategy.PenalizeViolation(px.ledger, v.Participant, result.Product, result.Quality, v.Detail)
	}
	for v, before := range affected {
		if delta := px.ledger.Score(v) - before; delta != 0 {
			if result.repDeltas == nil {
				result.repDeltas = make(map[string]float64, len(affected))
			}
			result.repDeltas[string(v)] = delta
		}
	}
}
