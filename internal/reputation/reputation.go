// Package reputation implements DE-Sword's double-edged reputation award
// strategy (§II.C, Figure 2): after a product path information query, the
// trusted proxy assigns positive reputation scores to the identified
// participants when the queried product is good, and negative scores when it
// is bad. Scores are public — customers read them — which is what makes the
// incentive bind.
//
// The package provides the score ledger, configurable award strategies
// (including the paper's "diverse positive/negative reputation scores based
// on the responsibilities of the identified participants"), and violation
// penalties for participants caught cheating during a query.
package reputation

import (
	"fmt"
	"sort"
	"sync"

	"desword/internal/obs"
	"desword/internal/supplychain"
)

// Award counters by sign: every ledger adjustment — path awards and
// violation penalties alike — lands in exactly one of these, so an operator
// can watch the double edge cut in real time.
var (
	mAwardsPositive = obs.Default.Counter("desword_reputation_awards_total",
		"Reputation ledger adjustments by sign.", "sign", "positive")
	mAwardsNegative = obs.Default.Counter("desword_reputation_awards_total",
		"Reputation ledger adjustments by sign.", "sign", "negative")
)

// Quality classifies a queried product. Products are usually good and
// occasionally bad — the unpredictability that powers the double edge.
type Quality int

// Quality values start at 1 so the zero value is invalid.
const (
	Good Quality = iota + 1
	Bad
)

// String implements fmt.Stringer.
func (q Quality) String() string {
	switch q {
	case Good:
		return "good"
	case Bad:
		return "bad"
	default:
		return fmt.Sprintf("Quality(%d)", int(q))
	}
}

// Event records one reputation adjustment, for public audit.
type Event struct {
	Participant supplychain.ParticipantID `json:"participant"`
	Product     supplychain.ProductID     `json:"product"`
	Quality     Quality                   `json:"quality"`
	Delta       float64                   `json:"delta"`
	Reason      string                    `json:"reason"`
}

// Ledger holds publicly accessible reputation scores. Safe for concurrent
// use.
//
// The audit history grows with every award, so it is kept compact: one
// 24-byte record per event, its strings interned, its seq implied by its
// position and its digest recomputed on demand (AuditLog). Only the running
// head digest is stored.
type Ledger struct {
	mu      sync.RWMutex
	scores  map[supplychain.ParticipantID]float64 // guarded by mu
	records []record                              // guarded by mu
	ids     interner[string]                      // participant and product ids; guarded by mu
	labels  interner[label]                       // guarded by mu
	head    [32]byte                              // digest of the last record; guarded by mu
}

// record is one audited event: participant and product index ids, label
// indexes labels.
type record struct {
	participant, product, label uint32
	delta                       float64
}

// label is an event's reason and quality, interned together: a ledger sees
// a handful of distinct pairs, however many events it records.
type label struct {
	reason  string
	quality Quality
}

// interner maps each distinct value to a dense index. Values are only
// appended, so a copy of vals taken under the ledger's lock stays valid
// after it is released.
type interner[T comparable] struct {
	index map[T]uint32
	vals  []T
}

func (t *interner[T]) id(v T) uint32 {
	if i, ok := t.index[v]; ok {
		return i
	}
	if t.index == nil {
		t.index = make(map[T]uint32)
	}
	i := uint32(len(t.vals))
	t.index[v] = i
	t.vals = append(t.vals, v)
	return i
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{scores: make(map[supplychain.ParticipantID]float64)}
}

// Adjust applies a score delta, records the audit event, and extends the
// tamper-evident hash chain.
func (l *Ledger) Adjust(e Event) {
	switch {
	case e.Delta > 0:
		mAwardsPositive.Inc()
	case e.Delta < 0:
		mAwardsNegative.Inc()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.scores[e.Participant] += e.Delta
	l.head = chainDigest(l.head, uint64(len(l.records)), e)
	l.records = append(l.records, record{
		participant: l.ids.id(string(e.Participant)),
		product:     l.ids.id(string(e.Product)),
		label:       l.labels.id(label{reason: e.Reason, quality: e.Quality}),
		delta:       e.Delta,
	})
}

// Score returns a participant's current reputation score.
func (l *Ledger) Score(v supplychain.ParticipantID) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.scores[v]
}

// Scores returns a copy of all scores.
func (l *Ledger) Scores() map[supplychain.ParticipantID]float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[supplychain.ParticipantID]float64, len(l.scores))
	for k, v := range l.scores {
		out[k] = v
	}
	return out
}

// Ranking returns participants ordered by descending score (ties broken by
// id), the view a customer would consult.
func (l *Ledger) Ranking() []supplychain.ParticipantID {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]supplychain.ParticipantID, 0, len(l.scores))
	for v := range l.scores {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := l.scores[out[i]], l.scores[out[j]]
		if si != sj {
			return si > sj
		}
		return out[i] < out[j]
	})
	return out
}

// Weigher scales the award for the participant at position pos (0-based) of
// an identified path of length n, modelling "diverse reputation scores based
// on the responsibilities of the identified participants".
type Weigher func(pos, n int) float64

// UniformWeigher treats every participant on the path equally.
func UniformWeigher(pos, n int) float64 { return 1 }

// ResponsibilityWeigher weights upstream participants more heavily: the
// earlier a participant processed a bad product, the more of the path it
// contaminated (and symmetrically, the more of a good product's quality it
// established). Weights fall linearly from 1 at the head to 1/n at the tail.
func ResponsibilityWeigher(pos, n int) float64 {
	if n <= 0 {
		return 1
	}
	return float64(n-pos) / float64(n)
}

// Strategy is the proxy's double-edged award policy.
type Strategy struct {
	// PositiveUnit is the base score for each identified participant of a
	// good product's path.
	PositiveUnit float64
	// NegativeUnit is the base (positive-valued) penalty for each identified
	// participant of a bad product's path.
	NegativeUnit float64
	// ViolationPenalty is the extra penalty for a participant caught
	// cheating during the query itself.
	ViolationPenalty float64
	// Weigh scales awards by path responsibility; nil means uniform.
	Weigh Weigher
}

// DefaultStrategy mirrors the paper's symmetric double edge with a stiff
// penalty for detected protocol violations.
func DefaultStrategy() Strategy {
	return Strategy{PositiveUnit: 1, NegativeUnit: 1, ViolationPenalty: 5, Weigh: UniformWeigher}
}

// AwardPath applies the double-edged award to an identified path: positive
// scores for a good product, negative scores for a bad one (Figure 2). It
// returns the events it applied, in path order.
func (s Strategy) AwardPath(l *Ledger, id supplychain.ProductID, q Quality, path []supplychain.ParticipantID) []Event {
	weigh := s.Weigh
	if weigh == nil {
		weigh = UniformWeigher
	}
	var applied []Event
	for pos, v := range path {
		w := weigh(pos, len(path))
		var e Event
		switch q {
		case Good:
			e = Event{Participant: v, Product: id, Quality: q,
				Delta: s.PositiveUnit * w, Reason: "identified on good product path"}
		case Bad:
			e = Event{Participant: v, Product: id, Quality: q,
				Delta: -s.NegativeUnit * w, Reason: "identified on bad product path"}
		default:
			continue
		}
		l.Adjust(e)
		applied = append(applied, e)
	}
	return applied
}

// PenalizeViolation applies the extra penalty for a participant whose
// dishonest behaviour was cryptographically detected during a query, and
// returns the event it applied.
func (s Strategy) PenalizeViolation(l *Ledger, v supplychain.ParticipantID, id supplychain.ProductID, q Quality, reason string) Event {
	e := Event{Participant: v, Product: id, Quality: q,
		Delta: -s.ViolationPenalty, Reason: "violation: " + reason}
	l.Adjust(e)
	return e
}
