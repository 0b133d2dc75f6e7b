package reputation

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"desword/internal/supplychain"
)

func TestLedgerAdjustAndScore(t *testing.T) {
	l := NewLedger()
	l.Adjust(Event{Participant: "v1", Delta: 2})
	l.Adjust(Event{Participant: "v1", Delta: -0.5})
	l.Adjust(Event{Participant: "v2", Delta: 1})
	if got := l.Score("v1"); got != 1.5 {
		t.Fatalf("Score(v1) = %v", got)
	}
	if got := l.Score("unknown"); got != 0 {
		t.Fatalf("unknown participant must score 0, got %v", got)
	}
	if got := len(l.AuditLog()); got != 3 {
		t.Fatalf("AuditLog() = %d entries", got)
	}
}

func TestLedgerScoresCopy(t *testing.T) {
	l := NewLedger()
	l.Adjust(Event{Participant: "v1", Delta: 1})
	scores := l.Scores()
	scores["v1"] = 99
	if l.Score("v1") != 1 {
		t.Fatal("Scores() must return a copy")
	}
}

func TestLedgerRanking(t *testing.T) {
	l := NewLedger()
	l.Adjust(Event{Participant: "low", Delta: -1})
	l.Adjust(Event{Participant: "high", Delta: 3})
	l.Adjust(Event{Participant: "mid", Delta: 1})
	l.Adjust(Event{Participant: "mid2", Delta: 1})
	rank := l.Ranking()
	if rank[0] != "high" || rank[len(rank)-1] != "low" {
		t.Fatalf("Ranking() = %v", rank)
	}
	// Ties broken by id.
	if rank[1] != "mid" || rank[2] != "mid2" {
		t.Fatalf("tie break wrong: %v", rank)
	}
}

func TestLedgerConcurrentAdjust(t *testing.T) {
	l := NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Adjust(Event{Participant: "v", Delta: 1})
			}
		}()
	}
	wg.Wait()
	if got := l.Score("v"); got != 1600 {
		t.Fatalf("Score(v) = %v, want 1600", got)
	}
}

func TestAwardPathDoubleEdge(t *testing.T) {
	s := DefaultStrategy()
	path := []supplychain.ParticipantID{"a", "b", "c"}

	good := NewLedger()
	s.AwardPath(good, "id1", Good, path)
	for _, v := range path {
		if good.Score(v) <= 0 {
			t.Fatalf("good product must award positive score to %s", v)
		}
	}

	bad := NewLedger()
	s.AwardPath(bad, "id1", Bad, path)
	for _, v := range path {
		if bad.Score(v) >= 0 {
			t.Fatalf("bad product must award negative score to %s", v)
		}
	}
}

func TestAwardPathUnknownQualityNoop(t *testing.T) {
	s := DefaultStrategy()
	l := NewLedger()
	applied := s.AwardPath(l, "id1", Quality(0), []supplychain.ParticipantID{"a"})
	if len(l.AuditLog()) != 0 || len(applied) != 0 {
		t.Fatal("unknown quality must not award")
	}
}

func TestResponsibilityWeigher(t *testing.T) {
	n := 4
	prev := math.Inf(1)
	for pos := 0; pos < n; pos++ {
		w := ResponsibilityWeigher(pos, n)
		if w <= 0 || w > 1 {
			t.Fatalf("weight at pos %d out of range: %v", pos, w)
		}
		if w >= prev {
			t.Fatalf("weights must strictly decrease along the path")
		}
		prev = w
	}
	if ResponsibilityWeigher(0, 0) != 1 {
		t.Fatal("degenerate path must weigh 1")
	}
	if UniformWeigher(3, 9) != 1 {
		t.Fatal("uniform weigher must always return 1")
	}
}

func TestAwardPathWithResponsibilityWeights(t *testing.T) {
	s := Strategy{NegativeUnit: 2, Weigh: ResponsibilityWeigher}
	l := NewLedger()
	path := []supplychain.ParticipantID{"head", "mid", "tail"}
	applied := s.AwardPath(l, "id1", Bad, path)
	if !(l.Score("head") < l.Score("mid") && l.Score("mid") < l.Score("tail")) {
		t.Fatalf("upstream participants must be penalized more: head=%v mid=%v tail=%v",
			l.Score("head"), l.Score("mid"), l.Score("tail"))
	}
	// The returned events are exactly the ledger's, in path order.
	log := l.AuditLog()
	if len(applied) != len(log) {
		t.Fatalf("AwardPath returned %d events, ledger holds %d", len(applied), len(log))
	}
	for i, e := range applied {
		if e != log[i].Event {
			t.Fatalf("event %d: returned %+v, ledger %+v", i, e, log[i].Event)
		}
	}
}

func TestPenalizeViolation(t *testing.T) {
	s := DefaultStrategy()
	l := NewLedger()
	e := s.PenalizeViolation(l, "cheater", "id1", Bad, "claim non-processing")
	if got := l.Score("cheater"); got != -s.ViolationPenalty {
		t.Fatalf("Score(cheater) = %v", got)
	}
	log := l.AuditLog()
	if len(log) != 1 || log[0].Event.Reason == "" {
		t.Fatal("violation must be recorded with a reason")
	}
	if e != log[0].Event {
		t.Fatalf("PenalizeViolation returned %+v, ledger holds %+v", e, log[0].Event)
	}
}

func TestQualityString(t *testing.T) {
	if Good.String() != "good" || Bad.String() != "bad" {
		t.Fatal("quality strings wrong")
	}
	if Quality(7).String() == "" {
		t.Fatal("unknown quality must render non-empty")
	}
}

// TestLedgerRecordFootprint pins the audit history's compact form: 100 000
// awards over a realistic set of participants and products hold at most 40
// bytes each, interned strings and slice headroom included.
func TestLedgerRecordFootprint(t *testing.T) {
	const awards, products = 100_000, 500
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	path := []supplychain.ParticipantID{"p0", "p1", "p2", "p3"}
	ids := make([]supplychain.ProductID, products)
	for i := range ids {
		ids[i] = supplychain.ProductID(fmt.Sprintf("lot-%08d-product-%06d", i/16, i))
	}
	s := DefaultStrategy()
	before := heap()
	l := NewLedger()
	for i := 0; i < awards/len(path); i++ {
		s.AwardPath(l, ids[i%products], Quality(1+i%2), path)
	}
	grown := heap() - before
	runtime.KeepAlive(l)
	perEntry := float64(grown) / awards
	t.Logf("%d awards: %d bytes resident, %.1f per entry", awards, grown, perEntry)
	if perEntry > 40 {
		t.Fatalf("the ledger holds %.1f bytes per entry, want at most 40", perEntry)
	}
}

// TestAuditLogRoundTripsMixedHistory pins that the compact records lose
// nothing: a history of awards and violations, with repeated and unusual
// values, comes back from AuditLog event for event, and its digests chain to
// the head Adjust kept.
func TestAuditLogRoundTripsMixedHistory(t *testing.T) {
	l := NewLedger()
	s := DefaultStrategy()
	var applied []Event
	for i := 0; i < 3; i++ {
		product := supplychain.ProductID(fmt.Sprintf("id%d", i))
		applied = append(applied, s.AwardPath(l, product, Good, []supplychain.ParticipantID{"a", "b", "c"})...)
		applied = append(applied, s.PenalizeViolation(l, "b", product, Bad, fmt.Sprintf("wrong-next-hop %d", i%2)))
		applied = append(applied, s.AwardPath(l, product, Bad, []supplychain.ParticipantID{"c", "a"})...)
	}
	for _, e := range []Event{
		{Participant: "a", Product: "id0", Quality: Quality(1 << 40), Delta: math.Pi, Reason: "odd quality"},
		{Participant: "", Product: "", Quality: 0, Delta: 0, Reason: ""},
		{Participant: "d", Product: "id1", Quality: Good, Delta: -1e-9, Reason: "good path"},
		{Participant: "d", Product: "id1", Quality: Bad, Delta: 7, Reason: "good path"},
	} {
		l.Adjust(e)
		applied = append(applied, e)
	}
	log := l.AuditLog()
	if len(log) != len(applied) {
		t.Fatalf("%d entries for %d events", len(log), len(applied))
	}
	var prev [32]byte
	for i, entry := range log {
		if entry.Seq != uint64(i) || !reflect.DeepEqual(entry.Event, applied[i]) {
			t.Fatalf("entry %d = %+v, applied %+v", i, entry, applied[i])
		}
		prev = chainDigest(prev, uint64(i), applied[i])
		if entry.Digest != prev {
			t.Fatalf("entry %d digest differs from the chain over the applied events", i)
		}
	}
	head, count := l.Head()
	if head != prev || count != uint64(len(applied)) {
		t.Fatalf("head (%x, %d), want (%x, %d)", head, count, prev, len(applied))
	}
	if err := VerifyAuditChain(log, head, count); err != nil {
		t.Fatal(err)
	}
}
