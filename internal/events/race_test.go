package events

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentEmitAndQuery exercises the sink under the race detector:
// emitters, ring readers and a journal writer all at once — the shape of a
// proxy emitting query events while /debug/events is being polled.
func TestConcurrentEmitAndQuery(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), RingSize: 32}
	sink, err := cfg.Build("race")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ev := New(KindQuery, time.Now())
				ev.Product = "race"
				ev.Outcome = OutcomeComplete
				ev.DurationUS = int64(i)
				sink.Emit(ev)
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sink.Ring().Query(Filter{Product: "race"}, 10)
				sink.Ring().Len()
			}
		}()
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := sink.Ring().Total(); got != writers*perWriter {
		t.Fatalf("ring Total = %d, want %d", got, writers*perWriter)
	}
	var scanned int
	if _, err := ScanDir(cfg.Dir, func(*Event) error { scanned++; return nil }); err != nil {
		t.Fatalf("ScanDir: %v", err)
	}
	if scanned != writers*perWriter {
		t.Fatalf("journal holds %d events, want %d", scanned, writers*perWriter)
	}
}

// TestScopeConcurrent mirrors speculative child probes counting into one
// query's scope from several goroutines: the scope and the process-wide
// series move together, by exactly the counts made.
func TestScopeConcurrent(t *testing.T) {
	s := NewScope()
	ctx := WithScope(context.Background(), s)
	if ScopeFrom(ctx) != s {
		t.Fatal("ScopeFrom lost the scope")
	}
	resources := []Resource{CacheHit, CacheMiss, PoolReuse, PoolRetry}
	before := make([]uint64, len(resources))
	for i, r := range resources {
		before[i] = seriesOf(r).Value()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, r := range resources {
					Count(ctx, r)
				}
			}
		}()
	}
	wg.Wait()
	var ev Event
	s.Fill(&ev)
	if ev.CacheHits != 800 || ev.CacheMisses != 800 || ev.PoolReused != 800 || ev.PoolRetries != 800 {
		t.Fatalf("scope counters = %+v, want 800 each", ev)
	}
	for i, r := range resources {
		if got := seriesOf(r).Value() - before[i]; got != 800 {
			t.Fatalf("resource %d: process-wide series moved by %d, want 800", r, got)
		}
	}
}

// TestScopeNilSafety pins counting outside any scope: the process-wide
// series still move, and nothing else is touched.
func TestScopeNilSafety(t *testing.T) {
	before := seriesOf(PoolRetry).Value()
	Count(context.Background(), PoolRetry)
	if got := seriesOf(PoolRetry).Value() - before; got != 1 {
		t.Fatalf("a count outside a scope moved the series by %d, want 1", got)
	}
	var s *Scope
	s.Fill(&Event{})
	if got := ScopeFrom(context.Background()); got != nil {
		t.Fatalf("ScopeFrom(empty ctx) = %v", got)
	}
	ctx := WithScope(context.Background(), nil)
	if got := ScopeFrom(ctx); got != nil {
		t.Fatalf("WithScope(nil) stored something: %v", got)
	}
}

// TestScopeMemoCounters pins the verified-proof memo's route onto the wide
// event: concurrent hops count into one scope, Fill copies the totals, and
// the fields are additive (absent when zero, so older journals read the
// same).
func TestScopeMemoCounters(t *testing.T) {
	s := NewScope()
	ctx := WithScope(context.Background(), s)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				Count(ctx, MemoHit)
				Count(ctx, MemoMiss)
				Count(ctx, MemoHit)
			}
		}()
	}
	wg.Wait()
	ev := New(KindQuery, time.Time{})
	s.Fill(ev)
	if ev.VerifyMemoHits != 400 || ev.VerifyMemoMisses != 200 {
		t.Fatalf("memo counters = %d hits, %d misses; want 400 and 200", ev.VerifyMemoHits, ev.VerifyMemoMisses)
	}
	line, err := ev.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"verify_memo_hits":400`) || !strings.Contains(string(line), `"verify_memo_misses":200`) {
		t.Fatalf("encoded event lacks the memo fields: %s", line)
	}
	empty, err := New(KindQuery, time.Time{}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(empty), "verify_memo") {
		t.Fatalf("zero memo counters must be omitted: %s", empty)
	}
}
