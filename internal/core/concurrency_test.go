package core

import (
	"context"
	"sync"
	"testing"

	"desword/internal/poc"
)

// TestConcurrentQueries runs many path queries against one proxy in
// parallel: the protocol engine, the members' DPOC provers and the
// reputation ledger must all tolerate concurrent use.
func TestConcurrentQueries(t *testing.T) {
	fx := newFixture(t, 8)
	products := make([]poc.ProductID, 0, len(fx.dist.Ground.Paths))
	for id := range fx.dist.Ground.Paths {
		products = append(products, id)
	}
	errCh := make(chan error, len(products)*4)
	// Reps run back to back (products concurrent within each rep): two
	// overlapping queries for the same (product, quality) would coalesce onto
	// one walk and one settlement, making the exact event count below
	// timing-dependent. Coalescing semantics are pinned by their own tests.
	for rep := 0; rep < 4; rep++ {
		quality := Good
		if rep%2 == 1 {
			quality = Bad
		}
		var wg sync.WaitGroup
		for _, id := range products {
			wg.Add(1)
			go func(id poc.ProductID, q Quality) {
				defer wg.Done()
				result, err := fx.proxy.QueryPath(context.Background(), id, q)
				if err != nil {
					errCh <- err
					return
				}
				if len(result.Violations) != 0 || !result.Complete {
					errCh <- &incompleteError{id: id}
				}
			}(id, quality)
		}
		wg.Wait()
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Ledger sanity: every query produced per-hop awards; total event count
	// must equal 4 × Σ path lengths.
	wantEvents := 0
	for _, path := range fx.dist.Ground.Paths {
		wantEvents += 4 * len(path)
	}
	if got := len(fx.proxy.Ledger().AuditLog()); got != wantEvents {
		t.Fatalf("ledger recorded %d events, want %d", got, wantEvents)
	}
}

type incompleteError struct{ id poc.ProductID }

func (e *incompleteError) Error() string { return "incomplete result for " + string(e.id) }

// TestConcurrentProofsOneDPOC hammers a single member's prover from many
// goroutines — the soft-chain cache behind non-ownership proofs is shared
// mutable state and must stay consistent.
func TestConcurrentProofsOneDPOC(t *testing.T) {
	fx := newFixture(t, 4)
	var member *Member
	for _, m := range fx.members {
		if m.Participant().TraceCount() > 0 {
			member = m
			break
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				id := poc.ProductID("ghost-shared") // same absent key from all goroutines
				if (i+j)%2 == 0 {
					id = poc.ProductID("ghost-other")
				}
				resp, err := member.Query(context.Background(), fx.dist.TaskID, id, Bad)
				if err != nil {
					errCh <- err
					return
				}
				credential, err := member.POC(fx.dist.TaskID)
				if err != nil {
					errCh <- err
					return
				}
				if _, err := poc.Verify(context.Background(), fx.ps, credential, id, resp.Proof); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestConcurrentRegisterAndQuery interleaves list registrations with queries.
func TestConcurrentRegisterAndQuery(t *testing.T) {
	fx := newFixture(t, 4)
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := fx.proxy.QueryPath(context.Background(), "id1", Good); err != nil {
				errCh <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// Re-registrations of the same task must fail cleanly, never race.
		for i := 0; i < 8; i++ {
			if err := fx.proxy.RegisterList(fx.dist.TaskID, fx.dist.List); err == nil {
				errCh <- &incompleteError{id: "duplicate-registration-accepted"}
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
