package core

import (
	"context"
	"fmt"
	"sync"

	"desword/internal/poc"
	"desword/internal/trace"
)

// This file is the proxy's batch query API. A batch is the first-class unit:
// QueryPath is the batch=1 case of the same options-driven path (admission,
// coalescing, walk), so there is exactly one code path to reason about.
// Batches have partial-failure semantics — each product id carries its own
// result, error, or shed marker; one bad id never fails its neighbours.

// BatchItem is the outcome for one product id of a batch: exactly one of
// Result or Err is meaningful. Shed marks admission-control rejection
// (Err wraps ErrLoadShed) so callers can separate overload from failure.
type BatchItem struct {
	Product poc.ProductID
	Result  *Result
	Err     error
	Shed    bool
}

// BatchResult is one batch query's outcome: per-id items in request order
// under the batch's trace id.
type BatchResult struct {
	// TraceID identifies the batch span; each item's Result carries its own
	// per-walk trace id beneath it.
	TraceID string
	// Items holds one outcome per requested id, in request order. Duplicate
	// ids share one walk and one settlement: they point at the same Result.
	Items []BatchItem
}

// QueryPathBatch runs one path query per product id with fan-out bounded by
// ProxyConfig.BatchFanout and partial-failure semantics. Duplicate ids are
// deduplicated before dispatch — each distinct (product, quality) is walked
// and settled exactly once, and every duplicate index shares the winner's
// Result pointer — so a batch containing an id N times awards reputation
// once, matching one query.
// Distinct products additionally coalesce with any concurrently running
// queries for the same product via the proxy's single-flight table.
//
// The batch as a whole only errors on invalid arguments; per-id failures
// (including load sheds) land on their BatchItem.
func (px *Proxy) QueryPathBatch(ctx context.Context, ids []poc.ProductID, quality Quality) (*BatchResult, error) {
	if quality != Good && quality != Bad {
		return nil, fmt.Errorf("core: invalid quality %v", quality)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	fanout := px.cfg.BatchFanout
	ctx, span := trace.Default.Start(ctx, "proxy.query_path_batch",
		trace.Int("batch_size", len(ids)), trace.String("quality", quality.String()),
		trace.Int("fanout", fanout))
	defer span.End()

	// Dedup before dispatch: quality is uniform across the batch, so the id
	// alone keys the unique work. first maps each distinct id to the index
	// of its first occurrence; duplicates copy that slot's outcome after the
	// barrier below.
	out := &BatchResult{TraceID: span.TraceID(), Items: make([]BatchItem, len(ids))}
	first := make(map[poc.ProductID]int, len(ids))
	var unique []int
	for i, id := range ids {
		if _, dup := first[id]; !dup {
			first[id] = i
			unique = append(unique, i)
		}
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, fanout)
	for _, i := range unique {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out.Items[i] = px.queryItem(ctx, ids[i], quality)
		}(i)
	}
	wg.Wait()

	mBatchQueries.Inc()
	var shed int
	for i, id := range ids {
		if w := first[id]; w != i {
			out.Items[i] = out.Items[w]
		}
		if out.Items[i].Shed {
			shed++
		}
	}
	span.SetAttr(trace.Int("unique", len(unique)), trace.Int("shed", shed))
	return out, nil
}
