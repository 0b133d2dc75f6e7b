package bench

import (
	"context"
	"errors"
	"fmt"
	"time"

	"desword/internal/core"
	"desword/internal/poc"
	"desword/internal/zkedb"
)

// This file implements experiment E8: end-to-end good/bad product path query
// latency over a real TCP deployment as a function of path length — the
// whole-protocol cost a supply-chain application observes on a first query.

// RunE2E deploys linear chains of the given lengths on localhost and times
// full path queries through proxy and participant servers. Every measured
// query asks about a product no earlier query touched, so each hop proves
// and verifies afresh: the participants' proof caches and the proxy's
// verify memo never answer. Only a participant's witness memo can, for the
// upper tree levels a product shares with one proven before it.
func RunE2E(params zkedb.Params, lengths []int, reps int) (*Table, error) {
	reps = max(reps, 1)
	t := &Table{
		Title: "E8: end-to-end path query latency over TCP (localhost)",
		Note: fmt.Sprintf("q=%d h=%d, mean over %d first (cold) queries per flavour, one fresh product each; grows linearly with path length",
			params.Q, params.H, reps),
		Headers: []string{"path length", "good query", "bad query", "proof bytes/hop (own)"},
	}
	ps, err := poc.PSGen(params)
	if err != nil {
		return nil, err
	}
	for _, n := range lengths {
		good, bad, proofBytes, err := runE2EChain(ps, n, reps)
		if err != nil {
			return nil, fmt.Errorf("bench: e2e chain of %d: %w", n, err)
		}
		t.AddRow(fmt.Sprint(n), Ms(good), Ms(bad), KB(proofBytes))
	}
	return t, nil
}

// runE2EChain times reps good queries on the first reps products of a chain
// of n participants and reps bad queries on the next reps. One more product
// is never queried: its ownership proof, sized straight from p0, adds a
// proof-cache miss and no hit.
func runE2EChain(ps *poc.PublicParams, n, reps int) (good, bad time.Duration, proofBytes int, err error) {
	c, err := newChain(ps, n, 2*reps+1, "e2e")
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { err = errors.Join(err, c.Close()) }()

	proof, err := c.members["p0"].Query(context.Background(), c.dist.TaskID, c.products[2*reps], core.Good)
	if err != nil {
		return 0, 0, 0, err
	}
	if proofBytes, err = proof.Proof.ZK.Size(); err != nil {
		return 0, 0, 0, err
	}

	d, err := c.serve(nil)
	if err != nil {
		return 0, 0, 0, err
	}
	defer func() { err = errors.Join(err, d.Close()) }()
	// measure returns the mean latency of one query of flavour q per id.
	measure := func(q core.Quality, ids []poc.ProductID) (time.Duration, error) {
		start := time.Now()
		for _, id := range ids {
			result, err := d.client.QueryPath(context.Background(), id, q)
			if err != nil {
				return 0, err
			}
			if len(result.Path) != n {
				return 0, fmt.Errorf("%s query for %s identified %d of %d hops", q, id, len(result.Path), n)
			}
		}
		return time.Since(start) / time.Duration(len(ids)), nil
	}
	if good, err = measure(core.Good, c.products[:reps]); err != nil {
		return 0, 0, 0, err
	}
	if bad, err = measure(core.Bad, c.products[reps:2*reps]); err != nil {
		return 0, 0, 0, err
	}
	return good, bad, proofBytes, nil
}
