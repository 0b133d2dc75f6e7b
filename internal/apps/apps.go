// Package apps implements the three supply-chain applications DE-Sword's
// introduction motivates — contamination localization, counterfeit
// detection, and targeted product recall — as library functions on top of
// verifiable path queries. They are the "supply chain apps" box of the
// paper's Figure 2: each turns one or more good/bad product path queries
// into an actionable report.
//
// Applications speak to the proxy through the QueryClient interface, which
// both the in-process *core.Proxy and the TCP *node.ProxyClient satisfy, so
// the same application code runs embedded or distributed.
package apps

import (
	"context"
	"errors"
	"fmt"

	"desword/internal/core"
	"desword/internal/poc"
)

// QueryClient is the slice of proxy functionality applications consume.
// *core.Proxy and *node.ProxyClient both implement it.
type QueryClient interface {
	QueryPath(ctx context.Context, id poc.ProductID, quality core.Quality) (*core.Result, error)
}

// Errors reported by this package.
var (
	ErrNoPath = errors.New("apps: no verifiable path exists for product")
)

// ContaminationReport is the outcome of a contamination localization run.
type ContaminationReport struct {
	// Product is the contaminated product that triggered the investigation.
	Product poc.ProductID
	// Path is its verified path.
	Path []poc.ParticipantID
	// Source is the localized contamination source (the earliest verified
	// processor).
	Source poc.ParticipantID
	// Affected lists other market products whose verified paths pass
	// through the source.
	Affected []poc.ProductID
	// Violations aggregates every dishonest behaviour detected across the
	// investigation's queries.
	Violations []core.Violation
}

// LocalizeContamination runs the paper's first application: given a product
// that failed a quality check, recover its verified path (bad-product
// query), take the earliest processor as the contamination source, then
// sweep the given market products (good-product queries — they still pass
// checks) and flag every product that passed through the source.
func LocalizeContamination(ctx context.Context, client QueryClient, bad poc.ProductID, market []poc.ProductID) (*ContaminationReport, error) {
	result, err := client.QueryPath(ctx, bad, core.Bad)
	if err != nil {
		return nil, fmt.Errorf("apps: querying contaminated product: %w", err)
	}
	if len(result.Path) == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNoPath, bad)
	}
	report := &ContaminationReport{
		Product:    bad,
		Path:       result.Path,
		Source:     result.Path[0],
		Violations: result.Violations,
	}
	for _, id := range market {
		if id == bad {
			continue
		}
		res, err := client.QueryPath(ctx, id, core.Good)
		if err != nil {
			return nil, fmt.Errorf("apps: sweeping %s: %w", id, err)
		}
		report.Violations = append(report.Violations, res.Violations...)
		for _, v := range res.Path {
			if v == report.Source {
				report.Affected = append(report.Affected, id)
				break
			}
		}
	}
	return report, nil
}

// CounterfeitReport is the outcome of authenticating one product.
type CounterfeitReport struct {
	Product poc.ProductID
	// Genuine reports whether a complete verifiable path exists.
	Genuine bool
	// Path is the authenticated path when genuine.
	Path []poc.ParticipantID
	// History is the verified path information when genuine: the committed
	// RFID-trace of each hop, in path order.
	History []poc.Trace
	// Reason explains a negative verdict.
	Reason string
	// Violations lists dishonest behaviours detected while authenticating.
	Violations []core.Violation
}

// DetectCounterfeit runs the paper's second application: a product is
// genuine only if some initial participant proves ownership and the verified
// path reaches a leaf of the POC list. Products nobody can prove an origin
// for — the WHO's 10%-of-market scenario — are flagged.
func DetectCounterfeit(ctx context.Context, client QueryClient, id poc.ProductID) (*CounterfeitReport, error) {
	result, err := client.QueryPath(ctx, id, core.Good)
	if err != nil {
		return nil, fmt.Errorf("apps: authenticating %s: %w", id, err)
	}
	report := &CounterfeitReport{Product: id, Violations: result.Violations}
	switch {
	case len(result.Path) == 0:
		report.Reason = "no participant holds an ownership proof: no verifiable origin"
	case !result.Complete:
		report.Path = result.Path
		report.Reason = "path does not reach a leaf participant: chain of custody broken"
	default:
		report.Genuine = true
		report.Path = result.Path
		report.History = result.PathInfo()
	}
	return report, nil
}

// RecallReport is the outcome of a targeted recall.
type RecallReport struct {
	// FailurePoint is the participant whose output is being recalled.
	FailurePoint poc.ParticipantID
	// Recalled lists candidate products confirmed to have passed through
	// the failure point, with their verified paths.
	Recalled map[poc.ProductID][]poc.ParticipantID
	// Cleared lists candidates whose verified paths avoid the failure point.
	Cleared []poc.ProductID
	// Violations aggregates detections across the recall queries.
	Violations []core.Violation
}

// TargetedRecall runs the paper's third application: given a failure point
// (e.g. a participant whose cold chain broke), verify the path of every
// candidate product and split them into recalled and cleared sets.
func TargetedRecall(ctx context.Context, client QueryClient, failurePoint poc.ParticipantID, candidates []poc.ProductID) (*RecallReport, error) {
	report := &RecallReport{
		FailurePoint: failurePoint,
		Recalled:     make(map[poc.ProductID][]poc.ParticipantID),
	}
	for _, id := range candidates {
		res, err := client.QueryPath(ctx, id, core.Good)
		if err != nil {
			return nil, fmt.Errorf("apps: recall query for %s: %w", id, err)
		}
		report.Violations = append(report.Violations, res.Violations...)
		hit := false
		for _, v := range res.Path {
			if v == failurePoint {
				hit = true
				break
			}
		}
		if hit {
			report.Recalled[id] = res.Path
		} else {
			report.Cleared = append(report.Cleared, id)
		}
	}
	return report, nil
}
