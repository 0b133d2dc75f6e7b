package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json that -compare judges by.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findSpec reads BENCHMARK.json from the working directory or the nearest
// directory above it.
func findSpec() (spec, error) {
	var sp spec
	dir, err := os.Getwd()
	if err != nil {
		return sp, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			return sp, json.Unmarshal(data, &sp)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return sp, errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// perLayerBand is how far a per-layer median must move, and by more than
// either side's spread, for -compare to mark the layer changed. Per-layer
// metrics carry no bound of their own: the band flags a layer that got 2×
// slower (+100%) and passes over the drift of a shared host between single
// runs, which reaches a third on the miniature runs of the smoke test.
const perLayerBand = 0.5

// side summarizes one metric's values over a set of runs.
type side struct {
	values    []float64
	q1, m, q3 float64
}

func summarize(values []float64) side {
	s := side{values: values}
	s.q1, s.m, s.q3 = quartiles(values)
	return s
}

// spread is the distance between the quartiles as a share of the median.
func (s side) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.m)) }

// row is one (workload, metric) comparison.
type row struct {
	workload, metric, unit string
	a, b                   side
	higher                 bool    // higher values are better
	worse                  float64 // change of the median, as a share, positive when worse
	verdict                string
}

// Verdicts. Only regression fails a comparison.
const (
	verdictOK         = "ok"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
)

// compareRecords judges runs b against runs a, metric by metric and
// workload by workload. An end-to-end metric regresses when b's median is
// worse than a's by more than its bound, and is unresolved when either
// side's spread exceeds the bound — unless the runs separate, every b run
// better, or worse, than every a run.
// error_ratio regresses on any rise. Per-layer metrics are marked better or
// worse when they move by more than perLayerBand and both spreads.
func compareRecords(sp spec, a, b []record) ([]row, error) {
	if len(a) == 0 || len(b) == 0 {
		return nil, errors.New("each side needs at least one run")
	}
	for _, r := range append(append([]record(nil), a...), b...) {
		if r.Trace != a[0].Trace {
			return nil, errors.New("cannot compare traced runs with timed ones")
		}
	}
	var rows []row
	for _, w := range sp.Workloads {
		va, vb := values(a, w.Name), values(b, w.Name)
		if va == nil || vb == nil {
			continue
		}
		for _, def := range sp.EndToEnd {
			if r, ok := compareMetric(w.Name, def, va, vb); ok {
				r.verdict = endToEndVerdict(r, def.Bound)
				rows = append(rows, r)
			}
		}
		for _, def := range sp.PerLayer {
			r, ok := compareMetric(w.Name, def, va, vb)
			if !ok {
				continue
			}
			switch {
			case def.Name == "error_ratio":
				r.verdict = verdictOK
				if pooledErrors(b, w.Name) > pooledErrors(a, w.Name) {
					r.verdict = verdictRegression
				}
			case math.Abs(r.worse) <= max(perLayerBand, r.a.spread(), r.b.spread()):
				r.verdict = verdictOK
			case r.worse > 0:
				r.verdict = verdictWorse
			default:
				r.verdict = verdictBetter
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// values gathers each metric's values over the runs of one workload; nil
// when no run measured it.
func values(runs []record, workload string) map[string][]float64 {
	var out map[string][]float64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		if out == nil {
			out = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[name] = append(out[name], m.Value)
		}
	}
	return out
}

func pooledErrors(runs []record, workload string) float64 {
	var failed, attempted int
	for _, r := range runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

func compareMetric(workload string, def specMetric, va, vb map[string][]float64) (row, bool) {
	if va[def.Name] == nil || vb[def.Name] == nil {
		return row{}, false
	}
	r := row{workload: workload, metric: def.Name, unit: def.Unit, a: summarize(va[def.Name]), b: summarize(vb[def.Name])}
	switch {
	case r.a.m == r.b.m:
	case r.a.m == 0:
		r.worse = math.Inf(1)
	default:
		r.worse = (r.b.m - r.a.m) / math.Abs(r.a.m)
	}
	if r.higher = def.Better == "higher"; r.higher {
		r.worse = -r.worse
	}
	return r, true
}

func endToEndVerdict(r row, bound float64) string {
	switch {
	case r.a.spread() <= bound && r.b.spread() <= bound:
	case separated(r, true):
		return verdictBetter
	case r.worse > bound && separated(r, false):
		return verdictRegression
	default:
		return verdictUnresolved
	}
	switch {
	case r.worse > bound:
		return verdictRegression
	case r.worse < -bound:
		return verdictBetter
	}
	return verdictOK
}

// separated reports whether every b run reads better (or, with better
// false, worse) than every a run.
func separated(r row, better bool) bool {
	if r.higher == better {
		return slices.Min(r.b.values) > slices.Max(r.a.values)
	}
	return slices.Max(r.b.values) < slices.Min(r.a.values)
}

// runCompare prints the comparison of the runs in files a with those in
// files b and fails on any regression.
func runCompare(w io.Writer, a, b []string) error {
	sp, err := findSpec()
	if err != nil {
		return err
	}
	load := func(files []string) ([]record, error) {
		var out []record
		for _, f := range files {
			rep, err := readReport(f)
			if err != nil {
				return nil, err
			}
			out = append(out, rep.Runs...)
		}
		return out, nil
	}
	ra, err := load(a)
	if err != nil {
		return err
	}
	rb, err := load(b)
	if err != nil {
		return err
	}
	rows, err := compareRecords(sp, ra, rb)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tunit\tworse by\tverdict\n")
	regressions := 0
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%s\n", r.workload, r.metric,
			formatSide(r.a), formatSide(r.b), r.unit, 100*r.worse, r.verdict)
		if r.verdict == verdictRegression {
			regressions++
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}

func formatSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] (n=%d)", s.m, s.q1, s.q3, len(s.values))
}
