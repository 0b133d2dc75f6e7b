package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"desword/internal/zkedb"
)

// miniature shrinks a workload to the fast test geometry; the smoke test
// also shortens the window.
func miniature(w workload) workload {
	w.params = zkedb.TestParams()
	return w
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestCatalogMatchesSpec holds the metrics the program produces to the ones
// BENCHMARK.json declares: same names, units and order.
func TestCatalogMatchesSpec(t *testing.T) {
	sp := loadSpec(t)
	for _, c := range []struct {
		what string
		code []metricDef
		spec []specMetric
	}{{"end_to_end", endToEnd, sp.EndToEnd}, {"per_layer", perLayer, sp.PerLayer}} {
		if len(c.code) != len(c.spec) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", c.what, len(c.code), len(c.spec))
		}
		for i, d := range c.code {
			if s := c.spec[i]; d.name != s.Name || d.unit != s.Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", c.what, i, d.name, d.unit, s.Name, s.Unit)
			}
		}
	}
	for i, w := range workloads {
		if i >= len(sp.Workloads) || sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: program %s, BENCHMARK.json disagrees", i, w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(values, n=4)
	for _, c := range []struct {
		values    []float64
		q1, m, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, m, q3 := quartiles(c.values)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestSmoke runs every workload at miniature scale, traced, and checks that
// each produces every metric BENCHMARK.json names with its unit, answers
// everything correctly, and keeps its seam residuals non-negative. Then it
// doubles the member layer's handling time on lookup-cold and checks that
// -compare's judgement moves where the trace says it should: the member
// layer and the end-to-end result, and not the wire.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys the system three times over loopback TCP")
	}
	sp := loadSpec(t)
	ctx := context.Background()
	o := options{seed: 1, seconds: 2, trace: true, benchtime: "5ms"}
	var cold record
	for _, w := range workloads {
		r, err := runWorkload(ctx, miniature(w), o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed > 0 || r.Attempted == 0 {
			t.Fatalf("%s: correct=%v failed=%d of %d: %v", w.name, r.Correct, r.Failed, r.Attempted, r.wrong)
		}
		for _, d := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, want unit %s", w.name, d.Name, m, d.Unit)
			}
		}
		// Hops nest inside client queries and member calls inside hops, so
		// the layers' self times can undershoot zero only by clock slack.
		const slackUS = 10
		for _, name := range []string{"core.proxy.self_us", "wire.self_us"} {
			if v := r.Metrics[name].Value; v < -slackUS {
				t.Errorf("%s: %s = %v us", w.name, name, v)
			}
		}
		for _, traced := range []bool{false, true} {
			r.Trace = traced
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := r.line().Metrics; len(got) != len(want) {
				t.Errorf("%s: trace=%v line carries %d metrics, want %d", w.name, traced, len(got), len(want))
			}
		}
		r.Trace = true
		if w.name == "lookup-cold" {
			cold = r
		}
	}

	// The slowed run sits between two plain ones, so that drift in the
	// shared host's speed shows up as spread on the plain side. That speed
	// can still swing by more than the slowdown within seconds, so the
	// measurement is repeated, up to three times, until it is judged as
	// expected once.
	w, _ := lookup("lookup-cold")
	var problems []string
	for attempt := 1; attempt <= 3; attempt++ {
		var again record
		again, problems = judgeSlowedMember(t, sp, miniature(w), o, cold)
		if len(problems) == 0 {
			return
		}
		t.Logf("attempt %d: %s", attempt, strings.Join(problems, "; "))
		cold = again
	}
	t.Errorf("doubled member handling: %s", strings.Join(problems, "; "))
}

// judgeSlowedMember runs w once with member handling doubled and once
// plainly, compares the plain runs (base and the new one) with the slowed
// one, and returns the new plain run and what was judged wrongly.
func judgeSlowedMember(t *testing.T, sp spec, w workload, o options, base record) (record, []string) {
	t.Helper()
	ctx := context.Background()
	slowed := o
	slowed.memberHook = func(d time.Duration) { // burn a core, as slower proving would
		for start := time.Now(); time.Since(start) < d; {
		}
	}
	slow, err := runWorkload(ctx, w, slowed)
	if err != nil {
		t.Fatal(err)
	}
	again, err := runWorkload(ctx, w, o)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := compareRecords(sp, []record{base, again}, []record{slow})
	if err != nil {
		t.Fatal(err)
	}
	verdict := make(map[string]string)
	for _, r := range rows {
		verdict[r.metric] = r.verdict
	}
	var problems []string
	if verdict["core.member.query_us"] != verdictWorse {
		problems = append(problems, fmt.Sprintf("member layer judged %q, want %q", verdict["core.member.query_us"], verdictWorse))
	}
	if verdict["wire.self_us"] != verdictOK {
		problems = append(problems, fmt.Sprintf("wire judged %q, want %q", verdict["wire.self_us"], verdictOK))
	}
	// The clients keep both cores busy, so the extra member time shows as
	// lost throughput as much as added latency; one of them must regress.
	regressed := false
	for _, metric := range []string{"throughput_qps", "query_p50_ms", "query_p99_ms"} {
		regressed = regressed || verdict[metric] == verdictRegression
	}
	if !regressed {
		problems = append(problems, fmt.Sprintf("no end-to-end regression (throughput %s, p50 %s, p99 %s)",
			verdict["throughput_qps"], verdict["query_p50_ms"], verdict["query_p99_ms"]))
	}
	return again, problems
}
