package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json at the repository
// root lists the same names and units (the smoke test holds the two equal)
// and adds each metric's direction and regression bound.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. A timed run (-trace 0)
// prints exactly these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "queries/s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"live_heap_mb", "MiB"},
}

// leaves are the leaf layers the traced run's ledger times one call of, each
// reported as <leaf>.ns_op and <leaf>.allocs_op.
var leaves = []string{
	"group.scalar_base_mult",
	"group.scalar_mult",
	"mercurial.ver_hopen",
	"rsavc.open",
	"rsavc.verify",
	"qmercurial.hopen",
	"qmercurial.ver_hopen",
	"qmercurial.ver_sopen",
	"zkedb.prove_own",
	"zkedb.prove_nonown",
	"zkedb.verify_own",
	"zkedb.verify_nonown",
	"zkedb.commit_per_key",
	"poc.verify_own",
	"wire.encode_proof",
	"wire.decode_proof",
	"wire.envelope",
	"node.pool_exchange",
}

// perLayer are the metrics of single layers. A traced run (-trace 1) prints
// exactly these.
var perLayer = append([]metricDef{
	{"core.proxy.self_us", "us"},
	{"core.proxy.busy_share", "fraction"},
	{"core.proxy.verify_est_us", "us"},
	{"core.proxy.residual_us", "us"},
	{"core.member.query_us", "us"},
	{"core.member.busy_share", "fraction"},
	{"poc.proofcache.hit_ratio", "ratio"},
	{"wire.self_us", "us"},
	{"node.responder_client.query_us", "us"},
	{"node.responder_client.calls_per_query", "count"},
	{"node.pool.reuse_ratio", "ratio"},
	{"core.distribution.lot_ms", "ms"},
	{"core.distribution.busy_share", "fraction"},
	{"node.register_list_ms", "ms"},
	{"ingest_lot_p50_ms", "ms"},
	{"process.cpu_ms_per_query", "ms"},
	{"runtime.alloc_kb_per_query", "KiB"},
	{"runtime.gc_cpu_fraction", "fraction"},
	{"core.router.coalesced_ratio", "ratio"},
	{"harness.gen_lag_p99_ms", "ms"},
	{"harness.trace_overhead_pct", "%"},
	{"error_ratio", "fraction"},
}, leafDefs()...)

func leafDefs() []metricDef {
	out := make([]metricDef, 0, 2*len(leaves))
	for _, l := range leaves {
		out = append(out, metricDef{l + ".ns_op", "ns"}, metricDef{l + ".allocs_op", "count"})
	}
	return out
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	out := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		out[d.name] = d.unit
	}
	return out
}()

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's named measurements.
type metrics map[string]metric

// set records a value under a catalogued name; an unknown name is a bug.
func (m metrics) set(name string, value float64) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: uncatalogued metric " + name)
	}
	m[name] = metric{Value: value, Unit: unit}
}

// result is what a workload run prints as the last line of its standard
// output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is one workload run as a -out report keeps it: every metric the run
// measured, plus what it ran.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	result

	wrong []error // the wrong answers behind Correct == false
}

// host describes the machine a run measured.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

func thisHost() host {
	return host{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Platform:   runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// line returns the result a run prints: the end-to-end metrics of a timed
// run, the per-layer metrics of a traced one.
func (r record) line() result {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	out := r.result
	out.Metrics = make(metrics, len(defs))
	for _, d := range defs {
		if m, ok := r.Metrics[d.name]; ok {
			out.Metrics[d.name] = m
		}
	}
	return out
}

// report is the JSON file -out appends runs to and -compare reads.
type report struct {
	Runs []record `json:"runs"`
}

func readReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rep, nil
}

// appendReport adds a run to the report in path, creating the file when it
// does not exist yet.
func appendReport(path string, r record) error {
	rep, err := readReport(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	rep.Runs = append(rep.Runs, r)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// percentile returns the nearest-rank p-quantile of samples (0 when empty).
// It sorts samples in place.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(p * float64(len(samples))))
	return samples[max(rank, 1)-1]
}

// quartiles returns the first quartile, median and third quartile of values
// the way Python's statistics.quantiles(values, n=4) computes them (the
// exclusive method), so -compare's spreads match the ones the benchmark's
// acceptance is judged by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	switch len(x) {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	n := len(x)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the middle of values (0 when empty).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(ns float64) float64      { return ns / 1e3 }
