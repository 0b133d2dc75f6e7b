// Package obs is DE-Sword's zero-dependency observability layer: a metrics
// registry (atomic counters, gauges and fixed-bucket histograms with label
// support and Prometheus text-format exposition), a shared log/slog handler
// setup for the cmd binaries, and an opt-in HTTP admin listener serving
// /metrics, /healthz and net/http/pprof.
//
// The package is stdlib-only, consistent with the repository's 3-line go.mod.
// Hot paths hold on to metric handles (obtained once via Registry.Counter,
// Registry.Gauge or Registry.Histogram) and update them with single atomic
// operations — no locks and no allocation per event.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind distinguishes the metric families a registry can hold.
type Kind int

// Metric kinds start at 1 so the zero value is invalid.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer with the Prometheus type names.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefBuckets are the default latency buckets in seconds, spanning the range
// from sub-millisecond proof verifications under test parameters to
// multi-second path walks under production geometry.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing counter. The zero value is ready to
// use, but counters are normally obtained from a Registry so they appear in
// the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer gauge that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a float64 updated with a compare-and-swap loop, so histogram
// sums stay race-free without a lock.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram of float64 observations (typically
// seconds). Bucket bounds are upper-inclusive, Prometheus style, with an
// implicit +Inf bucket.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // len(upper)+1; last is +Inf
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	h.count.Add(1)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// family groups every series of one metric name.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64
	series  map[string]*series // canonical label string → series
}

// series is one labelled instance of a family.
type series struct {
	labels  string // canonical `k1="v1",k2="v2"` form, "" for unlabelled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry is a named collection of metric families. All methods are safe
// for concurrent use; lookups take the registry lock, so callers on hot
// paths should fetch their handles once and keep them.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family // guarded by mu
	runtime  *runtimeSeries     // guarded by mu; set by RegisterProcessMetrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Default is the process-wide registry that the instrumented packages
// (zkedb, wire, node, core, reputation) register into.
var Default = NewRegistry()

// Counter returns the counter for name and the given label pairs, creating
// it on first use. Labels are alternating key, value strings. It panics on
// malformed labels or if name is already registered with a different kind —
// both are programming errors.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, KindCounter, nil, labels)
	return s.counter
}

// Gauge returns the gauge for name and the given label pairs, creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, KindGauge, nil, labels)
	return s.gauge
}

// Histogram returns the histogram for name and the given label pairs,
// creating it on first use. buckets are the upper bounds in increasing
// order; nil selects DefBuckets. All series of one family share the bucket
// layout fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	s := r.lookup(name, help, KindHistogram, buckets, labels)
	return s.hist
}

// lookup finds or creates the series for (name, labels).
func (r *Registry) lookup(name, help string, kind Kind, buckets []float64, labels []string) *series {
	key := labelKey(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			r.mu.RUnlock()
			panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
		}
		if s, ok := f.series[key]; ok {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if kind == KindHistogram && buckets == nil {
			buckets = DefBuckets
		}
		f = &family{
			name:    name,
			help:    help,
			kind:    kind,
			buckets: append([]float64(nil), buckets...),
			series:  make(map[string]*series),
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = &Histogram{
				upper:  f.buckets,
				counts: make([]atomic.Uint64, len(f.buckets)+1),
			}
		}
		f.series[key] = s
	}
	return s
}

// labelKey renders label pairs into the canonical, sorted
// `k1="v1",k2="v2"` form used both as the map key and in the exposition.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the Prometheus text-format escaping to a label value.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the Prometheus text-format escaping to HELP text, where
// only backslash and newline are escaped (quotes stay literal). Unescaped, a
// newline smuggled into help text would split the line and corrupt the whole
// exposition.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the registry contents in the Prometheus text
// exposition format, families and series in sorted order. The runtime
// series of RegisterProcessMetrics, when registered, are refreshed before
// rendering.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	rs := r.runtime
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	views := make([]familyView, 0, len(names))
	for _, name := range names {
		views = append(views, r.families[name].view())
	}
	r.mu.RUnlock()
	if rs != nil {
		rs.sample()
	}
	for _, v := range views {
		if err := v.write(w); err != nil {
			return err
		}
	}
	return nil
}

// familyView is what a scrape renders of one family: its help text and its
// series in sorted order.
type familyView struct {
	f      *family
	help   string
	series []*series
}

// view copies the family's help text and series. The caller holds the
// registry lock: lookup sets the help text and inserts series under it.
func (f *family) view() familyView {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	v := familyView{f: f, help: f.help, series: make([]*series, len(keys))}
	for i, k := range keys {
		v.series[i] = f.series[k]
	}
	return v
}

// write renders one family. The registry lock is not held: values are read
// atomically, so a racing scrape sees a consistent point-in-time view of
// each series.
func (v familyView) write(w io.Writer) error {
	f := v.f
	if v.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(v.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for _, s := range v.series {
		if err := s.write(w, f); err != nil {
			return err
		}
	}
	return nil
}

// write renders one series.
func (s *series) write(w io.Writer, f *family) error {
	switch f.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, s.labels), s.counter.Value())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s %d\n", seriesName(f.name, s.labels), s.gauge.Value())
		return err
	case KindHistogram:
		cum := uint64(0)
		for i, upper := range s.hist.upper {
			cum += s.hist.counts[i].Load()
			le := s.labels
			if le != "" {
				le += ","
			}
			le += `le="` + formatFloat(upper) + `"`
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", f.name, le, cum); err != nil {
				return err
			}
		}
		count := s.hist.Count()
		le := s.labels
		if le != "" {
			le += ","
		}
		le += `le="+Inf"`
		if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", f.name, le, count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
			f.name, bracket(s.labels), formatFloat(s.hist.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, bracket(s.labels), count)
		return err
	default:
		return fmt.Errorf("obs: unknown kind %v", f.kind)
	}
}

// seriesName renders `name` or `name{labels}`.
func seriesName(name, labels string) string {
	return name + bracket(labels)
}

// bracket wraps a non-empty canonical label string in braces.
func bracket(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
