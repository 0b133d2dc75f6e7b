package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// This file is the Prometheus text-exposition conformance gate: a small
// stand-alone parser re-reads what WritePrometheus emits and checks the
// format invariants scrapers rely on — every series line parses, histogram
// bucket vectors are cumulative and end in a +Inf bucket that agrees with
// _count, and _count/_sum agree with the registry's own readings. The fuzz
// target below drives the same round trip with adversarial label values.

// parsedSeries is one parsed exposition line: name, sorted label string, value.
type parsedSeries struct {
	name   string
	labels string // canonical k="v" form, sorted, exemplar-free
	value  float64
}

// parseExposition parses the text format strictly enough to catch framing
// corruption: unknown line shapes, unterminated label quoting, or values that
// do not parse are errors.
func parseExposition(text string) (series []parsedSeries, types map[string]string, err error) {
	types = make(map[string]string)
	for lineNo, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo+1, line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		s, perr := parseSeriesLine(line)
		if perr != nil {
			return nil, nil, fmt.Errorf("line %d: %w", lineNo+1, perr)
		}
		series = append(series, s)
	}
	return series, types, nil
}

func parseSeriesLine(line string) (parsedSeries, error) {
	var s parsedSeries
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value separator in %q", line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("value %q in %q: %w", rest, line, err)
	}
	s.value = v
	return s, nil
}

// parseLabels consumes a {k="v",...} block, unescaping values, and returns
// the canonical sorted label string plus the remainder of the line.
func parseLabels(in string) (string, string, error) {
	if !strings.HasPrefix(in, "{") {
		return "", "", fmt.Errorf("labels must start with {")
	}
	rest := in[1:]
	type kv struct{ k, v string }
	var pairs []kv
	for {
		if strings.HasPrefix(rest, "}") {
			rest = rest[1:]
			break
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return "", "", fmt.Errorf("label without = in %q", in)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return "", "", fmt.Errorf("unquoted label value in %q", in)
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return "", "", fmt.Errorf("dangling escape in %q", in)
				}
				i++
				switch rest[i] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return "", "", fmt.Errorf("unknown escape \\%c in %q", rest[i], in)
				}
				continue
			}
			if c == '"' {
				rest = rest[i+1:]
				closed = true
				break
			}
			if c == '\n' {
				return "", "", fmt.Errorf("raw newline inside label value in %q", in)
			}
			val.WriteByte(c)
		}
		if !closed {
			return "", "", fmt.Errorf("unterminated label value in %q", in)
		}
		pairs = append(pairs, kv{key, val.String()})
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	return b.String(), rest, nil
}

func parseValue(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistogramInvariants verifies, for every histogram family in the parsed
// series, that its bucket vector is cumulative, terminates in a +Inf bucket,
// and that the +Inf bucket equals the _count series.
func checkHistogramInvariants(t *testing.T, series []parsedSeries, types map[string]string) {
	t.Helper()
	// Group bucket lines by (family, labels-without-le).
	type hist struct {
		uppers []float64
		counts []float64
		count  float64
		sum    float64
		hasCnt bool
	}
	hists := make(map[string]*hist)
	get := func(key string) *hist {
		h, ok := hists[key]
		if !ok {
			h = &hist{}
			hists[key] = h
		}
		return h
	}
	for _, s := range series {
		switch {
		case strings.HasSuffix(s.name, "_bucket") && types[strings.TrimSuffix(s.name, "_bucket")] == "histogram":
			base := strings.TrimSuffix(s.name, "_bucket")
			le, rest := extractLE(s.labels)
			if le == "" {
				t.Fatalf("bucket line of %s without le label: %q", base, s.labels)
			}
			upper, err := parseValue(le)
			if err != nil {
				t.Fatalf("unparseable le %q: %v", le, err)
			}
			h := get(base + "{" + rest + "}")
			h.uppers = append(h.uppers, upper)
			h.counts = append(h.counts, s.value)
		case strings.HasSuffix(s.name, "_count") && types[strings.TrimSuffix(s.name, "_count")] == "histogram":
			h := get(strings.TrimSuffix(s.name, "_count") + "{" + s.labels + "}")
			h.count = s.value
			h.hasCnt = true
		case strings.HasSuffix(s.name, "_sum") && types[strings.TrimSuffix(s.name, "_sum")] == "histogram":
			get(strings.TrimSuffix(s.name, "_sum") + "{" + s.labels + "}").sum = s.value
		}
	}
	for key, h := range hists {
		if len(h.uppers) == 0 {
			t.Fatalf("%s: histogram without bucket lines", key)
		}
		for i := 1; i < len(h.uppers); i++ {
			if h.uppers[i] <= h.uppers[i-1] {
				t.Fatalf("%s: bucket uppers not increasing: %v", key, h.uppers)
			}
			if h.counts[i] < h.counts[i-1] {
				t.Fatalf("%s: bucket counts not cumulative: %v", key, h.counts)
			}
		}
		last := len(h.uppers) - 1
		if !math.IsInf(h.uppers[last], 1) {
			t.Fatalf("%s: terminal bucket is %v, want +Inf", key, h.uppers[last])
		}
		if !h.hasCnt {
			t.Fatalf("%s: histogram without _count", key)
		}
		if h.counts[last] != h.count {
			t.Fatalf("%s: +Inf bucket %v != _count %v", key, h.counts[last], h.count)
		}
	}
}

// extractLE splits the le label out of a canonical label string.
func extractLE(labels string) (le, rest string) {
	var kept []string
	for _, part := range splitTopLevel(labels) {
		if strings.HasPrefix(part, `le=`) {
			le = strings.Trim(strings.TrimPrefix(part, `le=`), `"`)
			continue
		}
		kept = append(kept, part)
	}
	return le, strings.Join(kept, ",")
}

// splitTopLevel splits a canonical label string on commas outside quotes.
func splitTopLevel(s string) []string {
	var parts []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		parts = append(parts, s[start:])
	}
	return parts
}

// TestExpositionRoundTrip registers a representative mix of series — hostile
// label values included — writes the exposition, parses it back, and checks
// both the histogram invariants and that every counter/gauge value survives
// the round trip.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rt_requests_total", "requests", "peer", `quo"te`).Add(7)
	reg.Counter("rt_requests_total", "requests", "peer", "line\nbreak").Add(3)
	reg.Gauge("rt_inflight", "in flight").Set(-2)
	h := reg.Histogram("rt_latency_seconds", "latency", []float64{0.01, 0.1, 1}, "peer", `back\slash`)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series, types, err := parseExposition(b.String())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	checkHistogramInvariants(t, series, types)

	got := make(map[string]float64)
	for _, s := range series {
		got[s.name+"{"+s.labels+"}"] += s.value
	}
	if v := got[`rt_requests_total{peer="quo\"te"}`]; v != 7 {
		t.Fatalf("counter with quoted label round-tripped to %v, want 7", v)
	}
	if v := got[`rt_requests_total{peer="line\nbreak"}`]; v != 3 {
		t.Fatalf("counter with newline label round-tripped to %v, want 3", v)
	}
	if v := got[`rt_inflight{}`]; v != -2 {
		t.Fatalf("gauge round-tripped to %v, want -2", v)
	}
	if v := got[`rt_latency_seconds_count{peer="back\\slash"}`]; v != 3 {
		t.Fatalf("histogram count round-tripped to %v, want 3", v)
	}
	if v := got[`rt_latency_seconds_sum{peer="back\\slash"}`]; math.Abs(v-5.055) > 1e-9 {
		t.Fatalf("histogram sum round-tripped to %v, want 5.055", v)
	}
}

// FuzzExpositionLabelValues feeds arbitrary label values through a full
// registry→exposition→parser round trip: whatever bytes a peer smuggles into
// a label value, the exposition must stay parseable, the value must
// round-trip exactly, and the histogram invariants must hold.
func FuzzExpositionLabelValues(f *testing.F) {
	f.Add("plain", "other")
	f.Add(`with"quote`, `with\backslash`)
	f.Add("multi\nline", "ends with backslash\\")
	f.Add(`a="b",c="d"`, "},evil_total 42\n")
	f.Add("nul\x00", "tab\there")
	f.Fuzz(func(t *testing.T, v1, v2 string) {
		reg := NewRegistry()
		reg.Counter("fz_events_total", "events", "peer", v1).Add(11)
		h := reg.Histogram("fz_latency_seconds", "latency", []float64{0.5}, "peer", v2)
		h.Observe(0.1)
		h.Observe(0.9)

		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		series, types, err := parseExposition(b.String())
		if err != nil {
			t.Fatalf("exposition broken by label values %q/%q: %v\n%s", v1, v2, err, b.String())
		}
		checkHistogramInvariants(t, series, types)
		var names []string
		for _, s := range series {
			names = append(names, s.name)
		}
		// Injection check: only the registered families (and histogram
		// sub-series) may appear.
		for _, n := range names {
			switch n {
			case "fz_events_total", "fz_latency_seconds_bucket",
				"fz_latency_seconds_count", "fz_latency_seconds_sum":
			default:
				t.Fatalf("unexpected series %q injected via label value", n)
			}
		}
		counterSeen := false
		for _, s := range series {
			if s.name == "fz_events_total" {
				counterSeen = true
				if s.value != 11 {
					t.Fatalf("counter value %v, want 11", s.value)
				}
				if want := canonicalize(labelKey([]string{"peer", v1})); s.labels != want {
					t.Fatalf("label %q round-tripped to %q", want, s.labels)
				}
			}
		}
		if !counterSeen {
			t.Fatal("counter series vanished from exposition")
		}
	})
}

// canonicalize re-parses a label string in the writer's escaping
// (escapeLabel) into the canonical form parseExposition gives every parsed
// series (%q), so the two compare exactly. It must not be applied to a
// parsed series: the parser rejects escapes such as \x00 that %q emits.
func canonicalize(labels string) string {
	got, _, err := parseLabels("{" + labels + "}")
	if err != nil {
		return "unparseable:" + labels
	}
	return got
}
