package events

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// This file is the offline half of the flight recorder: scanning journal
// directories, aggregating them into summaries, and diffing two summaries —
// the machinery behind desword-events and the events-smoke CI gate.

// ScanStats reports what a journal scan encountered. Torn counts trailing
// partial lines (crash artifacts, skipped by design); Malformed counts
// complete lines that failed to decode (corruption — never expected).
type ScanStats struct {
	Files     int `json:"files"`
	Lines     int `json:"lines"`
	Torn      int `json:"torn"`
	Malformed int `json:"malformed"`
}

// maxScanLine bounds one journal line during a scan; it comfortably exceeds
// anything Emit writes (MaxHops caps the hop list).
const maxScanLine = 64 << 20

// ScanDir streams every complete event in dir's journal segments, oldest
// segment first, line order within a segment. A torn tail line is counted
// and skipped, mirroring what a journal reopen would drop. fn errors abort
// the scan.
func ScanDir(dir string, fn func(*Event) error) (ScanStats, error) {
	var stats ScanStats
	segs, err := ListSegments(dir)
	if err != nil {
		return stats, err
	}
	if len(segs) == 0 {
		return stats, fmt.Errorf("events: no journal segments under %s", dir)
	}
	for _, seg := range segs {
		if err := scanFile(seg.Path, &stats, fn); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// scanFile streams one segment. A final line without its '\n' terminator is
// a torn write from a crash: counted, never decoded — exactly what a journal
// reopen would truncate away.
func scanFile(path string, stats *ScanStats, fn func(*Event) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("events: opening journal segment: %w", err)
	}
	defer f.Close()
	stats.Files++
	r := bufio.NewReaderSize(f, 64<<10)
	for {
		line, rerr := r.ReadBytes('\n')
		if errors.Is(rerr, io.EOF) {
			if len(line) > 0 {
				stats.Torn++
			}
			return nil
		}
		if rerr != nil {
			return fmt.Errorf("events: scanning %s: %w", path, rerr)
		}
		line = line[:len(line)-1]
		if len(line) == 0 {
			continue
		}
		if len(line) > maxScanLine {
			stats.Malformed++
			continue
		}
		stats.Lines++
		ev, derr := Decode(line)
		if derr != nil {
			stats.Malformed++
			continue
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}

// LatencyStats summarizes a duration distribution in microseconds.
type LatencyStats struct {
	Count  int   `json:"count"`
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P90US  int64 `json:"p90_us"`
	P99US  int64 `json:"p99_us"`
	MaxUS  int64 `json:"max_us"`
}

// latencyFrom summarizes a sample set (sorted in place).
func latencyFrom(samples []int64) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum int64
	for _, v := range samples {
		sum += v
	}
	q := func(p float64) int64 { return samples[int(p*float64(len(samples)-1))] }
	return LatencyStats{
		Count:  len(samples),
		MeanUS: sum / int64(len(samples)),
		P50US:  q(0.50),
		P90US:  q(0.90),
		P99US:  q(0.99),
		MaxUS:  samples[len(samples)-1],
	}
}

// Summary is the offline aggregate of one journal (or one filtered view of
// it): what desword-events prints and what the smoke gate compares against
// the proxy's live metrics.
type Summary struct {
	Stats     ScanStats      `json:"stats"`
	Total     int            `json:"total"`
	ByKind    map[string]int `json:"by_kind"`
	ByOutcome map[string]int `json:"by_outcome"`
	ByQuality map[string]int `json:"by_quality"`

	// Query-kind aggregates.
	Queries      int            `json:"queries"`
	QueryLatency LatencyStats   `json:"query_latency"`
	Hops         int            `json:"hops"`
	Violations   map[string]int `json:"violations"`
	CacheHits    uint64         `json:"cache_hits"`
	CacheMisses  uint64         `json:"cache_misses"`
	PoolReused   uint64         `json:"pool_reused"`
	PoolRetries  uint64         `json:"pool_retries"`
	// Verified-proof memo totals, the journal's view of
	// desword_verifymemo_{hits,misses}.
	VerifyMemoHits   uint64 `json:"verify_memo_hits"`
	VerifyMemoMisses uint64 `json:"verify_memo_misses"`

	// Slowest holds the top-N slowest query events, slowest first, when the
	// summarizer was asked to keep them.
	Slowest []*Event `json:"slowest,omitempty"`
}

// Summarize scans dir and aggregates every event passing the filter. topN
// keeps that many slowest query events for hop-breakdown display (0 keeps
// none).
func Summarize(dir string, f Filter, topN int) (*Summary, error) {
	s := &Summary{
		ByKind:     make(map[string]int),
		ByOutcome:  make(map[string]int),
		ByQuality:  make(map[string]int),
		Violations: make(map[string]int),
	}
	var durations []int64
	stats, err := ScanDir(dir, func(ev *Event) error {
		if !f.Match(ev) {
			return nil
		}
		s.Total++
		s.ByKind[string(ev.Kind)]++
		s.ByOutcome[string(ev.Outcome)]++
		if ev.Quality != "" {
			s.ByQuality[ev.Quality]++
		}
		if ev.Kind != KindQuery {
			return nil
		}
		s.Queries++
		durations = append(durations, ev.DurationUS)
		s.Hops += ev.PathLen
		for _, v := range ev.Violations {
			s.Violations[v.Type]++
		}
		s.CacheHits += ev.CacheHits
		s.CacheMisses += ev.CacheMisses
		s.PoolReused += ev.PoolReused
		s.PoolRetries += ev.PoolRetries
		s.VerifyMemoHits += ev.VerifyMemoHits
		s.VerifyMemoMisses += ev.VerifyMemoMisses
		if topN > 0 {
			s.Slowest = insertSlowest(s.Slowest, ev, topN)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.Stats = stats
	s.QueryLatency = latencyFrom(durations)
	return s, nil
}

// insertSlowest keeps the top-n events by duration, slowest first.
func insertSlowest(top []*Event, ev *Event, n int) []*Event {
	i := sort.Search(len(top), func(k int) bool { return top[k].DurationUS < ev.DurationUS })
	top = append(top, nil)
	copy(top[i+1:], top[i:])
	top[i] = ev
	if len(top) > n {
		top = top[:n]
	}
	return top
}

// DiffRow is one line of a two-journal comparison.
type DiffRow struct {
	Metric string  `json:"metric"`
	A      float64 `json:"a"`
	B      float64 `json:"b"`
	// DeltaPct is (B-A)/A·100; 0 when A is 0.
	DeltaPct float64 `json:"delta_pct"`
}

// Diff compares two summaries metric by metric — the regression-triage view
// behind desword-events -diff: run the same campaign before and after a
// change, diff the journals.
func Diff(a, b *Summary) []DiffRow {
	rows := []DiffRow{
		row("events_total", float64(a.Total), float64(b.Total)),
		row("queries", float64(a.Queries), float64(b.Queries)),
		row("query_latency_mean_us", float64(a.QueryLatency.MeanUS), float64(b.QueryLatency.MeanUS)),
		row("query_latency_p_50_us", float64(a.QueryLatency.P50US), float64(b.QueryLatency.P50US)),
		row("query_latency_p_99_us", float64(a.QueryLatency.P99US), float64(b.QueryLatency.P99US)),
		row("query_latency_max_us", float64(a.QueryLatency.MaxUS), float64(b.QueryLatency.MaxUS)),
		row("hops", float64(a.Hops), float64(b.Hops)),
		row("violations", float64(totalOf(a.Violations)), float64(totalOf(b.Violations))),
		row("cache_hits", float64(a.CacheHits), float64(b.CacheHits)),
		row("cache_misses", float64(a.CacheMisses), float64(b.CacheMisses)),
		row("pool_reused", float64(a.PoolReused), float64(b.PoolReused)),
		row("pool_retries", float64(a.PoolRetries), float64(b.PoolRetries)),
	}
	for _, outcome := range unionKeys(a.ByOutcome, b.ByOutcome) {
		rows = append(rows, row("outcome_"+outcome,
			float64(a.ByOutcome[outcome]), float64(b.ByOutcome[outcome])))
	}
	return rows
}

func row(metric string, a, b float64) DiffRow {
	r := DiffRow{Metric: metric, A: a, B: b}
	if a != 0 {
		r.DeltaPct = (b - a) / a * 100
	}
	return r
}

func totalOf(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

func unionKeys(a, b map[string]int) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
