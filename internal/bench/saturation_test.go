package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"desword/internal/zkedb"
)

// TestSaturationSmoke runs a miniature E14 end to end: a real TCP
// deployment, open-loop load at two levels, and a forced-overload pass. It
// then re-reads the JSON report the run recorded and asserts the two signals
// the experiment exists for: every completed query is accounted for by a
// walk or a coalesced join, and the shed counters fired.
func TestSaturationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation smoke drives a TCP deployment")
	}
	out := filepath.Join(t.TempDir(), "BENCH_saturation.json")
	table, err := RunSaturation(zkedb.TestParams(), []int{50, 200}, 3, 16, 300*time.Millisecond, out)
	if err != nil {
		t.Fatalf("RunSaturation: %v", err)
	}
	if len(table.Rows) != 3 { // 2 levels + 1 forced
		t.Fatalf("table has %d rows, want 3", len(table.Rows))
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("reading report: %v", err)
	}
	var report SaturationReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("parsing report: %v", err)
	}
	if len(report.Runs) != 2 {
		t.Fatalf("report has %d runs, want 2", len(report.Runs))
	}

	// Every non-forced level must have completed real queries, and the walks
	// plus the coalesced joins (which ride a leader's walk) must account for
	// every one of them.
	run := report.Runs[0]
	var done uint64
	for _, p := range run.Points {
		if p.Done == 0 {
			t.Fatalf("qps=%d completed no queries", p.OfferedQPS)
		}
		if p.P50MS <= 0 || p.P99MS < p.P50MS {
			t.Fatalf("qps=%d quantiles p50=%v p99=%v", p.OfferedQPS, p.P50MS, p.P99MS)
		}
		done += uint64(p.Done)
	}
	if run.Walks == 0 {
		t.Fatal("run led no walks")
	}
	if run.Walks+run.Coalesced != done {
		t.Fatalf("walks(%d) + coalesced(%d) != done(%d)", run.Walks, run.Coalesced, done)
	}

	// The forced-overload pass (one admission worker, no waiting room, max
	// offered load) must have shed.
	forced := report.Runs[1]
	if !forced.Forced {
		t.Fatal("final run is not the forced-overload pass")
	}
	var shed int
	for _, p := range forced.Points {
		shed += p.Shed
	}
	if shed == 0 {
		t.Fatalf("forced overload shed nothing: %+v", forced.Points)
	}
}
