package obs

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRegisterProcessMetrics scrapes /metrics through AdminMux with no
// ticker anywhere: the runtime series must be read at scrape time, and the
// GC counter must follow the runtime's own count between scrapes.
func TestRegisterProcessMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterProcessMetrics(reg)
	RegisterProcessMetrics(reg) // binaries may call it more than once
	mux := AdminMux(reg)
	scrape := func() (string, map[string]float64) {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics status = %d", rec.Code)
		}
		out := rec.Body.String()
		series, _, err := parseExposition(out)
		if err != nil {
			t.Fatalf("parsing exposition: %v\n%s", err, out)
		}
		values := make(map[string]float64, len(series))
		for _, s := range series {
			values[s.name] = s.value
		}
		return out, values
	}

	out, first := scrape()
	if !strings.Contains(out, "desword_build_info{") || !strings.Contains(out, `go="go`) {
		t.Fatalf("build info missing from exposition:\n%s", out)
	}
	if start := first["desword_process_start_time_seconds"]; start <= 0 || start > float64(time.Now().Unix()) {
		t.Fatalf("process start time %v not in the past", start)
	}
	for _, name := range []string{"desword_go_goroutines", "desword_go_heap_alloc_bytes"} {
		if first[name] <= 0 {
			t.Fatalf("%s = %v on the first scrape, want > 0", name, first[name])
		}
	}

	runtime.GC()
	_, second := scrape()
	if got, was := second["desword_go_gc_cycles_total"], first["desword_go_gc_cycles_total"]; got <= was {
		t.Fatalf("desword_go_gc_cycles_total went from %v to %v across a GC, want a rise", was, got)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if got := second["desword_go_gc_cycles_total"]; got > float64(ms.NumGC) {
		t.Fatalf("desword_go_gc_cycles_total = %v exceeds the runtime's %d cycles", got, ms.NumGC)
	}
}
