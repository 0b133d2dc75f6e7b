package obs

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// processStart is stamped at process init so every registry that registers
// process metrics reports the same start instant.
var processStart = time.Now()

// RegisterProcessMetrics registers the process series every DE-Sword binary
// exposes:
//
//	desword_build_info{version="...",go="..."} 1
//	desword_process_start_time_seconds <unix seconds>
//	desword_go_{goroutines,heap_alloc_bytes,heap_sys_bytes,gc_cycles_total,gc_pause_nanoseconds_total}
//	desword_process_{cpu_seconds_total,rss_bytes}
//
// The runtime series are read at scrape time: WritePrometheus, and so every
// /metrics request, refreshes them before rendering, so no ticker runs.
// version comes from the module build info when available (VCS revision or
// module version), falling back to "devel". The call is idempotent per
// registry, and cheap enough that binaries simply call it once in main.
func RegisterProcessMetrics(r *Registry) {
	r.Gauge("desword_build_info",
		"Build identity; the value is always 1, the labels carry the info.",
		"version", buildVersion(), "go", runtime.Version()).Set(1)
	r.Gauge("desword_process_start_time_seconds",
		"Unix time the process started, in seconds.").Set(processStart.Unix())
	rs := newRuntimeSeries(r)
	r.mu.Lock()
	if r.runtime == nil {
		r.runtime = rs
	}
	r.mu.Unlock()
}

// buildVersion extracts the best available version string from the binary's
// embedded build info: an exact module version, else the VCS revision
// (truncated), else "devel".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			return s.Value[:12]
		}
	}
	return "devel"
}

// runtimeSeries holds the handles of the Go-runtime and process series:
// heap and GC figures from runtime.ReadMemStats, the goroutine count, and —
// on Linux — process CPU seconds and resident set size from /proc/self.
type runtimeSeries struct {
	goroutines *Gauge
	heapAlloc  *Gauge
	heapSys    *Gauge
	gcCycles   *Counter
	gcPause    *Counter
	cpu        *Counter
	rss        *Gauge

	// mu serializes concurrent scrapes, so two of them cannot both advance
	// a counter to the same reading.
	mu sync.Mutex
}

func newRuntimeSeries(r *Registry) *runtimeSeries {
	return &runtimeSeries{
		goroutines: r.Gauge("desword_go_goroutines",
			"Live goroutines."),
		heapAlloc: r.Gauge("desword_go_heap_alloc_bytes",
			"Heap bytes allocated and in use."),
		heapSys: r.Gauge("desword_go_heap_sys_bytes",
			"Heap bytes obtained from the OS."),
		gcCycles: r.Counter("desword_go_gc_cycles_total",
			"Completed GC cycles."),
		gcPause: r.Counter("desword_go_gc_pause_nanoseconds_total",
			"Cumulative GC stop-the-world pause time in nanoseconds."),
		cpu: r.Counter("desword_process_cpu_seconds_total",
			"Process CPU time (user+system) in whole seconds, from /proc/self/stat."),
		rss: r.Gauge("desword_process_rss_bytes",
			"Resident set size in bytes, from /proc/self/statm."),
	}
}

// sample refreshes every runtime series: one ReadMemStats plus two small
// /proc reads.
func (r *runtimeSeries) sample() {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.goroutines.Set(int64(runtime.NumGoroutine()))
	r.heapAlloc.Set(int64(ms.HeapAlloc))
	r.heapSys.Set(int64(ms.HeapSys))
	advanceTo(r.gcCycles, uint64(ms.NumGC))
	advanceTo(r.gcPause, ms.PauseTotalNs)
	if cpu, ok := readProcCPUSeconds(); ok {
		advanceTo(r.cpu, uint64(cpu))
	}
	if rssPages, ok := readProcRSSPages(); ok {
		r.rss.Set(int64(rssPages * float64(os.Getpagesize())))
	}
}

// advanceTo raises c to the cumulative reading v. A counter never runs
// backwards, so a lower reading leaves it where it is.
func advanceTo(c *Counter, v uint64) {
	if cur := c.Value(); v > cur {
		c.Add(v - cur)
	}
}

// userHZ is the clock-tick rate of /proc/self/stat's CPU times; Linux fixes
// it at 100 on every supported arch.
const userHZ = 100

// readProcCPUSeconds reads utime+stime from /proc/self/stat, in seconds.
// Returns ok=false on any non-Linux host or parse trouble — sampling
// degrades gracefully to the portable series.
func readProcCPUSeconds() (float64, bool) {
	data, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, false
	}
	// The comm field (2nd) may contain spaces and parentheses; fields are
	// counted after the last ')'.
	s := string(data)
	close := strings.LastIndexByte(s, ')')
	if close < 0 {
		return 0, false
	}
	fields := strings.Fields(s[close+1:])
	// After ')': field 3 is state, so utime is index 11 and stime index 12
	// (1-based fields 14 and 15 of the full line).
	if len(fields) < 13 {
		return 0, false
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return (utime + stime) / userHZ, true
}

// readProcRSSPages reads the resident-set page count from /proc/self/statm.
func readProcRSSPages() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, false
	}
	rss, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, false
	}
	return rss, true
}
