package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"desword/internal/trace"
)

// AdminServer is the opt-in HTTP admin listener of a DE-Sword binary,
// serving /metrics (Prometheus text format), /healthz and the net/http/pprof
// profile endpoints under /debug/pprof/.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// adminOptions collects the optional admin-surface extensions.
type adminOptions struct {
	routes map[string]http.Handler
}

// AdminOption extends the admin route table.
type AdminOption func(*adminOptions)

// WithRoute mounts an extra handler on the admin mux (e.g. the flight
// recorder's /debug/events).
func WithRoute(pattern string, h http.Handler) AdminOption {
	return func(o *adminOptions) {
		if o.routes == nil {
			o.routes = make(map[string]http.Handler)
		}
		o.routes[pattern] = h
	}
}

// AdminMux builds the admin route table over a registry. The pprof handlers
// are registered explicitly so nothing leaks through http.DefaultServeMux.
func AdminMux(reg *Registry, opts ...AdminOption) *http.ServeMux {
	var o adminOptions
	for _, opt := range opts {
		opt(&o)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// WritePrometheus reads the runtime series of RegisterProcessMetrics
		// afresh, so every scrape sees current values without a ticker.
		if err := reg.WritePrometheus(w); err != nil {
			// The response is already partially written; nothing to repair.
			_ = err
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", TraceExplorer(trace.Default.Recorder()))
	mux.Handle("/debug/traces/", TraceExplorer(trace.Default.Recorder()))
	for pattern, h := range o.routes {
		mux.Handle(pattern, h)
	}
	return mux
}

// tracedTrace is the detail view /debug/traces/<id> serves: the trace header
// plus its spans assembled into parent→child trees.
type tracedTrace struct {
	TraceID string            `json:"trace_id"`
	Name    string            `json:"name"`
	Start   time.Time         `json:"start"`
	End     time.Time         `json:"end"`
	Spans   int               `json:"spans"`
	Tree    []*trace.SpanNode `json:"tree"`
}

// DefaultTraceIndexLimit caps the /debug/traces index when no explicit
// ?limit= is given: a recorder can hold thousands of traces, and the index
// exists to find recent ones, not to dump history.
const DefaultTraceIndexLimit = 100

// TraceExplorer serves the recorder's completed traces:
//
//	GET /debug/traces        → JSON list of trace summaries, newest first
//	                           (?limit=K caps the list, default 100;
//	                           ?n=K is an alias from the first revision)
//	GET /debug/traces/<id>   → JSON span tree of one trace
//
// It is mounted on every AdminMux; tests can mount it over a private
// recorder.
func TraceExplorer(rec *trace.Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/traces"), "/")
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id == "" {
			summaries := rec.Recent()
			limit := DefaultTraceIndexLimit
			for _, key := range []string{"n", "limit"} {
				if s := r.URL.Query().Get(key); s != "" {
					if v, err := strconv.Atoi(s); err == nil && v >= 0 {
						limit = v
					}
				}
			}
			if limit < len(summaries) {
				summaries = summaries[:limit]
			}
			_ = enc.Encode(summaries)
			return
		}
		if !trace.ValidTraceID(id) {
			http.Error(w, "malformed trace id", http.StatusBadRequest)
			return
		}
		td, ok := rec.Get(id)
		if !ok {
			http.Error(w, "trace not found (evicted or never sampled?)", http.StatusNotFound)
			return
		}
		_ = enc.Encode(tracedTrace{
			TraceID: td.TraceID,
			Name:    td.Name,
			Start:   td.Start,
			End:     td.End,
			Spans:   len(td.Spans),
			Tree:    td.Tree(),
		})
	})
}

// ServeAdmin starts the admin listener on addr (e.g. ":6060", or
// "127.0.0.1:0" for an ephemeral port) exposing reg. It returns once the
// listener is bound; requests are served in the background until Close.
func ServeAdmin(addr string, reg *Registry, opts ...AdminOption) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listener on %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           AdminMux(reg, opts...),
		ReadHeaderTimeout: 5 * time.Second,
	}
	a := &AdminServer{ln: ln, srv: srv}
	go func() {
		// Serve returns ErrServerClosed (or a listener error) on Close;
		// either way the goroutine is done.
		_ = srv.Serve(ln)
	}()
	return a, nil
}

// Addr returns the bound listen address.
func (a *AdminServer) Addr() string { return a.ln.Addr().String() }

// Close stops the admin listener. Safe to call more than once.
func (a *AdminServer) Close() error {
	err := a.srv.Close()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}
